"""Gossip membership: decentralized failure detection over the overlay.

The oracle detector in :mod:`repro.sim.monitor` sees every missed beat
instantly and perfectly — exactly the global observer Section 5.3's
local repair rules were designed to avoid.  This module replaces it with
a peer-to-peer control plane in the SWIM/gossip family:

* every super-peer cluster keeps a **versioned membership view** of all
  partner slots — an incarnation number plus an alive/suspect/dead state
  per slot.  Views merge as a join-semilattice (higher incarnation wins;
  at equal incarnation the stronger claim wins), so rumor delivery in
  any order converges to one view;
* **rumor digests piggyback** on existing overlay traffic (every flood
  tree edge and surviving reverse-path response edge also carries a
  digest) plus a low-rate **anti-entropy** push-pull exchange between
  random overlay neighbours — both charged through the Eq. 1-4 cost
  model and exposed to :mod:`repro.obs.attribution` as the ``gossip``
  action class;
* each cluster is watched by a small set of **monitors** (itself plus
  its lowest-id overlay neighbours).  A monitor that misses heartbeats
  raises a *suspicion* and unicasts dead-node reports to the other
  monitors; a slot is declared **dead only after m-of-n independent
  suspicion reports corroborate it** (or, when corroboration cannot
  arrive — monitors dark or cut off — after a corroboration timeout),
  and only then does the :class:`~repro.sim.recovery.RecoveryPolicy`
  act;
* message loss and partitions therefore corrupt views, delay detection,
  and cause **recoverable false suspicions**: a wrongly-suspected slot
  is refuted by bumping its incarnation, which out-versions every stale
  rumor — at the cost of real (charged) refutation traffic but never a
  spurious repair.

All randomness draws from the recovery stream (``derive_rng(seed,
"sim", "recovery")``), never the workload stream, so runs are
deterministic per seed and the oracle/no-detector paths are untouched
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import constants
from ..core import costs
from ..obs.metrics import get_registry
from ..topology.strong import CompleteGraph

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "GossipSpec",
    "GossipDetector",
    "gossip_attribution",
    "pack_entry",
    "entry_inc",
    "entry_state",
    "merge_views",
]

#: Membership states, ordered by claim strength: at equal incarnation a
#: stronger claim (suspect over alive, dead over suspect) wins the merge.
ALIVE, SUSPECT, DEAD = 0, 1, 2

_STATE_BITS = 2  # states fit in the low bits of a packed entry
_STATE_MASK = (1 << _STATE_BITS) - 1


def pack_entry(inc, state):
    """Pack (incarnation, state) into one integer view entry.

    The packing is order-preserving for the gossip merge rule: comparing
    packed entries compares ``(inc, state)`` lexicographically, so the
    semilattice join is a plain elementwise ``max``.
    """
    return (np.asarray(inc, dtype=np.int64) << _STATE_BITS) | state


def entry_inc(entry):
    """Incarnation number of a packed entry (array-safe)."""
    return np.asarray(entry, dtype=np.int64) >> _STATE_BITS


def entry_state(entry):
    """Membership state of a packed entry (array-safe)."""
    return np.asarray(entry, dtype=np.int64) & _STATE_MASK


def merge_views(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join of two membership views (elementwise, returns a new array).

    Higher incarnation wins; at equal incarnation the stronger state
    wins.  Because entries are packed order-preservingly this is an
    elementwise max — commutative, associative, idempotent, and
    monotone, which is what lets rumors arrive in any order.
    """
    return np.maximum(a, b)


@dataclass(frozen=True)
class GossipSpec:
    """Protocol parameters of the gossip membership layer.

    ``suspect_timeout`` missed-heartbeat seconds raise a suspicion (plus
    the phase of the ``probe_interval`` heartbeat schedule); a suspicion
    is escalated to a dead declaration once ``corroboration_m`` of the
    (up to) ``monitors_n`` monitors independently report it, or — when
    corroboration cannot arrive — after ``corroboration_timeout`` more
    seconds.  ``fanout`` neighbours per cluster take part in the
    anti-entropy exchange every ``anti_entropy_interval`` seconds.
    """

    probe_interval: float = 2.0
    suspect_timeout: float = 6.0
    fanout: int = 2
    anti_entropy_interval: float = 12.0
    corroboration_m: int = 2
    monitors_n: int = 4
    corroboration_timeout: float = 6.0

    def __post_init__(self) -> None:
        for name in ("probe_interval", "suspect_timeout",
                     "anti_entropy_interval", "corroboration_timeout"):
            value = getattr(self, name)
            if math.isnan(value) or value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.corroboration_m < 1:
            raise ValueError(
                f"corroboration_m must be >= 1, got {self.corroboration_m}"
            )
        if self.corroboration_m > self.monitors_n:
            raise ValueError(
                f"corroboration_m ({self.corroboration_m}) cannot exceed "
                f"monitors_n ({self.monitors_n})"
            )

    @property
    def detection_bound(self) -> float:
        """Worst-case crash -> declared-dead delay with a live monitor.

        One suspicion timeout, at most one heartbeat phase plus one
        sweep round of re-arming slack, and one corroboration window
        (the escalation path declares even when m-of-n never
        corroborates).
        """
        return (self.suspect_timeout + 2.0 * self.probe_interval
                + self.corroboration_timeout)

    def describe(self) -> str:
        return (
            f"gossip(m={self.corroboration_m}/{self.monitors_n}, "
            f"suspect {self.suspect_timeout:g}s, probe {self.probe_interval:g}s)"
        )

    def to_dict(self) -> dict:
        return {
            "probe_interval": self.probe_interval,
            "suspect_timeout": self.suspect_timeout,
            "fanout": self.fanout,
            "anti_entropy_interval": self.anti_entropy_interval,
            "corroboration_m": self.corroboration_m,
            "monitors_n": self.monitors_n,
            "corroboration_timeout": self.corroboration_timeout,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GossipSpec":
        return cls(**payload)


class GossipDetector:
    """The decentralized failure detector bound to one simulation run.

    Implements the :class:`~repro.sim.faults.FaultRuntime` listener
    protocol (``on_crash`` / ``on_recover``) like the oracle
    :class:`~repro.sim.monitor.FailureDetector`, so
    :class:`~repro.sim.recovery.RecoveryRuntime` can swap either in by
    ``DetectorSpec.mode``.  Unlike the oracle it only *learns* about a
    crash through missed heartbeats, reports, and rumors — and it pays
    for every message it sends.

    ``state`` (the simulator's ``_State``) may be ``None`` in unit
    harnesses: gossip traffic is then tallied in the per-cluster outcome
    arrays but not charged onto simulation meters.
    """

    def __init__(self, spec, state, runtime, rng, on_confirmed) -> None:
        self.spec = spec
        self.gspec = spec.gossip
        self.st = state
        self.rt = runtime
        self.rng = rng
        self.on_confirmed = on_confirmed
        self.sim = None
        self.tracer = runtime.tracer
        n, k = runtime.n, runtime.k
        self.n, self.k = n, k
        #: Ground-truth incarnation per slot; bumped on every up
        #: transition and refutation so fresh ALIVE claims out-version
        #: every stale rumor.
        self.inc = np.zeros((n, k), dtype=np.int64)
        #: Per-cluster membership views, packed (cluster u's belief
        #: about slot (c, p) lives at ``view[u, c * k + p]``).
        self.view = np.zeros((n, n * k), dtype=np.int64)
        #: Non-ALIVE entries per view row (sizes the row's rumor digest).
        self._active = np.zeros(n, dtype=np.int64)
        #: Latched False at the first suspicion episode: while quiet,
        #: every view is all-zeros, digests would be empty, and the
        #: piggyback path costs nothing at all.
        self._quiet = True
        self._records: dict[tuple[int, int], dict] = {}
        self._crashed: dict[tuple[int, int], float] = {}
        self._cut_raised: dict[int, set] = {}
        # Deterministic gossip counters (also exported via the metrics
        # registry, where the benchmark's references pin them).
        registry = get_registry()
        self._m_rumors = registry.counter("sim.gossip_rumors")
        self._m_suspicions = registry.counter("sim.gossip_suspicions")
        self._m_refutations = registry.counter("sim.gossip_refutations")
        self.rumors_sent = 0
        self.suspicions = 0
        self.refutations = 0
        self.declarations = 0
        self.messages = 0
        self._gos_in = np.zeros(n)
        self._gos_out = np.zeros(n)
        self._gos_units = np.zeros(n)
        # Per-partner units of a control message, priced as an Update
        # without the multiplex term: sent, received, received and applied.
        self._send_u = costs.send_update(0.0)[1] / k
        self._recv_u = costs.recv_update(0.0)[1] / k
        self._apply_u = (costs.recv_update(0.0)[1] + costs.process_update()) / k
        graph = runtime.instance.graph
        if isinstance(graph, CompleteGraph):
            graph = graph.materialize()
        self._graph = graph
        self._monitors = self._build_monitors()
        # Static (monitor, target-cluster, target-partner) triples for
        # the vectorized heartbeat sweep.
        watching = np.array([m.size for m in self._monitors], dtype=np.int64)
        self._pair_u = np.repeat(np.concatenate(self._monitors), k)
        self._pair_c = np.repeat(np.arange(n, dtype=np.int64), watching * k)
        self._pair_p = np.tile(np.arange(k, dtype=np.int64), int(watching.sum()))

    # --- wiring ---------------------------------------------------------------

    def install(self, sim) -> None:
        """Bind to the simulator and start observing the fault runtime."""
        self.sim = sim
        self.rt.listener = self
        self.rt.gossip = self
        self._sweep = sim.every(self.gspec.probe_interval, self._sweep_round)
        self._anti = sim.every(self.gspec.anti_entropy_interval,
                               self._anti_entropy)

    def _build_monitors(self) -> list[np.ndarray]:
        """Monitor sets: the cluster itself plus lowest-id neighbours.

        A cluster's fellow partners hear each other's heartbeats first
        (they share the virtual super-peer), so the cluster is always
        its own first monitor; overlay neighbours fill the remaining
        ``monitors_n - 1`` seats in id order (deterministic).
        """
        cap = self.gspec.monitors_n
        out = []
        for c in range(self.n):
            neighbours = np.sort(
                np.asarray(self._graph.neighbors(c), dtype=np.int64)
            )
            out.append(np.concatenate(([c], neighbours[: max(0, cap - 1)])))
        return out

    # --- FaultRuntime listener hooks ------------------------------------------

    def on_crash(self, cluster: int, partner: int, now: float) -> None:
        self._crashed[(cluster, partner)] = now
        rec = self._open_record(cluster, partner)
        self._arm_monitors(cluster, partner, rec)

    def on_recover(self, cluster: int, partner: int, now: float) -> None:
        # The slot came back (natural recovery or promotion): close the
        # suspicion episode and out-version every rumor about it.
        self._crashed.pop((cluster, partner), None)
        self._records.pop((cluster, partner), None)
        self.inc[cluster, partner] += 1
        self._set_entry(cluster, cluster, partner,
                        pack_entry(self.inc[cluster, partner], ALIVE))

    # --- view bookkeeping -----------------------------------------------------

    def _set_entry(self, row: int, cluster: int, partner: int,
                   packed) -> None:
        """Merge one packed entry into a view row, keeping counts fresh."""
        slot = cluster * self.k + partner
        merged = max(int(self.view[row, slot]), int(packed))
        if merged != self.view[row, slot]:
            self.view[row, slot] = merged
            self._recount(row)

    def _recount(self, rows) -> None:
        """Refresh the non-ALIVE entry counts of view ``rows``."""
        self._active[rows] = np.count_nonzero(
            self.view[rows] & _STATE_MASK, axis=-1)

    # --- suspicion lifecycle --------------------------------------------------

    def _open_record(self, cluster: int, partner: int) -> dict:
        rec = self._records.get((cluster, partner))
        if rec is None:
            self._quiet = False
            rec = {
                "inc": int(self.inc[cluster, partner]),
                "suspected": set(),      # monitors whose timer fired
                "scheduled": set(),      # monitors with a pending timer
                "tally": {},             # monitor -> set of report origins
                "pending": [],           # reports blocked by an active cut
                "declared": False,
                "false_declared": set(),  # monitors that marked DEAD wrongly
                "opened_at": self.sim.now if self.sim is not None else 0.0,
            }
            self._records[(cluster, partner)] = rec
        return rec

    def _arm_monitors(self, cluster: int, partner: int, rec: dict) -> None:
        """Schedule a suspicion timer on every live, unarmed monitor."""
        for u in self._monitors[cluster]:
            u = int(u)
            if (self.rt.live[u] <= 0 or u in rec["scheduled"]
                    or u in rec["suspected"]):
                continue
            delay = self.gspec.suspect_timeout + float(
                self.rng.uniform(0.0, self.gspec.probe_interval)
            )
            rec["scheduled"].add(u)
            self.sim.schedule(delay, self._suspect, u, cluster, partner,
                              rec["inc"])

    def _suspect(self, u: int, cluster: int, partner: int, inc: int) -> None:
        rec = self._records.get((cluster, partner))
        if rec is not None:
            rec["scheduled"].discard(u)
        if (rec is None or rec["inc"] != inc or rec["declared"]
                or self.rt.up[cluster, partner] or self.rt.live[u] <= 0):
            return
        self._mark_suspected(u, cluster, partner, rec)

    def _mark_suspected(self, u: int, cluster: int, partner: int,
                        rec: dict) -> None:
        """Monitor ``u`` starts suspecting the slot: rumor + reports."""
        if u in rec["suspected"] or rec["declared"]:
            return
        rec["suspected"].add(u)
        self.suspicions += 1
        self._m_suspicions.add()
        if self.rt.up[cluster, partner]:
            # A suspicion of a live slot is by definition false — it was
            # injected by loss or a partition, and must end in refutation.
            self.rt.metrics.false_suspicions += 1
            if self.tracer.enabled:
                self.tracer.emit("false-suspicion", self.sim.now,
                                 cluster=cluster, partner=partner, monitor=u)
        elif self.tracer.enabled:
            self.tracer.emit("suspect", self.sim.now, cluster=cluster,
                             partner=partner, monitor=u)
        self._set_entry(u, cluster, partner, pack_entry(rec["inc"], SUSPECT))
        # Unicast dead-node reports to the other monitors; a report
        # blocked by an active cut is retried every sweep round.
        for w in self._monitors[cluster]:
            w = int(w)
            if w == u or self.rt.live[w] <= 0:
                continue
            self._charge(u, out_bytes=constants.GOSSIP_REPORT_BYTES / self.k,
                         units=self._send_u, messages=1)
            self.rumors_sent += 1
            self._m_rumors.add()
            if self._reachable(u, w):
                self._deliver_report(w, cluster, partner, u, rec["inc"])
            else:
                rec["pending"].append((u, w))
        # The monitor's own suspicion seeds its tally toward m-of-n.
        self._tally(u, cluster, partner, u, rec)
        if not rec["declared"]:
            self.sim.schedule(self.gspec.corroboration_timeout,
                              self._escalate, u, cluster, partner, rec["inc"])

    def _deliver_report(self, w: int, cluster: int, partner: int,
                        origin: int, inc: int) -> None:
        rec = self._records.get((cluster, partner))
        if rec is None or rec["inc"] != inc or rec["declared"]:
            return
        self._charge(w, in_bytes=constants.GOSSIP_REPORT_BYTES / self.k,
                     units=self._recv_u)
        if w == cluster and self.rt.up[cluster, partner]:
            # The cluster itself heard a report about its own live
            # partner: it refutes immediately with a higher incarnation.
            self._refute(cluster, partner, rec, refuter=w)
            return
        self._set_entry(w, cluster, partner, pack_entry(inc, SUSPECT))
        self._tally(w, cluster, partner, origin, rec)

    def _tally(self, w: int, cluster: int, partner: int, origin: int,
               rec: dict) -> None:
        origins = rec["tally"].setdefault(w, set())
        origins.add(origin)
        if len(origins) >= self._needed(cluster):
            self._declare(w, cluster, partner, rec)

    def _needed(self, cluster: int) -> int:
        """Corroboration quorum: m, capped by the monitors still alive."""
        alive = sum(1 for u in self._monitors[cluster]
                    if self.rt.live[int(u)] > 0)
        return max(1, min(self.gspec.corroboration_m, alive))

    def _escalate(self, u: int, cluster: int, partner: int, inc: int) -> None:
        """Corroboration never arrived: the suspecting monitor decides alone."""
        rec = self._records.get((cluster, partner))
        if (rec is None or rec["inc"] != inc or rec["declared"]
                or u not in rec["suspected"] or self.rt.live[u] <= 0):
            return
        self._declare(u, cluster, partner, rec)

    def _declare(self, w: int, cluster: int, partner: int, rec: dict) -> None:
        """Monitor ``w`` declares the slot dead (after a verification probe)."""
        if rec["declared"]:
            return
        # Verification probe before acting on the rumor mass.
        probe_bytes, probe_units = costs.send_empty(0.0)
        self._charge(w, out_bytes=probe_bytes / self.k,
                     units=probe_units / self.k, messages=1)
        if self.rt.up[cluster, partner]:
            if self._reachable(w, cluster):
                # The probe answers: the slot is alive — refute.
                probe_bytes, probe_units = costs.recv_empty(0.0)
                self._charge(w, in_bytes=probe_bytes / self.k,
                             units=probe_units / self.k, messages=1)
                self._refute(cluster, partner, rec, refuter=w)
            else:
                # The probe is severed by the cut: w wrongly concludes
                # dead.  Its view is now corrupted until the partition
                # heals and the stale-record sweep refutes it.
                rec["false_declared"].add(w)
                self._set_entry(w, cluster, partner,
                                pack_entry(rec["inc"], DEAD))
            return
        rec["declared"] = True
        self.declarations += 1
        self._set_entry(w, cluster, partner, pack_entry(rec["inc"], DEAD))
        out = self.rt.metrics
        out.detections += 1
        crashed_at = self._crashed.get((cluster, partner))
        lag = self.sim.now - crashed_at if crashed_at is not None else 0.0
        out.detection_lags.append(lag)
        if self.tracer.enabled:
            self.tracer.emit("detect", self.sim.now, cluster=cluster,
                             partner=partner, lag=lag, monitor=w,
                             corroborated=len(rec["tally"].get(w, ())))
        self.on_confirmed(cluster, partner)

    def _refute(self, cluster: int, partner: int, rec: dict,
                refuter: int) -> None:
        """A live slot was suspected: out-version the rumor, repair views."""
        self.refutations += 1
        self._m_refutations.add()
        self.inc[cluster, partner] += 1
        fresh = pack_entry(self.inc[cluster, partner], ALIVE)
        self._set_entry(cluster, cluster, partner, fresh)
        self._set_entry(refuter, cluster, partner, fresh)
        # The refutation rumor is unicast back to every monitor that
        # took part in the episode (the epidemic paths spread it wider).
        involved = (set(rec["suspected"]) | set(rec["tally"])
                    | rec["false_declared"])
        involved.discard(refuter)
        involved.discard(cluster)
        for w in sorted(involved):
            if self.rt.live[w] <= 0:
                continue
            self._charge(refuter,
                         out_bytes=constants.GOSSIP_RUMOR_SIZE / self.k,
                         units=self._send_u, messages=1)
            self.rumors_sent += 1
            self._m_rumors.add()
            if self._reachable(refuter, w):
                self._charge(w, in_bytes=constants.GOSSIP_RUMOR_SIZE / self.k,
                             units=self._recv_u)
                self._set_entry(w, cluster, partner, fresh)
        self._records.pop((cluster, partner), None)
        if self.tracer.enabled:
            self.tracer.emit("refute", self.sim.now, cluster=cluster,
                             partner=partner, refuter=refuter,
                             incarnation=int(self.inc[cluster, partner]))

    # --- periodic machinery ---------------------------------------------------

    def _sweep_round(self) -> None:
        """One heartbeat round: probes, loss/partition suspicions, retries."""
        now = self.sim.now
        self._charge_heartbeats(now)
        loss = self.rt.plan.message_loss
        if loss > 0.0:
            self._loss_suspicions(now, loss)
        self._partition_suspicions(now)
        # Re-arm: down slots whose monitors were dark (or revived since)
        # get fresh suspicion timers, so detection is never wedged.
        for (c, p) in sorted(self._crashed):
            if self.rt.up[c, p]:
                continue
            rec = self._open_record(c, p)
            if not rec["declared"]:
                self._arm_monitors(c, p, rec)
        self._retry_pending(now)
        self._refute_stale(now)

    def _charge_heartbeats(self, now: float) -> None:
        """Charge one round of monitor->slot pings (and acks from live slots)."""
        u, c, p = self._pair_u, self._pair_c, self._pair_p
        sending = self.rt.live[u] > 0
        cut = self.rt.edge_cut(u, c, now)
        if cut is not None:
            sending = sending & ~cut
        if not sending.any():
            return
        answering = sending & self.rt.up[c, p]
        probe = constants.GOSSIP_PROBE_BYTES / self.k
        send_u, recv_u = self._send_u, self._recv_u
        pings, acks, heard = u[sending], c[answering], u[answering]
        self._scatter(np.concatenate((pings, acks)),
                      np.concatenate((acks, heard)), probe,
                      np.concatenate((pings, acks, heard)),
                      np.repeat([send_u, recv_u + send_u, recv_u],
                                [pings.size, acks.size, heard.size]))
        self.messages += int(np.count_nonzero(sending)) \
            + int(np.count_nonzero(answering))

    def _loss_suspicions(self, now: float, loss: float) -> None:
        """Aggregate draw of heartbeat streaks broken by message loss.

        A beat is missed when the ping or its ack drops; a suspicion
        fires after ``suspect_timeout`` worth of consecutive misses.
        Sampled binomially over all monitored live pairs (mirroring the
        oracle detector's aggregate false-positive sweep) so the
        per-round cost is one draw.
        """
        miss = 1.0 - (1.0 - loss) ** 2
        beats = max(1, int(round(self.gspec.suspect_timeout
                                 / self.gspec.probe_interval)))
        p_streak = (miss ** beats) * (1.0 - miss)
        if p_streak <= 0.0:
            return
        u, c, p = self._pair_u, self._pair_c, self._pair_p
        eligible = (self.rt.live[u] > 0) & self.rt.up[c, p]
        cut = self.rt.edge_cut(u, c, now)
        if cut is not None:
            eligible &= ~cut
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            return
        hits = int(self.rng.binomial(idx.size, p_streak))
        if hits == 0:
            return
        chosen = self.rng.choice(idx, size=min(hits, idx.size), replace=False)
        for i in np.sort(np.atleast_1d(chosen)):
            ui, ci, pi = int(u[i]), int(c[i]), int(p[i])
            rec = self._open_record(ci, pi)
            self._mark_suspected(ui, ci, pi, rec)

    def _partition_suspicions(self, now: float) -> None:
        """Monitors cut off from their target suspect it deterministically."""
        for index, (start, end, island) in enumerate(self.rt._islands):
            if not (start <= now < end):
                self._cut_raised.pop(index, None)
                continue
            if now - start < self.gspec.suspect_timeout:
                continue
            raised = self._cut_raised.setdefault(index, set())
            u, c, p = self._pair_u, self._pair_c, self._pair_p
            crossing = ((island[u] != island[c]) & (self.rt.live[u] > 0)
                        & self.rt.up[c, p])
            for i in np.nonzero(crossing)[0]:
                i = int(i)
                if i in raised:
                    continue
                raised.add(i)
                rec = self._open_record(int(c[i]), int(p[i]))
                self._mark_suspected(int(u[i]), int(c[i]), int(p[i]), rec)

    def _retry_pending(self, now: float) -> None:
        """Re-send suspicion reports that a partition blocked."""
        for (c, p), rec in sorted(self._records.items()):
            if not rec["pending"]:
                continue
            still = []
            for origin, w in rec["pending"]:
                if rec["declared"] or self.rt.live[w] <= 0:
                    continue
                if self._reachable(origin, w):
                    self._deliver_report(w, c, p, origin, rec["inc"])
                else:
                    still.append((origin, w))
            rec["pending"] = still

    def _refute_stale(self, now: float) -> None:
        """Refute lingering suspicions of live slots once reachable again."""
        for (c, p), rec in sorted(self._records.items()):
            if not self.rt.up[c, p] or rec["declared"]:
                continue
            age = now - rec["opened_at"]
            if age <= (self.gspec.corroboration_timeout
                       + self.gspec.probe_interval):
                continue
            for w in sorted(rec["suspected"] | rec["false_declared"]):
                if self.rt.live[w] > 0 and self._reachable(w, c):
                    # Verification probe round-trip, then refutation.
                    hs_bytes, hs_units = costs.handshake(0.0)
                    self._charge(w, out_bytes=hs_bytes / self.k,
                                 in_bytes=hs_bytes / self.k,
                                 units=hs_units / self.k, messages=2)
                    self._refute(c, p, rec, refuter=w)
                    break

    def _anti_entropy(self) -> None:
        """Low-rate push-pull view exchange with random overlay neighbours."""
        for u in range(self.n):
            if self.rt.live[u] <= 0:
                continue
            peers = [int(v) for v in self._graph.neighbors(u)
                     if self.rt.live[int(v)] > 0 and self._reachable(u, int(v))]
            if not peers:
                continue
            take = min(self.gspec.fanout, len(peers))
            chosen = self.rng.choice(np.asarray(peers, dtype=np.int64),
                                     size=take, replace=False)
            for v in np.sort(np.atleast_1d(chosen)):
                self._exchange(u, int(v))

    def _exchange(self, u: int, v: int) -> None:
        """One push-pull digest exchange: both views converge, both pay."""
        for a, b in ((u, v), (v, u)):
            size = self._digest_bytes(a)
            self._charge(a, out_bytes=size, units=self._send_u, messages=1)
            self._charge(b, in_bytes=size, units=self._apply_u)
            self.rumors_sent += 1
            self._m_rumors.add()
        if not self._quiet and (self.view[u] != self.view[v]).any():
            merged = np.maximum(self.view[u], self.view[v])
            self.view[u] = merged
            self.view[v] = merged
            self._recount([u, v])

    # --- piggyback on overlay traffic -----------------------------------------

    def on_flood(self, prop, edge_pass: np.ndarray) -> None:
        """Ride a sampled query flood: digests travel every tree edge.

        Down the flood tree each reached node merges its predecessor's
        view (in depth order, so rumors relay multiple hops within one
        flood); up the reverse path each surviving response edge carries
        the child's view back.  Both directions are charged as digest
        bytes on top of the messages they ride.  While the run is quiet
        (no suspicion episode has ever opened) every digest would be
        empty, so nothing is attached and nothing is charged.  When the
        flood's nodes already agree on their views, the digests are
        charged but nothing is merged.
        """
        if self._quiet:
            return
        nodes = np.nonzero(prop.reached)[0]
        nodes = nodes[nodes != prop.source]
        if nodes.size == 0:
            return
        preds, depths, view = prop.pred[nodes], prop.depth[nodes], self.view
        # When every reached row equals the source's, every maximum below
        # is a no-op and ``_active`` is already fresh: skip both merges
        # and charge the digests alone.
        agreed = not (view[nodes] != view[prop.source]).any()
        if not agreed:
            # Down pass, shallow levels first.  A level's receivers are
            # distinct nodes, so a gather/max/assign merges it.
            for d in np.unique(depths):
                at = depths == d
                view[nodes[at]] = np.maximum(view[nodes[at]], view[preds[at]])
            # A node's view changes at most once per pass and before it
            # sends, so one recount per pass sizes every digest of the pass.
            self._recount(nodes)
        down = self._digest_bytes(preds)
        passing = edge_pass[nodes]
        kids, parents, kid_depths = nodes[passing], preds[passing], depths[passing]
        if not agreed:
            # Up pass, deep levels first.  Siblings share a parent row, so
            # each level scatters with one flat maximum.at over row-major
            # keys (``view`` is C-contiguous, so ``reshape(-1)`` writes
            # through).
            width = view.shape[1]
            for d in np.unique(kid_depths)[::-1]:
                at = kid_depths == d
                keys = parents[at, np.newaxis] * width + np.arange(width)
                np.maximum.at(view.reshape(-1), keys.ravel(),
                              view[kids[at]].ravel())
            self._recount(parents)
        sizes = np.concatenate((down, self._digest_bytes(kids)))
        # Per node, charges keep the per-level order: in down, out down,
        # in up, out up.
        send_u, recv_u = self._send_u, self._apply_u
        self._scatter(np.concatenate((preds, kids)),
                      np.concatenate((nodes, parents)), sizes,
                      np.concatenate((nodes, preds, parents, kids)),
                      np.repeat([recv_u, send_u, recv_u, send_u],
                                [nodes.size, nodes.size, kids.size, kids.size]))
        self.rumors_sent += int(sizes.size)
        self._m_rumors.add(float(sizes.size))

    def _digest_bytes(self, senders: np.ndarray) -> np.ndarray:
        """Per-partner bytes of each sender's digest of its current view."""
        return (constants.GOSSIP_DIGEST_BASE
                + constants.GOSSIP_RUMOR_SIZE * self._active[senders]) / self.k

    # --- helpers --------------------------------------------------------------

    def _reachable(self, a: int, b: int) -> bool:
        """False while an active partition separates clusters a and b."""
        now = self.sim.now if self.sim is not None else 0.0
        for start, end, island in self.rt._islands:
            if start <= now < end and island[a] != island[b]:
                return False
        return True

    def _scatter(self, senders, receivers, nbytes, proc_at, units) -> None:
        """Batched :meth:`_charge`, one ``np.add.at`` per meter; it adds in
        index order, so each float matches one-at-a-time charging."""
        meters = [(self._gos_out, self._gos_in, self._gos_units)]
        if self.st is not None:
            meters.append((self.st.sp_out, self.st.sp_in, self.st.sp_proc))
        for out, into, proc in meters:
            np.add.at(out, senders, nbytes)
            np.add.at(into, receivers, nbytes)
            np.add.at(proc, proc_at, units)

    def _charge(self, cluster: int, in_bytes: float = 0.0,
                out_bytes: float = 0.0, units: float = 0.0,
                messages: int = 0) -> None:
        """Charge gossip traffic to a cluster's per-partner meters.

        Amounts follow the meter convention (per-partner means, like the
        repair layer); the sealed outcome totals scale back to
        whole-cluster units.
        """
        if self.st is not None:
            self.st.sp_in[cluster] += in_bytes
            self.st.sp_out[cluster] += out_bytes
            self.st.sp_proc[cluster] += units
        self._gos_in[cluster] += in_bytes
        self._gos_out[cluster] += out_bytes
        self._gos_units[cluster] += units
        self.messages += messages

    # --- end of run -----------------------------------------------------------

    def stale_view_entries(self) -> int:
        """View entries of live clusters that wrongly mark a live slot."""
        up = self.rt.up.ravel()
        states = self.view & _STATE_MASK
        wrong = (states != ALIVE) & up[np.newaxis, :]
        return int(np.count_nonzero(wrong[self.rt.live > 0]))

    def finish(self, duration: float) -> None:
        """Seal the gossip fields of the outcome.

        Byte/unit totals are re-derived from the per-cluster tables
        (scaled back from per-partner meter units), so the scalar and
        array fields agree exactly.
        """
        out = self.rt.metrics
        out.gossip_rumors_sent = self.rumors_sent
        out.gossip_suspicions = self.suspicions
        out.gossip_refutations = self.refutations
        out.gossip_declarations = self.declarations
        out.gossip_messages = self.messages
        out.gossip_bytes = float(
            (self._gos_in.sum() + self._gos_out.sum()) * self.k
        )
        out.gossip_units = float(self._gos_units.sum() * self.k)
        out.stale_view_entries = self.stale_view_entries()
        out.gossip_cluster_bytes_in = self._gos_in.copy()
        out.gossip_cluster_bytes_out = self._gos_out.copy()
        out.gossip_cluster_units = self._gos_units.copy()


def gossip_attribution(instance, outcome, duration: float, attribution=None):
    """Expose an outcome's gossip traffic as a ``LoadAttribution``.

    Mirrors :func:`repro.sim.recovery.repair_attribution`: the
    ``"gossip"`` action carries the per-partner membership-protocol
    rates (heartbeats, reports, digests, refutations), so control-plane
    load shows up in the same hotspot reports as the
    query/response/join/update/repair classes.  Pass an existing bound
    ``attribution`` to add onto it.
    """
    from ..obs.attribution import LoadAttribution

    if outcome.gossip_cluster_bytes_in is None:
        raise ValueError(
            "outcome has no gossip tables; run with a gossip-mode "
            "RecoveryPolicy first"
        )
    if attribution is None:
        attribution = LoadAttribution().bind(instance)
    attribution.add("p", "gossip", "in_bw",
                    outcome.gossip_cluster_bytes_in / duration)
    attribution.add("p", "gossip", "out_bw",
                    outcome.gossip_cluster_bytes_out / duration)
    attribution.add("p", "gossip", "proc",
                    outcome.gossip_cluster_units / duration)
    return attribution
