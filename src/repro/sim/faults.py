"""Composable fault plans for the message-level simulator.

The paper's reliability argument (Section 3.2) is that a k-redundant
virtual super-peer keeps serving its cluster while individual partners
die.  The fault-free simulator in :mod:`repro.sim.network` cannot test
that claim — messages always arrive, partners are replaced instantly —
so this module defines the failure modes a real deployment sees and the
runtime that injects them into a simulation:

* **message loss** — every overlay hop drops each message independently
  with a fixed probability;
* **super-peer crash/recovery** — partner slots alternate up-times drawn
  from the instance's calibrated lifespan model with down-windows of a
  configurable mean, instead of the fault-free model's instantaneous
  replacement.  While *all* partners of a cluster are down, the cluster
  is dark: it neither relays nor answers, and its clients are orphaned;
* **network partitions** — time windows during which an "island" of
  clusters is cut off from the rest of the overlay;
* **blackouts** — named clusters that are dark for the *entire* run
  (every partner down from t=0, no scheduled recovery).  This is the
  deterministic building block the risk-aware design layer uses to
  realize an enumerated failure scenario as a plan: no RNG draw decides
  *whether* the failure happens — the scenario's probability weight
  already did;
* **slow nodes** — a fraction of clusters whose forwarding latency is
  inflated by a factor, modelled as the fraction of their forwards that
  miss the query deadline.

A :class:`FaultPlan` bundles any combination (compose plans with ``|``).
All fault randomness is drawn from a dedicated RNG stream, never from
the workload stream, so a zero-fault plan reproduces the fault-free
simulation bit for bit and fault plans are deterministic under a fixed
seed (the ``derive_rng`` stream-splitting discipline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..codec import Codec
from ..core.routing import QueryPropagation, flood_block, fold_to_sources
from ..obs.metrics import get_registry
from ..obs.trace import NULL_TRACER


@dataclass(frozen=True)
class CrashSpec(Codec):
    """Partner crash/recovery schedule.

    Up-times are exponential with each slot's instance-assigned mean
    lifespan (scaled by ``lifespan_scale``); down-windows are exponential
    with mean ``mean_recovery`` seconds — the time to detect the failure
    and promote/boot a replacement.  When a plan carries a CrashSpec, the
    crash machinery *replaces* the fault-free simulator's instantaneous
    partner churn, and the replacement's index rebuild is charged at
    recovery time.
    """

    mean_recovery: float = 120.0
    lifespan_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_recovery <= 0:
            raise ValueError("mean_recovery must be positive")
        if self.lifespan_scale <= 0:
            raise ValueError("lifespan_scale must be positive")


@dataclass(frozen=True)
class PartitionWindow(Codec):
    """During ``[start, end)`` the ``island`` clusters are cut off.

    Overlay messages crossing the island boundary (either direction) are
    dropped; traffic within the island and within the mainland flows
    normally.
    """

    start: float
    end: float
    island: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.end <= self.start or self.start < 0:
            raise ValueError("need 0 <= start < end")
        if not self.island:
            raise ValueError("island must name at least one cluster")
        object.__setattr__(self, "island", tuple(int(c) for c in self.island))

    def overlaps(self, other: "PartitionWindow") -> bool:
        """True when both windows are active at some instant AND cut a
        shared cluster boundary (their islands intersect)."""
        in_time = self.start < other.end and other.start < self.end
        return in_time and bool(set(self.island) & set(other.island))


@dataclass(frozen=True)
class SlowSpec(Codec):
    """A random ``fraction`` of clusters forward ``factor``x slower.

    A message forwarded by a slow node misses the query deadline with
    probability ``1 - 1/factor`` (a 2x-slow relay loses half its
    forwards to the timeout), which is how latency inflation surfaces in
    a simulator that accounts message exchanges synchronously.
    """

    fraction: float
    factor: float = 4.0

    def __post_init__(self) -> None:
        if math.isnan(self.fraction):
            raise ValueError("slow fraction must not be NaN")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")

    @property
    def drop_prob(self) -> float:
        return 1.0 - 1.0 / self.factor


@dataclass(frozen=True)
class RetryPolicy(Codec):
    """Timeout/retry behaviour of the originating super-peer.

    When a flood loses messages, the source waits ``timeout`` seconds
    and re-floods, up to ``max_retries`` times with exponential backoff
    (``timeout * backoff**i`` before retry ``i``, capped at ``ceiling``
    seconds).  Each retry pays full flood cost; the client keeps the
    best (deduplicated) result set.
    """

    timeout: float = 5.0
    max_retries: int = 2
    backoff: float = 2.0
    ceiling: float = 300.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if math.isnan(self.ceiling) or self.ceiling < self.timeout:
            raise ValueError(
                f"ceiling must be >= timeout ({self.timeout}), "
                f"got {self.ceiling}"
            )

    def wait_before(self, attempt: int) -> float:
        """Seconds waited before retry ``attempt`` (0-based), capped.

        The naive ``timeout * backoff**attempt`` overflows a float for
        pathological attempt counts (``2.0**1024`` raises
        ``OverflowError``), so the exponent is clamped *before*
        exponentiating: once ``backoff**attempt`` provably exceeds
        ``ceiling / timeout`` the wait is exactly ``ceiling``.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        if self.backoff == 1.0:
            return min(self.timeout, self.ceiling)
        max_exponent = (
            math.log(self.ceiling / self.timeout) / math.log(self.backoff)
        )
        if attempt >= max_exponent:
            return self.ceiling
        return min(self.timeout * self.backoff ** attempt, self.ceiling)


@dataclass(frozen=True)
class FaultPlan(Codec):
    """A composable bundle of failure modes to inject into a simulation."""

    message_loss: float = 0.0
    crash: CrashSpec | None = None
    partitions: tuple[PartitionWindow, ...] = ()
    blackout: tuple[int, ...] = ()
    slow: SlowSpec | None = None
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        loss = float(self.message_loss)
        if math.isnan(loss):
            raise ValueError("message_loss must not be NaN")
        if loss < 0.0:
            raise ValueError(f"message_loss must be non-negative, got {loss}")
        if loss >= 1.0:
            raise ValueError(
                f"message_loss must be < 1 (a query must be able to leave "
                f"its source), got {loss}"
            )
        dark = tuple(int(c) for c in self.blackout)
        if any(c < 0 for c in dark):
            raise ValueError(f"blackout cluster ids must be non-negative, got {dark}")
        if len(set(dark)) != len(dark):
            raise ValueError(f"blackout names a cluster twice: {dark}")
        object.__setattr__(self, "blackout", tuple(sorted(dark)))
        windows = tuple(self.partitions)
        object.__setattr__(self, "partitions", windows)
        # Two windows that are simultaneously active on an intersecting
        # island would double-cut the same edges, which the runtime
        # cannot attribute; reject at construction with the pair named.
        for i, a in enumerate(windows):
            for b in windows[i + 1:]:
                if a.overlaps(b):
                    raise ValueError(
                        f"overlapping partition windows on a shared island: "
                        f"[{a.start}, {a.end}) x {sorted(set(a.island) & set(b.island))} "
                        f"collides with [{b.start}, {b.end})"
                    )

    @property
    def is_null(self) -> bool:
        """True when the plan injects no faults at all.

        The simulator normalizes a null plan to "no fault layer", which
        is what makes the layer pay-for-what-you-use: a zero-fault run
        is bit-identical to a fault-free run.
        """
        return (
            self.message_loss == 0.0
            and self.crash is None
            and not self.partitions
            and not self.blackout
            and (self.slow is None or self.slow.fraction == 0.0)
        )

    def with_changes(self, **changes) -> "FaultPlan":
        return replace(self, **changes)

    def __or__(self, other: "FaultPlan") -> "FaultPlan":
        """Compose two plans: ``other``'s non-default fields win."""
        if not isinstance(other, FaultPlan):
            return NotImplemented
        merged = {}
        for f in fields(FaultPlan):
            ours, theirs = getattr(self, f.name), getattr(other, f.name)
            merged[f.name] = theirs if theirs != f.default else ours
        return FaultPlan(**merged)

    def describe(self) -> str:
        parts = []
        if self.message_loss:
            parts.append(f"loss={self.message_loss:.3g}/hop")
        if self.crash is not None:
            parts.append(f"crash(recovery~{self.crash.mean_recovery:.0f}s)")
        if self.partitions:
            parts.append(f"{len(self.partitions)} partition window(s)")
        if self.blackout:
            parts.append(f"blackout({len(self.blackout)} cluster(s))")
        if self.slow is not None and self.slow.fraction > 0:
            parts.append(
                f"slow({self.slow.fraction:.0%} of clusters, {self.slow.factor:g}x)"
            )
        if self.retry is not None:
            parts.append(
                f"retry(<= {self.retry.max_retries}, timeout {self.retry.timeout:g}s)"
            )
        return " + ".join(parts) if parts else "no faults"


@dataclass
class FaultOutcome(Codec):
    """Degraded-mode counters a faulty simulation fills in as it runs."""

    queries_attempted: int = 0
    queries_failed: int = 0       # client got no results back
    orphaned_queries: int = 0     # source cluster fully dark at query time
    truncated_floods: int = 0     # queries whose flood lost >= 1 message
    retries: int = 0
    retry_wait_seconds: float = 0.0
    flood_messages_lost: int = 0
    response_messages_lost: float = 0.0
    partner_crashes: int = 0
    partner_recoveries: int = 0
    failovers: int = 0            # crashes absorbed by a surviving partner
    outages: int = 0              # cluster-wide blackouts
    orphaned_client_seconds: float = 0.0
    deferred_joins: int = 0       # client churn during a blackout
    lost_updates: int = 0
    recovery_times: list[float] = field(default_factory=list)
    longest_outage: float = 0.0
    cluster_downtime: np.ndarray | None = None
    flood_messages_attempted: int = 0
    flood_messages_delivered: int = 0
    # --- recovery-subsystem counters (all zero when recovery is off) ---------
    detections: int = 0           # confirmed partner-failure detections
    false_suspicions: int = 0     # detector false positives (probe cost only)
    detection_lags: list[float] = field(default_factory=list)
    promotions: int = 0           # clients promoted into dead partner slots
    rehome_events: int = 0        # dark clusters whose clients were re-homed
    rehomed_clients: int = 0
    links_healed: int = 0         # redundant overlay links added mid-partition
    links_restored: int = 0       # heal links torn down after windows closed
    repair_messages: int = 0
    repair_bytes: float = 0.0
    repair_units: float = 0.0
    permanently_orphaned_clients: int = 0
    overlay_restored: bool = True
    repair_cluster_bytes_in: np.ndarray | None = None
    repair_cluster_bytes_out: np.ndarray | None = None
    repair_cluster_units: np.ndarray | None = None
    # --- gossip-membership counters (all zero under the oracle detector) -----
    gossip_rumors_sent: int = 0   # reports + refutations + digests sent
    gossip_suspicions: int = 0    # suspicion timers that fired (true + false)
    gossip_refutations: int = 0   # live slots cleared by incarnation bump
    gossip_declarations: int = 0  # dead declarations (m-of-n or escalation)
    gossip_messages: int = 0      # discrete control messages (excl. digests)
    gossip_bytes: float = 0.0     # total membership-protocol bytes
    gossip_units: float = 0.0     # total membership-protocol processing
    stale_view_entries: int = 0   # live slots wrongly non-ALIVE at end of run
    gossip_cluster_bytes_in: np.ndarray | None = None
    gossip_cluster_bytes_out: np.ndarray | None = None
    gossip_cluster_units: np.ndarray | None = None

    @property
    def query_success_rate(self) -> float:
        """Fraction of attempted queries whose user got >= 1 result."""
        if self.queries_attempted == 0:
            return 1.0
        return 1.0 - self.queries_failed / self.queries_attempted

    @property
    def mean_time_to_recover(self) -> float:
        """Mean cluster-blackout length among recovered outages, seconds."""
        if not self.recovery_times:
            return 0.0
        return float(np.mean(self.recovery_times))

    @property
    def mean_detection_lag(self) -> float:
        """Mean crash -> confirmed-detection delay, seconds."""
        if not self.detection_lags:
            return 0.0
        return float(np.mean(self.detection_lags))

    @property
    def repair_cost(self) -> float:
        """Total repair traffic in bytes (the headline recovery price)."""
        return self.repair_bytes


@dataclass(frozen=True)
class FloodStats:
    """Delivery accounting of one sampled flood."""

    attempted: int
    delivered: int

    @property
    def lost(self) -> int:
        return self.attempted - self.delivered


class FaultRuntime:
    """Live fault state bound to one simulation run.

    Tracks which partner slots are up, answers per-hop delivery checks,
    schedules crash/recovery events on the simulator, and accumulates
    the :class:`FaultOutcome` counters.
    """

    def __init__(self, plan, instance, rng, metrics=None, tracer=None) -> None:
        self.plan = plan
        self.instance = instance
        self.rng = rng
        self.metrics = metrics if metrics is not None else FaultOutcome()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        registry = get_registry()
        self._m_crashes = registry.counter("sim.partner_crashes")
        self._m_recoveries = registry.counter("sim.partner_recoveries")
        self._m_outages = registry.counter("sim.cluster_outages")
        n = instance.num_clusters
        k = instance.partners
        self.n = n
        self.k = k
        self.up = np.ones((n, k), dtype=bool)
        self.live = np.full(n, k, dtype=np.int64)
        self.slow_drop = np.zeros(n)
        if plan.slow is not None and plan.slow.fraction > 0:
            count = int(round(plan.slow.fraction * n))
            if count > 0:
                slow_ids = rng.choice(n, size=min(count, n), replace=False)
                self.slow_drop[slow_ids] = plan.slow.drop_prob
        self._has_slow = bool(self.slow_drop.any())
        self._islands = []
        for window in plan.partitions:
            mask = np.zeros(n, dtype=bool)
            ids = np.asarray(window.island, dtype=np.int64)
            if ids.min(initial=0) < 0 or ids.max(initial=0) >= n:
                raise ValueError("partition island names an unknown cluster")
            mask[ids] = True
            self._islands.append((window.start, window.end, mask))
        self._outage_started = np.full(n, -1.0)
        self._downtime = np.zeros(n)
        if plan.blackout:
            dark = np.asarray(plan.blackout, dtype=np.int64)
            if dark.max(initial=0) >= n:
                raise ValueError(
                    f"blackout names cluster {int(dark.max())} but the "
                    f"instance has only {n} clusters"
                )
            # Dark from t=0 with no recovery scheduled: the whole run is
            # one open outage per cluster, closed by finish() so downtime
            # and orphaned-client-seconds cover the full duration.
            self.up[dark, :] = False
            self.live[dark] = 0
            self._outage_started[dark] = 0.0
            self.metrics.outages += len(plan.blackout)
            self._m_outages.add(len(plan.blackout))
        self.sim = None
        self._on_recovery = None
        # Mutable per-cluster client population.  Starts as the static
        # roster; the recovery layer moves counts between clusters when
        # it re-homes orphans, so orphan-seconds accounting follows the
        # clients.  With recovery off this never diverges from
        # ``instance.clients`` and the arithmetic is bit-identical.
        self.cluster_clients = instance.clients.astype(np.int64).copy()
        #: Optional crash/recover observer (the failure detector).
        self.listener = None
        #: Recovery runtime, when self-healing is enabled.
        self.recovery = None
        #: Gossip membership detector, when the control plane is
        #: decentralized (the network layer piggybacks digests on it).
        self.gossip = None
        self._pending_recover: dict[tuple[int, int], object] = {}

    # --- crash/recovery schedule ---------------------------------------------

    def install(self, sim, on_recovery) -> None:
        """Bind to a simulator and start the crash processes (if any).

        ``on_recovery(cluster, partner)`` is called when a replacement
        partner comes up, so the network layer can charge the index
        rebuild (handshakes + metadata exchange).
        """
        self.sim = sim
        self._on_recovery = on_recovery
        if self.plan.crash is None:
            return
        for c in range(self.n):
            for p in range(self.k):
                # Blacked-out slots start down with no recovery pending;
                # they get a crash clock only if something revives them.
                if self.up[c, p]:
                    self._schedule_crash(c, p)

    def _schedule_crash(self, cluster: int, partner: int) -> None:
        mean = (
            float(self.instance.partner_lifespans[cluster, partner])
            * self.plan.crash.lifespan_scale
        )
        self.sim.schedule(float(self.rng.exponential(mean)), self._crash,
                          cluster, partner)

    def _crash(self, cluster: int, partner: int) -> None:
        self.up[cluster, partner] = False
        self.live[cluster] -= 1
        self.metrics.partner_crashes += 1
        self._m_crashes.add()
        if self.tracer.enabled:
            self.tracer.emit("crash", self.sim.now, cluster=cluster,
                             partner=partner, live=int(self.live[cluster]))
        if self.live[cluster] == 0:
            self.metrics.outages += 1
            self._m_outages.add()
            self._outage_started[cluster] = self.sim.now
        else:
            # Surviving partners absorb the crashed slot's clients: the
            # connections are already open under k-redundancy, so the
            # failover itself is free — the cluster's load is simply
            # shared by the live partners from now on.
            self.metrics.failovers += 1
        if self.listener is not None:
            self.listener.on_crash(cluster, partner, self.sim.now)
        gap = float(self.rng.exponential(self.plan.crash.mean_recovery))
        handle = self.sim.schedule(gap, self._recover, cluster, partner)
        self._pending_recover[(cluster, partner)] = handle

    def _recover(self, cluster: int, partner: int) -> None:
        self._pending_recover.pop((cluster, partner), None)
        if self.live[cluster] == 0:
            self._close_outage(cluster, self.sim.now)
        self.up[cluster, partner] = True
        self.live[cluster] += 1
        self.metrics.partner_recoveries += 1
        self._m_recoveries.add()
        if self.tracer.enabled:
            self.tracer.emit("recover", self.sim.now, cluster=cluster,
                             partner=partner, live=int(self.live[cluster]))
        if self.listener is not None:
            self.listener.on_recover(cluster, partner, self.sim.now)
        if self._on_recovery is not None:
            self._on_recovery(cluster, partner)
        self._schedule_crash(cluster, partner)

    def revive(self, cluster: int, partner: int) -> None:
        """Bring a dead slot up *outside* the natural recovery schedule.

        This is the promotion path: a client has been promoted into the
        slot, so the pending scripted recovery is cancelled (the slot is
        no longer waiting for its old host to reboot) and a fresh crash
        clock starts for the new incumbent.  Cost accounting is the
        caller's job; this only flips the availability state.
        """
        if self.up[cluster, partner]:
            raise RuntimeError("revive() called on a live partner slot")
        handle = self._pending_recover.pop((cluster, partner), None)
        if handle is not None:
            handle.cancel()
        if self.live[cluster] == 0:
            self._close_outage(cluster, self.sim.now)
        self.up[cluster, partner] = True
        self.live[cluster] += 1
        if self.listener is not None:
            # The detector closes its books on the slot (the oracle's
            # pending confirmation was already consumed; the gossip
            # detector bumps the incarnation so stale DEAD rumors about
            # the slot are out-versioned).
            self.listener.on_recover(cluster, partner, self.sim.now)
        if self.plan.crash is not None:
            self._schedule_crash(cluster, partner)

    def _close_outage(self, cluster: int, end_time: float) -> None:
        started = self._outage_started[cluster]
        if started < 0:
            return
        length = end_time - started
        self._downtime[cluster] += length
        self.metrics.recovery_times.append(length)
        self.metrics.longest_outage = max(self.metrics.longest_outage, length)
        if self.tracer.enabled:
            self.tracer.emit("outage-end", end_time, cluster=cluster,
                             length=length)
        clients = int(self.cluster_clients[cluster])
        self.metrics.orphaned_client_seconds += clients * length
        self._outage_started[cluster] = -1.0

    def finish(self, end_time: float) -> FaultOutcome:
        """Close open outages at the end of the run and seal the metrics."""
        for c in np.nonzero(self._outage_started >= 0)[0]:
            # Still dark at the end: counts toward downtime/orphaning but
            # not toward time-to-recover (the cluster never recovered).
            started = self._outage_started[c]
            length = end_time - started
            self._downtime[c] += length
            self.metrics.longest_outage = max(self.metrics.longest_outage, length)
            self.metrics.orphaned_client_seconds += (
                int(self.cluster_clients[c]) * length
            )
            self._outage_started[c] = -1.0
        self.metrics.cluster_downtime = self._downtime.copy()
        return self.metrics

    # --- per-hop delivery checks ---------------------------------------------

    def edge_cut(self, senders: np.ndarray, targets: np.ndarray,
                 now: float) -> np.ndarray | None:
        """Mask of (sender, target) hops severed by an active partition."""
        cut = None
        for start, end, island in self._islands:
            if start <= now < end:
                crossing = island[senders] != island[targets]
                cut = crossing if cut is None else (cut | crossing)
        return cut

    def alive_mask(self) -> np.ndarray:
        """Clusters with at least one live partner."""
        return self.live > 0


def sampled_propagation(
    graph, source: int, ttl: int, runtime: FaultRuntime, now: float
) -> tuple[QueryPropagation, FloodStats]:
    """BFS flood with per-hop delivery sampling under a fault runtime.

    A one-row :func:`~repro.core.routing.flood_block` whose ``deliver``
    hook subjects each overlay message to the fault plan: dark clusters
    receive nothing (and never forward — floods truncate around them),
    partitioned hops are severed, and random loss / slow-node deadline
    misses drop messages with their configured probabilities (one
    uniform per message, drawn hop by hop from the runtime's fault
    stream).  Senders pay for every attempted transmission; receipts
    count only deliveries.
    """
    alive = runtime.alive_mask()
    if not alive[source]:
        prop = QueryPropagation.empty(graph.num_nodes, source, ttl)
        return prop, FloodStats(attempted=0, delivered=0)
    loss = runtime.plan.message_loss
    # Per-sender delivery probability, or None when nothing is sampled.
    p_deliver = None
    if loss > 0.0 or runtime._has_slow:
        p_deliver = (1.0 - loss) * (1.0 - runtime.slow_drop)

    def deliver(senders, heads):
        ok = alive[heads]
        cut = runtime.edge_cut(senders, heads, now)
        if cut is not None:
            ok &= ~cut
        if p_deliver is not None:
            ok &= runtime.rng.random(senders.size) < p_deliver[senders]
        return ok

    prop = flood_block(graph, [source], ttl, deliver).row(0)
    stats = FloodStats(attempted=int(prop.transmissions.sum()),
                       delivered=int(prop.receipts.sum()))
    return prop, stats


def sample_response_edges(prop: QueryPropagation, runtime: FaultRuntime,
                          now: float, read: bool = True) -> np.ndarray | None:
    """Sample, per reached node, whether its upward response hop delivers.

    The response burst from node ``v``'s subtree crosses the tree edge
    ``v -> pred[v]`` together (within the same delivery window), so the
    edge is sampled once and shared by everything ``v`` forwards.
    Returns a boolean ``edge_pass`` array; False severs the subtree's
    responses at that hop (they are still *sent* by ``v`` — the sender
    pays — but nothing above ``v`` receives them).  When nothing will
    read the mask (``read`` False), only its uniforms are drawn, so the
    fault stream is the same, and None is returned.
    """
    nodes = prop.others
    loss = runtime.plan.message_loss
    sampled = loss > 0.0 or runtime._has_slow
    if not read:
        if sampled:
            runtime.rng.random(nodes.size)
        return None
    edge_pass = np.zeros(prop.depth.size, dtype=bool)
    if nodes.size == 0:
        return edge_pass
    preds = prop.pred[nodes]
    ok = np.ones(nodes.size, dtype=bool)
    if sampled:
        p_deliver = (1.0 - loss) * (1.0 - runtime.slow_drop[nodes])
        ok &= runtime.rng.random(nodes.size) < p_deliver
    cut = runtime.edge_cut(nodes, preds, now)
    if cut is not None:
        ok &= ~cut
    edge_pass[nodes] = ok
    return edge_pass


def lossy_accumulate(
    prop: QueryPropagation,
    edge_pass: np.ndarray | None,
    channels: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Fold response weights toward the source across surviving hops.

    For each channel (messages / addresses / result records) returns
    ``(sent, received)`` rows where ``sent[v]`` is what ``v`` transmits
    toward its predecessor (charged to ``v`` whether or not the hop
    delivers) and ``received[v]`` is what actually arrives at ``v`` from
    its subtree children.  ``received[source]`` is the query's delivered
    response volume.  The fold is :func:`~repro.core.routing.fold_to_sources`
    with ``edge_pass`` (None: every hop delivers); ``received = sent -
    weights`` is exact for the integer-valued weights the simulator passes.
    """
    weights = np.array(channels, dtype=float)
    if edge_pass is not None:
        edge_pass = edge_pass[np.newaxis]
    sent = fold_to_sources(prop.levels, prop.pred[np.newaxis],
                           weights[:, np.newaxis].copy(), edge_pass)[:, 0]
    return sent, sent - weights
