"""Self-healing overlay: the paper's Section 5.3 local rules at runtime.

PR 1's fault layer makes the network degrade; this module makes it
*repair itself*.  A :class:`RecoveryPolicy` encodes the three local
adaptation rules of Section 5.3 as automated reactions to confirmed
failure detections (:mod:`repro.sim.monitor`):

* **partner promotion** — a dead partner slot in a k-redundant virtual
  super-peer is refilled by promoting the best-provisioned client of
  the cluster (largest collection, the "well-provisioned node" rule of
  thumb); the promoted client's seat is backfilled by a fresh client so
  the population stays stable.  Promotion restores redundancy after a
  failover and restores *service* after a full blackout.
* **client re-homing** — when a cluster is dark and promotion is off
  (or there is nobody to promote), its orphaned clients re-home to
  surviving super-peers chosen under the cluster-size/outdegree rules
  of thumb: prefer overlay neighbours, then fill the smallest clusters
  first, tie-breaking toward higher outdegree.
* **partition healing** — while a :class:`~repro.sim.faults.PartitionWindow`
  is open, each side of the cut re-wires redundant overlay links so the
  fragments it shattered into reconnect; the links are torn down when
  the window closes and the original overlay resumes.  This is the one
  place the simulation's topology object changes mid-run.

Every repair action is charged through the existing cost model — the
same handshake, join-message and open-connection constants the
fault-free churn path uses — so recovery load lands on the simulation
meters, in the :class:`~repro.sim.faults.FaultOutcome` repair counters,
and (via :func:`repair_attribution`) in ``LoadAttribution`` hotspot
reports under the ``"repair"`` action.

All recovery randomness draws from a dedicated stream
(``derive_rng(seed, "sim", "recovery")``); with recovery disabled not a
single draw happens, so a recovery-off run is bit-identical to PR 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import costs
from ..querymodel.files import default_file_distribution
from ..topology.strong import CompleteGraph
from .gossip import GossipDetector
from .monitor import DetectorSpec, FailureDetector

__all__ = ["RecoveryPolicy", "RecoveryRuntime", "repair_attribution"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Which Section 5.3 repairs run, and how fast.

    ``promotion_time`` / ``rehome_time`` are the repair latencies after
    a confirmed detection (boot + index rebuild for a promotion,
    connection setup for a re-home), so time-to-recover is bounded by
    ``detector.max_lag + promotion_time`` for any cluster with at least
    one client to promote.
    """

    detector: DetectorSpec = DetectorSpec()
    promote: bool = True
    rehome: bool = True
    heal_partitions: bool = True
    promotion_time: float = 10.0
    rehome_time: float = 2.0

    def __post_init__(self) -> None:
        if math.isnan(self.promotion_time) or self.promotion_time < 0:
            raise ValueError("promotion_time must be non-negative")
        if math.isnan(self.rehome_time) or self.rehome_time < 0:
            raise ValueError("rehome_time must be non-negative")

    def describe(self) -> str:
        parts = []
        if self.promote:
            parts.append(f"promote(+{self.promotion_time:g}s)")
        if self.rehome:
            parts.append(f"rehome(+{self.rehome_time:g}s)")
        if self.heal_partitions:
            parts.append("heal")
        rules = "+".join(parts) if parts else "detect-only"
        return (
            f"detect(<= {self.detector.max_lag:g}s) -> {rules}"
        )

    def to_dict(self) -> dict:
        return {
            "detector": self.detector.to_dict(),
            "promote": self.promote,
            "rehome": self.rehome,
            "heal_partitions": self.heal_partitions,
            "promotion_time": self.promotion_time,
            "rehome_time": self.rehome_time,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RecoveryPolicy":
        kwargs = dict(payload)
        kwargs["detector"] = DetectorSpec.from_dict(
            kwargs.get("detector", {})
        )
        return cls(**kwargs)


class RecoveryRuntime:
    """Live recovery state bound to one simulation run.

    Receives confirmed detections from the :class:`FailureDetector`,
    executes the policy's repairs against the mutable simulation state,
    and accounts every repair's cost on the simulation meters plus the
    :class:`~repro.sim.faults.FaultOutcome` repair counters.
    """

    def __init__(self, policy: RecoveryPolicy, state, runtime, rng) -> None:
        self.policy = policy
        self.st = state
        self.rt = runtime
        self.rng = rng
        self.outcome = runtime.metrics
        self.sim = None
        #: True once any client has re-homed — flips the network layer's
        #: cluster-match aggregation from the static CSR fast path to
        #: membership-aware bincounts.
        self.rehomed_any = False
        n = state.n
        # Per-cluster repair traffic in raw engine units (per-partner
        # means, the meter convention) — the LoadAttribution feed.
        self._rep_in = np.zeros(n)
        self._rep_out = np.zeros(n)
        self._rep_units = np.zeros(n)
        self._base_graph = None
        self._heal_edges: dict[int, list[tuple[int, int]]] = {}
        if policy.detector.mode == "gossip":
            self.detector = GossipDetector(
                policy.detector, state, runtime, rng,
                on_confirmed=self._on_confirmed,
            )
        else:
            self.detector = FailureDetector(
                policy.detector, runtime, rng,
                on_confirmed=self._on_confirmed,
                on_false_positive=self._on_false_positive,
            )
        runtime.recovery = self

    def install(self, sim) -> None:
        """Bind to the simulator: start detection and healing triggers."""
        self.sim = sim
        self.detector.install(sim)
        if self.policy.heal_partitions:
            spec = self.policy.detector
            for index, (start, end, _mask) in enumerate(self.rt._islands):
                # A partition is detected like a crash: the boundary
                # neighbours time out, one heartbeat phase later.
                lag = spec.min_lag + float(
                    self.rng.uniform(0.0, spec.probe_period)
                )
                if start + lag < end:
                    sim.schedule_at(start + lag, self._heal_partition, index)
                sim.schedule_at(end, self._restore_partition, index)

    # --- detector callbacks ---------------------------------------------------

    def _on_confirmed(self, cluster: int, partner: int) -> None:
        """A partner failure was confirmed: pick the local repair rule."""
        if self.rt.live[cluster] > 0:
            # Failover already absorbed the clients; promotion (if on)
            # restores the lost redundancy.
            if self.policy.promote:
                self.sim.schedule(self.policy.promotion_time,
                                  self._promote, cluster, partner)
            return
        if self.policy.promote:
            self.sim.schedule(self.policy.promotion_time,
                              self._promote, cluster, partner)
        elif self.policy.rehome:
            self.sim.schedule(self.policy.rehome_time, self._rehome, cluster)

    def _on_false_positive(self, cluster: int, partner: int) -> None:
        """A live partner was wrongly suspected: pay the verification probe."""
        st = self.st
        hs_bytes, hs_units = costs.handshake(0.0)
        self._charge_sp(
            cluster,
            in_bytes=hs_bytes / st.k,
            out_bytes=hs_bytes / st.k,
            units=hs_units / st.k,
            messages=2,
        )

    # --- repairs --------------------------------------------------------------

    def _promote(self, cluster: int, partner: int) -> None:
        """Promote the best-provisioned client into a dead partner slot."""
        rt, st = self.rt, self.st
        if rt.up[cluster, partner]:
            return  # the natural recovery won the race
        roster = np.nonzero(st.cluster_of_client == cluster)[0]
        if roster.size == 0:
            # Nobody to promote; fall back to re-homing (a no-op for a
            # clientless cluster, but covers promote-preferred policies).
            if self.policy.rehome and rt.live[cluster] == 0:
                self._rehome(cluster)
            return
        best = int(roster[np.argmax(st.client_files[roster])])
        promoted_files = int(st.client_files[best])
        # The promoted client's seat is backfilled by a fresh client
        # (stable population); its collection comes from the recovery
        # stream, never the shared workload stream.
        st.client_files[best] = int(
            default_file_distribution().sample(self.rng, 1)[0]
        )
        st.partner_files[cluster, partner] = promoted_files

        # 1) The new partner opens every connection of the slot.
        m = float(st.m_sp[cluster])
        hs_bytes, hs_units = costs.handshake(m)
        self._charge_sp(
            cluster,
            in_bytes=hs_bytes * m / st.k,
            out_bytes=hs_bytes * m / st.k,
            units=m * hs_units / st.k,
            messages=int(2 * m),
        )
        # 2) Index rebuild: every client of the cluster re-uploads its
        #    metadata to the new partner (the backfilled seat included).
        files = st.client_files[roster].astype(float)
        join_bytes, join_units = costs.send_join(files, st.m_cl)
        st.cl_out[roster] += join_bytes
        st.cl_proc[roster] += join_units
        self._count_client_repair(
            bytes_total=float(join_bytes.sum()),
            units_total=float(join_units.sum()),
            messages=int(roster.size),
        )
        self._charge_sp(
            cluster,
            in_bytes=float(join_bytes.sum()) / st.k,
            units=costs.reindex_units(roster.size, float(files.sum()), m) / st.k,
            messages=int(roster.size),
        )
        # 3) k > 1: exchange indexes with the surviving fellows.
        fellows = int(rt.live[cluster])
        if fellows > 0:
            own_join, units = costs.exchange_join(promoted_files, m)
            self._charge_sp(
                cluster,
                in_bytes=fellows * own_join / st.k,
                out_bytes=fellows * own_join / st.k,
                units=fellows * units / st.k,
                messages=2 * fellows,
            )
        rt.revive(cluster, partner)
        self.outcome.promotions += 1
        if st.tracer.enabled:
            st.tracer.emit("promote", self.sim.now, cluster=cluster,
                           partner=partner, client=best,
                           files=promoted_files)

    def _rehome(self, cluster: int) -> None:
        """Move a dark cluster's orphaned clients to surviving super-peers."""
        rt, st = self.rt, self.st
        if rt.live[cluster] > 0:
            return  # the cluster recovered before the repair fired
        movers = np.nonzero(st.cluster_of_client == cluster)[0]
        if movers.size == 0:
            return
        candidates = self._eligible_targets(cluster)
        if candidates.size == 0:
            # Everything reachable is dark too; keep probing each beat
            # until a target appears or the cluster recovers.
            self.sim.schedule(self.policy.detector.probe_period,
                              self._rehome, cluster)
            return
        # Rules of thumb (Section 5.3): fill the smallest surviving
        # cluster first, tie-breaking toward higher outdegree (a
        # well-connected super-peer amortizes its clients best), then
        # lowest id for determinism.
        degrees = self._outdegrees()
        population = rt.cluster_clients[candidates].astype(np.int64).copy()
        order_deg = degrees[candidates]
        now = self.sim.now
        started = rt._outage_started[cluster]
        if started >= 0:
            rt.metrics.orphaned_client_seconds += movers.size * (now - started)
        assigned = np.empty(movers.size, dtype=np.int64)
        for i in range(movers.size):
            best = int(np.lexsort((candidates, -order_deg, population))[0])
            assigned[i] = candidates[best]
            population[best] += 1
        # Re-point membership and connection counts.
        st.cluster_of_client[movers] = assigned
        counts = np.bincount(assigned, minlength=st.n)
        rt.cluster_clients[cluster] -= movers.size
        rt.cluster_clients += counts
        st.m_sp[cluster] = max(0.0, float(st.m_sp[cluster]) - movers.size)
        st.m_sp += counts.astype(float)
        # Each mover joins its new home like a fresh client: metadata to
        # every live partner there.
        for idx, target in zip(movers, assigned):
            target = int(target)
            lv = int(rt.live[target])
            f = float(st.client_files[idx])
            join_bytes, send_units = costs.send_join(f, st.m_cl)
            st.cl_out[idx] += lv * join_bytes
            st.cl_proc[idx] += lv * send_units
            self._count_client_repair(
                bytes_total=lv * join_bytes,
                units_total=lv * send_units,
                messages=lv,
            )
            self._charge_sp(
                target,
                in_bytes=join_bytes,
                units=costs.recv_index_join(f, float(st.m_sp[target]))[1],
                messages=lv,
            )
        self.rehomed_any = True
        self.outcome.rehome_events += 1
        self.outcome.rehomed_clients += int(movers.size)
        if st.tracer.enabled:
            st.tracer.emit("rehome", now, cluster=cluster,
                           moved=int(movers.size),
                           targets=sorted({int(t) for t in assigned}))

    def _eligible_targets(self, cluster: int) -> np.ndarray:
        """Alive clusters a client of ``cluster`` can reach right now.

        Respects active partitions (no crossing the cut) and prefers
        overlay neighbours of the dark cluster when any survive.
        """
        rt = self.rt
        mask = rt.alive_mask().copy()
        mask[cluster] = False
        now = self.sim.now
        for start, end, island in rt._islands:
            if start <= now < end:
                mask &= island if island[cluster] else ~island
        candidates = np.nonzero(mask)[0]
        if candidates.size == 0:
            return candidates
        graph = self._materialized()
        neighbours = graph.neighbors(cluster)
        near = candidates[np.isin(candidates, neighbours)]
        return near if near.size else candidates

    # --- partition healing ----------------------------------------------------

    def _heal_partition(self, index: int) -> None:
        """Re-wire redundant links so each side of an open cut reconnects."""
        rt, st = self.rt, self.st
        start, end, island = rt._islands[index]
        now = self.sim.now
        if not (start <= now < end):
            return
        graph = self._current_graph()
        alive = rt.alive_mask()
        added: list[tuple[int, int]] = []
        for side in (island, ~island):
            live_side = side & alive
            if int(live_side.sum()) <= 1:
                continue
            fragments = graph.subgraph_components(live_side)
            if len(fragments) <= 1:
                continue
            # Chain the fragments through their best-connected nodes
            # (argmax breaks ties toward the lowest id — deterministic).
            reps = [
                int(frag[np.argmax(graph.degrees[frag])])
                for frag in fragments
            ]
            added.extend(zip(reps, reps[1:]))
        if not added:
            return
        self._heal_edges[index] = added
        self._rebuild_graph()
        for u, v in added:
            # Each endpoint's k partners open connections to the k
            # partners across the new link.
            for c in (u, v):
                hs_bytes, hs_units = costs.handshake(float(st.m_sp[c]))
                self._charge_sp(
                    c,
                    in_bytes=hs_bytes * st.k / st.k,
                    out_bytes=hs_bytes * st.k / st.k,
                    units=st.k * hs_units / st.k,
                    messages=2 * st.k,
                )
                st.m_sp[c] += st.k
        self.outcome.links_healed += len(added)
        if st.tracer.enabled:
            st.tracer.emit("heal", now, window=index,
                           links=[[int(u), int(v)] for u, v in added])

    def _restore_partition(self, index: int) -> None:
        """Tear the redundant links down once the cut closes."""
        edges = self._heal_edges.pop(index, None)
        if edges is None:
            return
        self._rebuild_graph()
        for u, v in edges:
            self.st.m_sp[u] -= self.st.k
            self.st.m_sp[v] -= self.st.k
        self.outcome.links_restored += len(edges)
        if self.st.tracer.enabled:
            self.st.tracer.emit("heal-restore", self.sim.now, window=index,
                                links=len(edges))

    def _rebuild_graph(self) -> None:
        active = [edge for edges in self._heal_edges.values() for edge in edges]
        if active:
            self.st.graph = self._materialized().augment(active)
        else:
            # Identity restored: the simulation is back on the pristine
            # overlay object (the invariant suite checks this).
            self.st.graph = self.st.instance.graph

    def _materialized(self):
        """The pristine overlay as an explicit CSR graph (cached)."""
        if self._base_graph is None:
            graph = self.st.instance.graph
            if isinstance(graph, CompleteGraph):
                graph = graph.materialize()
            self._base_graph = graph
        return self._base_graph

    def _current_graph(self):
        graph = self.st.graph
        if isinstance(graph, CompleteGraph):
            graph = self._materialized()
        return graph

    # --- cost plumbing --------------------------------------------------------

    def _charge_sp(self, cluster: int, in_bytes: float = 0.0,
                   out_bytes: float = 0.0, units: float = 0.0,
                   messages: int = 0) -> None:
        """Charge repair traffic to a cluster's per-partner meters.

        Amounts follow the meter convention (per-partner means); the
        outcome totals scale back to whole-cluster units.
        """
        st = self.st
        st.sp_in[cluster] += in_bytes
        st.sp_out[cluster] += out_bytes
        st.sp_proc[cluster] += units
        self._rep_in[cluster] += in_bytes
        self._rep_out[cluster] += out_bytes
        self._rep_units[cluster] += units
        out = self.outcome
        out.repair_bytes += (in_bytes + out_bytes) * st.k
        out.repair_units += units * st.k
        out.repair_messages += messages

    def _count_client_repair(self, bytes_total: float, units_total: float,
                             messages: int) -> None:
        """Fold client-side repair traffic into the outcome totals."""
        out = self.outcome
        out.repair_bytes += bytes_total
        out.repair_units += units_total
        out.repair_messages += messages

    def _outdegrees(self) -> np.ndarray:
        graph = self._materialized()
        return np.asarray(graph.degrees, dtype=np.int64)

    # --- end of run -----------------------------------------------------------

    def finish(self, duration: float) -> None:
        """Seal the recovery fields of the outcome (call before the
        fault runtime's own ``finish``, which resets outage state)."""
        rt = self.rt
        out = self.outcome
        # "Orphaned forever": clients still attached to a dark cluster
        # whose outage is older than one full repair cycle.  Outages
        # younger than the grace window simply have repairs in flight.
        policy = self.policy
        grace = (
            policy.detector.max_lag
            + max(policy.promotion_time, policy.rehome_time)
            + policy.detector.probe_period
        )
        dark = np.nonzero(~rt.alive_mask())[0]
        for c in dark:
            started = rt._outage_started[c]
            if started < 0 or duration - started <= grace:
                continue
            out.permanently_orphaned_clients += int(rt.cluster_clients[c])
        out.overlay_restored = (
            not self._heal_edges
            and self.st.graph is self.st.instance.graph
        )
        out.repair_cluster_bytes_in = self._rep_in.copy()
        out.repair_cluster_bytes_out = self._rep_out.copy()
        out.repair_cluster_units = self._rep_units.copy()
        if isinstance(self.detector, GossipDetector):
            self.detector.finish(duration)


def repair_attribution(instance, outcome, duration: float, attribution=None):
    """Expose an outcome's repair traffic as a ``LoadAttribution``.

    Returns an attribution (bound to ``instance``) whose ``"repair"``
    action carries the per-partner repair rates, so recovery load shows
    up in the same hotspot reports as query/join/update load.  Pass an
    existing bound ``attribution`` to add the repair tables to it.
    """
    from ..obs.attribution import LoadAttribution

    if outcome.repair_cluster_bytes_in is None:
        raise ValueError(
            "outcome has no repair tables; run with a RecoveryPolicy first"
        )
    if attribution is None:
        attribution = LoadAttribution().bind(instance)
    attribution.add("p", "repair", "in_bw",
                    outcome.repair_cluster_bytes_in / duration)
    attribution.add("p", "repair", "out_bw",
                    outcome.repair_cluster_bytes_out / duration)
    attribution.add("p", "repair", "proc",
                    outcome.repair_cluster_units / duration)
    return attribution
