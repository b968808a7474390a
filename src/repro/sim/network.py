"""Message-level simulation of a super-peer network instance.

Where the mean-value analysis (``repro.core.load``) charges *expected*
costs, this simulator samples the actual randomness: Poisson query /
update arrivals, lifespan-driven churn with live index mutation, sampled
query classes (from g) and sampled per-collection match outcomes (from
f), and k-redundant partners sharing their cluster's load (round-robin
partner selection, charged at its long-run average of 1/k per partner).

Arrival processes run on the discrete-event engine; each query is then
accounted synchronously along its BFS flood and reverse-path responses
(message costs do not depend on delivery timing, so collapsing a query's
message exchange into its arrival event keeps the event count linear in
the number of actions without changing any measured load).

The headline use is validation: on the same instance, the long-run
average loads measured here must converge to the MVA's expectations —
``tests/test_sim_vs_mva.py`` holds that contract.

Fault injection (``repro.sim.faults``) threads through the same query
function, :func:`_run_query`: under a
:class:`~repro.sim.faults.FaultPlan`, every overlay hop is individually
checked for delivery, dark clusters truncate floods, the originating
super-peer retries lossy queries with bounded backoff, and partner
crash/recovery replaces the instantaneous-churn model.  The fault layer
is pay-for-what-you-use: with no plan (or a null plan) there is no fault
runtime, the query function takes its fault-free branches and draws the
exact same RNG stream, so results are bit-identical to a run without
the layer.  Degraded-mode metrics land in a
:class:`~repro.sim.faults.FaultOutcome`; the measurement harness around
this is :mod:`repro.sim.resilience`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import Codec
from ..core import costs
from ..core.load import NodeLoads
from ..obs.metrics import get_registry
from ..obs.trace import NULL_TRACER, Tracer
from ..core.routing import QueryPropagation, propagate_query
from ..querymodel.distributions import QueryModel, default_query_model
from ..querymodel.files import default_file_distribution
from ..stats.rng import derive_rng
from ..topology.builder import NetworkInstance
from ..units import bytes_per_second_to_bps, units_per_second_to_hz
from .engine import Simulator
from .faults import (
    FaultOutcome,
    FaultPlan,
    FaultRuntime,
    lossy_accumulate,
    sample_response_edges,
    sampled_propagation,
)
from .recovery import RecoveryPolicy, RecoveryRuntime
from .schedule import (
    KIND_CLIENT_CHURN,
    KIND_PARTNER_CHURN,
    KIND_QUERY,
    KIND_UPDATE,
    WorkloadSchedule,
    generate_workload,
)

_FLOOD_MEMO_CELLS = 1 << 21  # node entries of memoised floods per run (~64 MB)


@dataclass(frozen=True)
class SimulationReport(NodeLoads, Codec):
    """Measured long-run loads of one simulated instance (Eq. 3-4
    summaries from :class:`~repro.core.load.NodeLoads`)."""

    duration: float
    num_queries: int
    num_joins: int
    num_updates: int
    partners: int                        # k, partners per cluster

    superpeer_incoming_bps: np.ndarray   # (n,) mean per partner
    superpeer_outgoing_bps: np.ndarray
    superpeer_processing_hz: np.ndarray
    client_incoming_bps: np.ndarray      # flat over clients
    client_outgoing_bps: np.ndarray
    client_processing_hz: np.ndarray

    mean_results_per_query: float
    mean_reach_clusters: float


class _State:
    """Mutable simulation state: who holds which files, live meters."""

    def __init__(self, instance: NetworkInstance, model: QueryModel,
                 rng: np.random.Generator) -> None:
        self.instance = instance
        self.model = model
        self.rng = rng
        self.n = instance.num_clusters
        self.k = instance.partners
        # Mutable copies: churn replaces peers (and their collections).
        # One row for every peer, clients then partners; views below.
        self.peer_files = np.concatenate(
            [instance.client_files, instance.partner_files.ravel()]
        ).astype(np.int64)
        self.cluster_of_peer = np.concatenate(
            [np.repeat(np.arange(self.n), instance.clients),
             np.repeat(np.arange(self.n), self.k)])
        c = instance.total_clients
        self.client_files = self.peer_files[:c]
        self.partner_files = self.peer_files[c:].reshape(self.n, self.k)
        self.cluster_of_client = self.cluster_of_peer[:c]
        # The overlay in effect *right now*.  Identical to the instance
        # graph except while partition healing (sim.recovery) has
        # redundant links patched in — the one mutable-topology case.
        self.graph = instance.graph
        self.floods = {}  # fault-free floods by source (static graph)
        self.m_sp = instance.superpeer_connections.astype(float)
        self.m_cl = float(instance.client_connections)
        # Per-partner meters carry 1/k of the cluster's load: the
        # long-run share of round-robin partner selection (Section 3.2).
        self.kv = np.full(self.n, float(self.k))
        # Meters: byte and unit totals.
        self.sp_in = np.zeros(self.n)
        self.sp_out = np.zeros(self.n)
        self.sp_proc = np.zeros(self.n)
        self.cl_in = np.zeros(instance.total_clients)
        self.cl_out = np.zeros(instance.total_clients)
        self.cl_proc = np.zeros(instance.total_clients)
        # Outcome counters.
        self.num_queries = 0
        self.num_joins = 0
        self.num_updates = 0
        self.total_results = 0.0
        self.total_reach = 0.0
        # Observability (observation-only; inert under the null registry).
        # Instruments are resolved once so the per-event cost is one
        # attribute lookup and a no-op call when metrics are disabled.
        metrics = get_registry()
        self.tracer: Tracer = NULL_TRACER
        self.sim = None  # bound by simulate_instance for trace timestamps
        self.m_queries = metrics.counter("sim.queries")
        self.m_joins = metrics.counter("sim.joins")
        self.m_updates = metrics.counter("sim.updates")
        self.m_query_messages = metrics.counter("sim.query_messages")
        self.m_response_messages = metrics.counter("sim.response_messages")
        self.m_flood_drops = metrics.counter("sim.flood_messages_dropped")
        self.m_response_drops = metrics.counter("sim.response_messages_dropped")
        self.m_retries = metrics.counter("sim.retries")
        self.m_orphans = metrics.counter("sim.orphaned_queries")
        self.m_results = metrics.histogram("sim.results_per_query")

    @property
    def now(self) -> float:
        """Current virtual time (0 before the simulator is bound)."""
        return self.sim.now if self.sim is not None else 0.0

    # --- index bookkeeping ------------------------------------------------------

    def index_sizes(self) -> np.ndarray:
        ptr = self.instance.client_ptr
        sums = np.add.reduceat(np.append(self.client_files, 0), ptr[:-1])
        sums[self.instance.clients == 0] = 0
        return sums + self.partner_files.sum(axis=1)

    def report(self, duration: float) -> SimulationReport:
        """The meters and outcome counters as long-run rates."""
        queries = max(1, self.num_queries)
        return SimulationReport(
            duration=duration,
            num_queries=self.num_queries,
            num_joins=self.num_joins,
            num_updates=self.num_updates,
            partners=self.k,
            superpeer_incoming_bps=bytes_per_second_to_bps(self.sp_in / duration),
            superpeer_outgoing_bps=bytes_per_second_to_bps(self.sp_out / duration),
            superpeer_processing_hz=units_per_second_to_hz(self.sp_proc / duration),
            client_incoming_bps=bytes_per_second_to_bps(self.cl_in / duration),
            client_outgoing_bps=bytes_per_second_to_bps(self.cl_out / duration),
            client_processing_hz=units_per_second_to_hz(self.cl_proc / duration),
            mean_results_per_query=self.total_results / queries,
            mean_reach_clusters=self.total_reach / queries,
        )


def _fanout_per_hop(prop) -> list[float]:
    """Messages crossing each hop: transmissions summed by sender depth."""
    mask = prop.depth >= 0
    counts = np.bincount(prop.depth[mask], weights=prop.transmissions[mask])
    return [float(x) for x in counts]


def _exact_matches(state: _State, rt: FaultRuntime | None, s: int,
                   j: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster result and responder counts of one query of class ``j``.

    Every file matches independently with probability f_j (the Appendix
    B model), so a collection of x files contributes Binomial(x, f_j)
    results.  N_T and K_T then follow from the *same* draws, keeping
    them mutually consistent.  The caller draws once per query, before
    its orphan check, so a degraded run and its baseline see the same
    workload (common random numbers); retries reuse the draws.
    """
    st = state
    f_j = float(st.model.f[j])
    matches = (st.rng.binomial(st.peer_files, f_j) if f_j > 0
               else np.zeros_like(st.peer_files))
    # Summed by current membership: the static roster until recovery
    # re-homes a client.  The sums are integer-valued, hence exact.
    n_results = np.bincount(st.cluster_of_peer, weights=matches,
                            minlength=st.n).astype(np.int64)
    k_addr = np.bincount(st.cluster_of_peer, weights=matches > 0,
                         minlength=st.n).astype(np.int64)
    return n_results, k_addr


def _run_query(state: _State, rt: FaultRuntime | None, s: int,
               client_index: int | None, j: int, matches) -> None:
    """Account one query: matches, client submit, flood, reverse-path responses.

    ``client_index`` is the flat client id when client-sourced, else None
    (the super-peer itself is the source).  ``j`` is the query's class,
    pre-drawn into the shared schedule so both engines see the same
    class sequence.  ``matches(state, rt, s, j)`` returns the per-cluster
    result and responder counts: :func:`_exact_matches`, or the array
    engine's :func:`~repro.sim.fastcore.meanfield_matches`.

    ``rt`` is the run's :class:`~repro.sim.faults.FaultRuntime`, None on
    fault-free runs.  Under a plan the flood and the reverse-path
    responses are per-hop sampled (``sim.faults``), dark clusters orphan
    their queries outright, and a flood that returns *no* results is
    retried by the originating super-peer under the plan's retry policy
    (each retry pays full flood cost; the user keeps the best attempt's
    results).  The source cannot see lost responses, only silence — so
    loss that still leaves some results goes unretried.  Per-partner
    meters divide by the *live* partner count — survivors of a crash
    bear the full cluster load.  Fault-free, the flood is the memoised
    static one, every response arrives, meters divide by k and there is
    one attempt.
    """
    st = state
    n_results, k_addr = matches(st, rt, s, j)
    if rt is not None and rt.live[s] == 0:
        _orphan_query(st, rt, s, client_index)
        return
    st.num_queries += 1
    st.m_queries.add()
    max_attempts = 1
    if rt is None:
        kv = st.kv
    else:
        rt.metrics.queries_attempted += 1
        kv = np.maximum(rt.live, 1).astype(float)
        if rt.plan.retry is not None:
            max_attempts += rt.plan.retry.max_retries

    if client_index is not None:
        _charge_submit(st, s, client_index, kv)

    best_results = 0.0
    best = None
    saw_loss = False
    waited = 0.0
    for attempt in range(max_attempts):
        results, prop, lost = _flood_attempt(
            st, rt, s, client_index, n_results, k_addr, kv
        )
        if results > best_results or attempt == 0:
            best_results = results
            best = prop
        if lost > 0:
            saw_loss = True
        if best_results > 0:
            break
        if attempt + 1 < max_attempts:
            met = rt.metrics
            met.retries += 1
            wait = rt.plan.retry.wait_before(attempt)
            met.retry_wait_seconds += wait
            waited += wait
            st.m_retries.add()
            if st.tracer.enabled:
                st.tracer.emit("retry", st.now, source=s, attempt=attempt + 1)
    if saw_loss:
        rt.metrics.truncated_floods += 1
        if st.tracer.enabled:
            st.tracer.emit("flood-truncated", st.now, source=s)
    st.total_results += best_results
    st.total_reach += best.reach
    st.m_results.observe(best_results)
    if st.tracer.enabled:
        if rt is None:
            shape = dict(reach=best.reach,
                         query_messages=best.total_query_messages())
        else:
            shape = dict(reach=float(best.reach), degraded=saw_loss)
        st.tracer.emit("query", st.now, source=s, results=best_results,
                       fanout=_fanout_per_hop(best),
                       client=client_index is not None,
                       attempts=attempt + 1, waited=waited, **shape)
    # A zero-result query is only a *fault* when loss was observed:
    # rare-file queries legitimately return nothing even fault-free, and
    # counting them would bury the degradation signal under the query
    # model's intrinsic miss rate.
    if best_results <= 0 and saw_loss:
        rt.metrics.queries_failed += 1


def _orphan_query(state: _State, rt: FaultRuntime, s: int,
                  client_index: int | None) -> None:
    """Account a query arriving at a fully dark cluster.

    A client query dies on a dead socket; a super-peer-sourced query has
    no live originator at all and vanishes without accounting.
    """
    if client_index is not None:
        met = rt.metrics
        met.queries_attempted += 1
        met.queries_failed += 1
        met.orphaned_queries += 1
        state.m_orphans.add()
        if state.tracer.enabled:
            state.tracer.emit("orphan", state.now, source=s)


def _flood_attempt(state: _State, rt: FaultRuntime | None, s: int,
                   client_index: int | None, n_results: np.ndarray,
                   k_addr: np.ndarray,
                   kv: np.ndarray) -> tuple[float, QueryPropagation, int]:
    """One flood + response pass: (results delivered, flood, messages lost).

    Senders pay for every attempted transmission; dead or partitioned
    targets receive (and process) nothing.  Fault-free nothing is lost.

    A silent attempt, where no reached cluster but the source has
    results, sends no Response (Section 4.1): it skips the fold, the
    Response pricing, the meter charges and the loss bookkeeping.  Each
    of those would add an exact ``+0.0`` (all-zero channels, non-negative
    prices), so every meter and counter keeps its bits.  The response
    edges are still sampled, as their uniforms are part of the fault
    stream; when neither the fold nor awake gossip reads the mask, only
    the uniforms are drawn.
    """
    st = state
    ttl = st.instance.config.ttl
    lost = 0
    if rt is None:
        prop = st.floods.get(s)
        if prop is None:
            prop = propagate_query(st.instance.graph, s, ttl)
            if len(st.floods) * st.n < _FLOOD_MEMO_CELLS:
                st.floods[s] = prop
    else:
        met = rt.metrics
        now = st.now
        prop, stats = sampled_propagation(st.graph, s, ttl, rt, now)
        lost = stats.lost
        met.flood_messages_lost += lost
        met.flood_messages_attempted += stats.attempted
        met.flood_messages_delivered += stats.delivered
        if lost:
            st.m_flood_drops.add(float(lost))
            if st.tracer.enabled:
                st.tracer.emit("drop", now, source=s, phase="flood", lost=lost)
    st.m_query_messages.add(prop.total_query_messages() if rt is None
                            else stats.attempted)
    reached = prop.reached

    # Query flood messages (each handled by one partner; average the meter).
    tx_bytes, tx_units = costs.send_query(st.m_sp)
    rx_bytes, rx_units = costs.recv_query(st.m_sp)
    st.sp_out += prop.transmissions * tx_bytes / kv
    st.sp_proc += prop.transmissions * tx_units / kv
    st.sp_in += prop.receipts * rx_bytes / kv
    st.sp_proc += prop.receipts * rx_units / kv

    # Index probe at every reached cluster.  The charges below are
    # full-length: unreached nodes (and the source, for what it sends)
    # add +0.0, which leaves a non-negative meter's bits unchanged.
    st.sp_proc += reached * (costs.process_query(n_results) / kv)

    # Responses travel the reverse path, each hop subject to the plan.
    responds = reached & (n_results > 0)
    responds[s] = False
    answered = responds.any()
    edge_pass = None
    if rt is not None:
        read = answered or (rt.gossip is not None and not rt.gossip._quiet)
        edge_pass = sample_response_edges(prop, rt, now, read)
    got_m = got_a = got_r = 0.0  # what reaches the source from others
    if answered:
        sent, received = lossy_accumulate(
            prop, edge_pass, [responds, responds * k_addr, responds * n_results])
        sent[:, s] = 0.0  # the source answers its client, not a predecessor
        sent_m, sent_a, sent_r = sent
        recv_m, recv_a, recv_r = received
        got_m, got_a, got_r = received[:, s]

        out_bytes, out_units = costs.send_response(sent_m, sent_a, sent_r, st.m_sp)
        in_bytes, in_units = costs.recv_response(recv_m, recv_a, recv_r, st.m_sp)
        st.sp_out += out_bytes / kv
        st.sp_proc += out_units / kv
        st.sp_in += in_bytes / kv
        st.sp_proc += in_units / kv
        st.m_response_messages.add(float(sent_m.sum()))
        if rt is not None:
            lost_responses = float(sent_m.sum() - recv_m.sum())
            rt.metrics.response_messages_lost += lost_responses
            if lost_responses > 0:
                st.m_response_drops.add(lost_responses)
                if st.tracer.enabled:
                    st.tracer.emit("drop", now, source=s, phase="response",
                                   lost=lost_responses)

    # Deliver what arrived (plus own-index results) to the querying client.
    own_msg = 1.0 if n_results[s] > 0 else 0.0
    to_m = got_m + own_msg
    to_a = got_a + (k_addr[s] if own_msg else 0)
    to_r = got_r + (n_results[s] if own_msg else 0)
    if client_index is not None and to_m > 0:
        _charge_delivery(st, s, client_index, to_m, to_a, to_r, kv)
    # Membership digests ride the flood tree and the surviving response
    # edges (decentralized failure detection; free while nothing is
    # rumored, charged per digest once a suspicion episode opens).
    if rt is not None and rt.gossip is not None:
        rt.gossip.on_flood(prop, edge_pass)
    return float(got_r + n_results[s]), prop, lost


# --- per-event charges (Table 2, Section 3.2) ------------------------------
#
# Each routine adds one kind of action's costs to the state's meters.
# The node arguments are scalars from the event loop, or index arrays
# (with repeats) when the array engine charges a whole schedule in one
# call; ``np.add.at`` accumulates both forms in the same operation order.
# ``partners`` is k, or the live partner count on faulty runs; ``kv`` is
# the per-cluster partner divisor of :func:`_run_query`.


def _charge_submit(st: _State, s, client, kv: np.ndarray) -> None:
    """A client hands its query to its super-peer ``s``."""
    cl_bytes, cl_units = costs.send_query(st.m_cl)
    sp_bytes, sp_units = costs.recv_query(st.m_sp[s])
    np.add.at(st.cl_out, client, cl_bytes)
    np.add.at(st.cl_proc, client, cl_units)
    np.add.at(st.sp_in, s, sp_bytes / kv[s])
    np.add.at(st.sp_proc, s, sp_units / kv[s])


def _charge_delivery(st: _State, s, client, to_m, to_a, to_r,
                     kv: np.ndarray) -> None:
    """Super-peer ``s`` forwards ``to_m`` Responses (``to_a`` addresses,
    ``to_r`` results) to its querying client."""
    nbytes, send_units = costs.send_response(to_m, to_a, to_r, st.m_sp[s])
    np.add.at(st.sp_out, s, nbytes / kv[s])
    np.add.at(st.sp_proc, s, send_units / kv[s])
    np.add.at(st.cl_in, client, nbytes)
    np.add.at(st.cl_proc, client, costs.recv_response(to_m, to_a, to_r, st.m_cl)[1])


def _charge_client_join(st: _State, cluster, client, old_files, new_files,
                        partners) -> None:
    """A client leaves and its replacement joins: each partner drops the
    ``old_files`` records and indexes the replacement's ``new_files``."""
    np.add.at(st.sp_proc, cluster, costs.process_join(old_files))
    join_bytes, send_units = costs.send_join(new_files, st.m_cl)
    np.add.at(st.cl_out, client, partners * join_bytes)
    np.add.at(st.cl_proc, client, partners * send_units)
    np.add.at(st.sp_in, cluster, join_bytes)
    np.add.at(st.sp_proc, cluster,
              costs.recv_index_join(new_files, st.m_sp[cluster])[1])


def _charge_partner_join(st: _State, cluster, old_files, new_files) -> None:
    """A super-peer partner is replaced: handshakes + (k>1) index exchange."""
    k = st.k
    m = st.m_sp[cluster]
    # Handshake one empty message each way per open connection; mirror side
    # is attributed to this cluster's meter in aggregate form (neighbours,
    # fellow partners and clients all pay one pair each).
    hs_bytes, hs_units = costs.handshake(m)
    np.add.at(st.sp_out, cluster, hs_bytes * m / k)
    np.add.at(st.sp_in, cluster, hs_bytes * m / k)
    np.add.at(st.sp_proc, cluster, m * hs_units / k)
    if k > 1:
        # Ship own metadata to the k-1 fellows; they index it (and drop the
        # departed partner's records).
        join_bytes, units = costs.exchange_join(new_files, m, dropped=old_files)
        np.add.at(st.sp_out, cluster, (k - 1) * join_bytes / k)
        np.add.at(st.sp_in, cluster, (k - 1) * join_bytes / k)
        np.add.at(st.sp_proc, cluster, (k - 1) * units / k)


def _charge_client_update(st: _State, cluster, client, partners) -> None:
    """A client sends a single-file metadata delta to each partner."""
    upd, send_units = costs.send_update(st.m_cl)
    np.add.at(st.cl_out, client, partners * upd)
    np.add.at(st.cl_proc, client, partners * send_units)
    np.add.at(st.sp_in, cluster, upd)
    np.add.at(st.sp_proc, cluster,
              costs.recv_update(st.m_sp[cluster])[1] + costs.process_update())


def _charge_partner_update(st: _State, cluster, partners: int) -> None:
    """A partner's own metadata delta, shipped to its fellow partners."""
    np.add.at(st.sp_proc, cluster, costs.process_update() / partners)
    if partners > 1:
        upd, units = costs.exchange_update(st.m_sp[cluster])
        np.add.at(st.sp_out, cluster, (partners - 1) * upd / partners)
        np.add.at(st.sp_in, cluster, (partners - 1) * upd / partners)
        np.add.at(st.sp_proc, cluster, (partners - 1) * units / partners)


def _run_client_churn(state: _State, client_index: int, new_files: int,
                      live: int | None = None) -> None:
    """One client leaves and its replacement (``new_files`` files, pre-drawn
    into the shared schedule) joins, uploading its metadata to each partner.

    ``live`` (fault runs only) is the number of partners currently up:
    the replacement uploads its metadata to those partners alone; a
    recovering partner rebuilds its index separately at recovery time.
    """
    st = state
    st.num_joins += 1
    st.m_joins.add()
    cluster = int(st.cluster_of_client[client_index])
    old_files = int(st.client_files[client_index])
    st.client_files[client_index] = new_files
    _charge_client_join(st, cluster, client_index, old_files, new_files,
                        st.k if live is None else live)


def _run_partner_churn(state: _State, cluster: int, partner: int,
                       new_files: int) -> None:
    """One super-peer partner is replaced by a peer with ``new_files`` files."""
    st = state
    st.num_joins += 1
    st.m_joins.add()
    old_files = int(st.partner_files[cluster, partner])
    st.partner_files[cluster, partner] = new_files
    _charge_partner_join(st, cluster, old_files, new_files)


def _run_update(state: _State, cluster: int, client_index: int | None,
                live: int | None = None) -> None:
    """One update: a client's (or partner's) single-file metadata delta.

    ``live`` (fault runs only) restricts the exchange to the partners
    currently up.
    """
    st = state
    st.num_updates += 1
    st.m_updates.add()
    partners = st.k if live is None else live
    if client_index is not None:
        _charge_client_update(st, cluster, client_index, partners)
    else:
        _charge_partner_update(st, cluster, partners)


#: The simulation backends :func:`simulate_instance` runs: the
#: message-level event loop and the vectorized array engine.
ENGINES = ("event", "array")


def simulate_instance(
    instance: NetworkInstance,
    duration: float = 3600.0,
    model: QueryModel | None = None,
    rng: np.random.Generator | int | None = None,
    enable_churn: bool = True,
    enable_updates: bool = True,
    faults: FaultPlan | None = None,
    fault_metrics: FaultOutcome | None = None,
    recovery: RecoveryPolicy | None = None,
    tracer: Tracer | None = None,
    engine: str = "event",
    schedule: WorkloadSchedule | None = None,
) -> SimulationReport:
    """Simulate ``duration`` seconds of the network's life and measure loads.

    Arrivals are Poisson per cluster at the Table 1 per-user rates; churn
    replaces each departing peer with a fresh one (stable network size),
    mutating the live indexes the later queries probe.

    ``faults`` injects a :class:`~repro.sim.faults.FaultPlan`; a null (or
    absent) plan runs the untouched fault-free path on the untouched RNG
    stream, so it is bit-identical to not passing one.  Fault randomness
    lives on its own derived stream (``derive_rng(seed, "sim", "faults")``)
    — interleaved fault events never perturb the workload draws.  Pass a
    ``fault_metrics`` collector to receive the degraded-mode counters
    (or use :func:`repro.sim.resilience.run_resilience`, which wraps
    this with baseline comparison and reporting).

    ``recovery`` (optional, faulty runs only) enables the self-healing
    layer (:mod:`repro.sim.monitor` + :mod:`repro.sim.recovery`):
    confirmed failure detections trigger partner promotion, client
    re-homing and partition healing per the policy, with every repair
    charged through the cost model.  Recovery randomness lives on its
    own stream (``derive_rng(seed, "sim", "recovery")``); with
    ``recovery=None`` no recovery code runs and no stream is consumed,
    so results are bit-identical to earlier fault-only behaviour.

    ``tracer`` (optional) receives ring-buffered
    :class:`~repro.obs.trace.TraceEvent` records — queries, drops,
    retries, crashes/recoveries, outages.  Tracing, like the metrics
    registry, is observation-only: it never touches an RNG stream, so
    traced and untraced runs produce bit-identical loads.

    ``engine`` selects the backend: ``"event"`` (this module — the
    reference oracle) or ``"array"``.  On a fault-free run (no plan, or
    a null one) ``"array"`` is the vectorized path of
    :mod:`repro.sim.fastcore`.  Under a fault plan it is this module's
    event loop with :func:`~repro.sim.fastcore.meanfield_matches` as the
    match sampler (cluster-level hit draws instead of per-collection
    Binomials); faults, recovery, gossip, retries and tracing are then
    the event engine's own code.  Both consume the same pre-generated
    :class:`~repro.sim.schedule.WorkloadSchedule`, so query / join /
    update counts agree bit-for-bit across engines by construction
    (``tests/test_differential.py`` holds the full contract).  Pass
    ``schedule`` to reuse an already-generated schedule; by default one
    is derived from the same seed either engine would derive it from.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if faults is not None and faults.is_null:
        faults = None
    if engine == "array" and faults is None:
        from .fastcore import simulate_instance_array

        return simulate_instance_array(
            instance, duration=duration, model=model, rng=rng,
            enable_churn=enable_churn, enable_updates=enable_updates,
            tracer=tracer, schedule=schedule,
        )
    if duration <= 0:
        raise ValueError("duration must be positive")
    model = model or default_query_model()
    matches = _exact_matches
    if engine == "array":
        from .fastcore import meanfield_matches

        matches = meanfield_matches(instance, model)
    if schedule is None:
        # Generated before the fault/recovery streams are derived so the
        # Generator-seed spawn order is fixed and documented: schedule
        # children first, then faults, then recovery.
        schedule = generate_workload(
            instance, duration, rng,
            enable_churn=enable_churn, enable_updates=enable_updates,
            model=model,
        )
    elif schedule.duration != duration:
        raise ValueError(
            f"schedule covers {schedule.duration}s, run wants {duration}s"
        )
    if faults is not None:
        if isinstance(rng, np.random.Generator):
            fault_rng = rng.spawn(1)[0]
        else:
            fault_rng = derive_rng(rng, "sim", "faults")
        if recovery is not None:
            # Derived only when enabled: a recovery-off run consumes no
            # extra spawn/stream and stays bit-identical.
            if isinstance(rng, np.random.Generator):
                recovery_rng = rng.spawn(1)[0]
            else:
                recovery_rng = derive_rng(rng, "sim", "recovery")
    rng = derive_rng(rng, "sim")
    state = _State(instance, model, rng)
    if tracer is not None:
        state.tracer = tracer
    sim = Simulator()
    state.sim = sim
    fault_rt: FaultRuntime | None = None
    if faults is not None:
        fault_rt = FaultRuntime(faults, instance, fault_rng, metrics=fault_metrics,
                                tracer=state.tracer)
        # A recovered partner is a fresh peer: charge the replacement's
        # handshakes and (k > 1) index exchange exactly as instantaneous
        # churn does, just at recovery time instead of departure time.
        # The replacement's collection comes from the fault stream, so a
        # crash-driven recovery never perturbs the workload stream the
        # baseline shares.
        fault_rt.install(
            sim, lambda c, p: _run_partner_churn(
                state, c, p,
                int(default_file_distribution().sample(fault_rng, 1)[0])),
        )
    recovery_rt: RecoveryRuntime | None = None
    if fault_rt is not None and recovery is not None:
        recovery_rt = RecoveryRuntime(recovery, state, fault_rt, recovery_rng)
        recovery_rt.install(sim)
    crash_driven = fault_rt is not None and fault_rt.plan.crash is not None

    # Arrivals are replayed from the pre-generated shared schedule; the
    # main stream only supplies the per-event *workload* draws (query
    # classes and match outcomes, replacement collections) in firing
    # order.  Sessions are exponential with each slot's instance-assigned
    # mean lifespan, so the long-run churn rate at slot i is exactly the
    # 1 / lifespan_i the mean-value analysis uses (step 3).

    def fire_query(cluster: int, pick: int, idx: int) -> None:
        clients_here = int(instance.clients[cluster])
        if pick < clients_here:
            client_index = int(instance.client_ptr[cluster]) + pick
        else:
            client_index = None
        source = cluster
        if (client_index is not None and fault_rt is not None
                and fault_rt.recovery is not None):
            # A re-homed client queries through its current
            # super-peer, not its original roster cluster.
            source = int(state.cluster_of_client[client_index])
        _run_query(state, fault_rt, source, client_index,
                   int(schedule.q_class[idx]), matches)

    def fire_update(cluster: int, pick: int, idx: int) -> None:
        clients_here = int(instance.clients[cluster])
        client_index = (
            int(instance.client_ptr[cluster]) + pick
            if pick < clients_here else None
        )
        if fault_rt is None:
            _run_update(state, cluster, client_index)
            return
        target = cluster
        if client_index is not None and fault_rt.recovery is not None:
            target = int(state.cluster_of_client[client_index])
        if fault_rt.live[target] == 0:
            # Nobody is listening: the delta is lost (the index
            # is rebuilt wholesale when a partner recovers).
            fault_rt.metrics.lost_updates += 1
        else:
            _run_update(state, target, client_index,
                        live=int(fault_rt.live[target]))

    def fire_client_churn(client_index: int, _unused: int, idx: int) -> None:
        new_files = int(schedule.c_files[idx])
        if fault_rt is None:
            _run_client_churn(state, client_index, new_files=new_files)
            return
        cluster = int(state.cluster_of_client[client_index])
        if fault_rt.live[cluster] == 0:
            # No partner to join through: the replacement still arrives
            # with its collection (the same scheduled draw the
            # fault-free run consumes) but uploads nothing until a
            # partner returns.
            state.client_files[client_index] = new_files
            fault_rt.metrics.deferred_joins += 1
        else:
            _run_client_churn(state, client_index,
                              live=int(fault_rt.live[cluster]),
                              new_files=new_files)

    def fire_partner_churn(cluster: int, partner: int, idx: int) -> None:
        new_files = int(schedule.p_files[idx])
        if fault_rt is not None and fault_rt.live[cluster] == 0:
            # Blacked-out cluster: nobody is up to handshake with, so
            # the replacement cannot be charged.  Roll the scheduled
            # collection so the workload stays in lockstep.
            state.partner_files[cluster, partner] = new_files
        elif not crash_driven:
            # Instantaneous partner replacement (fault-free model).
            _run_partner_churn(state, cluster, partner, new_files=new_files)
        else:
            # A CrashSpec supersedes instantaneous churn: the crash
            # machinery drives the partner lifecycle with real
            # down-windows.  This shadow event only keeps the workload
            # in lockstep with the baseline (same scheduled collection)
            # and rolls the index contents.
            state.partner_files[cluster, partner] = new_files

    handlers = {
        KIND_QUERY: fire_query,
        KIND_UPDATE: fire_update,
        KIND_CLIENT_CHURN: fire_client_churn,
        KIND_PARTNER_CHURN: fire_partner_churn,
    }
    ev_time, ev_kind, ev_a, ev_b, ev_idx = schedule.merged_events()
    for t, kd, a, b, i in zip(ev_time.tolist(), ev_kind.tolist(),
                              ev_a.tolist(), ev_b.tolist(), ev_idx.tolist()):
        sim.schedule_at(t, handlers[kd], a, b, i)

    sim.run_until(duration)
    if recovery_rt is not None:
        # Seal recovery fields first: it reads open-outage state that
        # the fault runtime's finish() consumes.
        recovery_rt.finish(duration)
    if fault_rt is not None:
        fault_rt.finish(duration)

    return state.report(duration)
