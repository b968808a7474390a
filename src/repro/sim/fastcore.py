"""Array-native simulation backend (``engine="array"``).

The event engine (:mod:`repro.sim.network`) pushes every query through a
Python-level BFS and samples per-collection Binomial matches — faithful,
but ~24M message accountings per benchmark run.  This module reproduces
the same measured loads with structure-of-arrays kernels:

* **Shared schedule** — both engines replay one pre-generated
  :class:`~repro.sim.schedule.WorkloadSchedule`, so query / join /
  update counts are bit-equal across engines by construction.
* **Batched floods** — the flood kernel lives in :mod:`repro.core.routing`
  and is shared with the mean-value analysis (``core.load``) and the
  event engine: :func:`~repro.core.routing.flood_block` runs blocks of
  BFS floods as ``(block, nodes)`` numpy arrays over the CSR overlay,
  bit-identical per source to the event engine's one-row
  :func:`~repro.core.routing.propagate_query` (``tests/test_fastcore.py``
  pins both against a scalar reference BFS; this module re-exports
  the kernel).  Since the fault-free flood depends only on the
  source, each source is flooded once and weighted by its query count
  instead of being recomputed per query — flood transmissions, receipts
  and reach are then *exactly* the event engine's totals
  (integer-valued sums, exact under reordering).
* **The MVA's charges** — each block of floods is charged by
  :func:`repro.core.load.charge_block`, the mean-value analysis's own
  routine, with realized query counts as the rates.  Per-query response
  weights are replaced by their conditional expectations given the
  query-class mix and per-window cluster index sizes (the paper's
  Eq. 5/6 expectations, ``querymodel.distributions``), folded up each
  source's reverse path.  Per-node response loads therefore agree in
  expectation and concentrate over thousands of queries; the
  differential harness (``tests/test_differential.py``) pre-registers
  the tolerances.
* **Sampled deliveries** — what each querying client actually receives
  (results per query, delivery bytes) is still genuinely sampled, as
  vectorized end-of-run draws, so result-count distributions stay
  realistic.
* **Bounded memory** — two query-length draws; each phase's
  temporaries die with its helper.  Each phase (churn, updates,
  response weights, flood, delivery) is one function that returns only
  what later phases read.  Beside the schedule, only two delivery draws
  (own results, remote results) are query-length, each a preallocated
  int64 array.  Their inputs are built one ``_QUERY_CHUNK``-query slice
  at a time and drawn into it: every own slice, then every remote
  slice.  The third draw (responding clusters) follows them slice by
  slice inside the delivery loop.  ``Generator.binomial`` over an array
  draws element by element, so the values and the stream are those of
  three whole draws at any slice length.  Everything else per query —
  client submits, delivery pricing and charges, the results histogram —
  runs over consecutive ``_QUERY_CHUNK``-query slices: every submit
  slice first, then every delivery slice, because both charge
  ``sp_proc`` and ``cl_proc`` and the order of float additions is part
  of the result.  ``np.add.at`` over consecutive slices adds in the
  order of one call, so the loads are the same bits at any slice length.

All of the above is the fault-free path.  Under a
:class:`~repro.sim.faults.FaultPlan`, ``engine="array"`` is the event
loop of :mod:`repro.sim.network` — ``_State``, ``FaultRuntime``,
``RecoveryRuntime``, gossip detection, retries, the one query function
— with :func:`meanfield_matches` as its match sampler: per-cluster hits
are drawn from the cluster-level hit probability (``n`` uniforms per
query) instead of per-collection Binomials (``total_clients`` draws per
query).  Fault semantics are therefore shared by code, not by
reimplementation.

The vectorized path is aggregate-only: it cannot emit per-query
trace events, so a ``tracer`` receives one vectorized ``flood-summary``
event per run (query-weighted frontier sizes and messages per hop —
the Figs. 4-8 quantities, computed only when the tracer is enabled)
instead of the event engine's per-query stream (faulty runs trace
normally through the event loop).

Instrumentation parity: the array engine runs on the event engine's
``_State`` — its meters, outcome counters and instrument family — and
charges joins, updates, client submits and deliveries through the event
engine's own per-event routines (``network._charge_*``, called once per
schedule array or query slice), so counter parity holds by construction.
On top of that, ``sim.engine.events`` counts replayed schedule events,
and the run is timed under the ``sim.engine.run`` timer plus per-phase
``sim.array.*`` registry timers (churn / updates / flood / delivery).
All of it is observation-only (``tests/test_journal.py`` neutrality).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..core.load import _Accumulator, charge_block
from ..core.routing import DEFAULT_BLOCK, FloodBlock, flood_block
from ..obs.metrics import get_registry
from ..querymodel.distributions import QueryModel, default_query_model
from ..querymodel.expectation import mean_miss_powers
from ..stats.rng import derive_rng
from ..topology.builder import NetworkInstance
from ..topology.strong import CompleteGraph
from .schedule import WorkloadSchedule, generate_workload

__all__ = ["FloodBlock", "flood_block", "meanfield_matches",
           "simulate_instance_array"]

#: Number of index-size snapshots taken across a run.  Churn drifts the
#: per-cluster file totals slowly (a few percent per window at default
#: rates), so piecewise-constant snapshots capture the drift the
#: event engine's per-query index reads see.
DEFAULT_WINDOWS = 8

#: Queries per slice of the submit and delivery passes.  Bounds their
#: working set at a few dozen arrays of this length, whatever the number
#: of queries; the results do not depend on it.
_QUERY_CHUNK = 1 << 14


def _mark_phase(registry, name: str, started: float) -> float:
    """Attribute wall-clock since ``started`` to the registry timer
    ``name``; returns the next phase's start time."""
    now = perf_counter()
    registry.timer(name).record(now - started)
    return now


def _window_of(times: np.ndarray, duration: float) -> np.ndarray:
    """The index-size window (``0 .. DEFAULT_WINDOWS - 1``) of each time."""
    W = DEFAULT_WINDOWS
    return np.minimum((times / duration * W).astype(np.int64), W - 1)


def simulate_instance_array(
    instance: NetworkInstance,
    duration: float = 3600.0,
    model: QueryModel | None = None,
    rng: np.random.Generator | int | None = None,
    enable_churn: bool = True,
    enable_updates: bool = True,
    tracer=None,
    schedule: WorkloadSchedule | None = None,
):
    """The vectorized fault-free run behind
    ``simulate_instance(..., engine="array")``, returning the same
    :class:`~repro.sim.network.SimulationReport`.

    Counters that are deterministic given the shared schedule — queries,
    joins, updates, flood transmissions, reach — equal the event
    engine's bit for bit; sampled quantities agree statistically
    (``tests/test_differential.py``).

    Each phase is one helper that returns only what later phases read,
    so its temporaries are freed when it returns.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    model = model or default_query_model()
    if schedule is None:
        schedule = generate_workload(
            instance, duration, rng,
            enable_churn=enable_churn, enable_updates=enable_updates,
            model=model,
        )
    elif schedule.duration != duration:
        raise ValueError(
            f"schedule covers {schedule.duration}s, run wants {duration}s"
        )

    from .network import _State  # deferred: network lazily imports this module

    st = _State(instance, model, derive_rng(rng, "sim", "array"))
    registry = get_registry()
    m_events = registry.counter("sim.engine.events")
    registry.counter("sim.engine.compactions")
    run_started = phase_started = perf_counter()

    deltas = _replay_churn(st, instance, schedule, duration)
    phase_started = _mark_phase(registry, "sim.array.churn", phase_started)
    _replay_updates(st, instance, schedule)
    phase_started = _mark_phase(registry, "sim.array.updates", phase_started)
    F_wins, origin, pbar, a_frac = _response_weights(
        instance, schedule, model, deltas, duration)
    reach_count, F_reach = _flood(st, instance, schedule, origin, F_wins,
                                  tracer, duration)
    phase_started = _mark_phase(registry, "sim.array.flood", phase_started)
    _deliver(st, instance, schedule, model, duration,
             F_wins, F_reach, reach_count, pbar, a_frac)
    _mark_phase(registry, "sim.array.delivery", phase_started)

    Q, U = schedule.num_queries, schedule.num_updates
    num_joins = schedule.num_client_churn + schedule.num_partner_churn
    st.num_queries, st.num_joins, st.num_updates = Q, num_joins, U
    st.m_queries.add(float(Q))
    st.m_joins.add(float(num_joins))
    st.m_updates.add(float(U))
    m_events.add(float(Q + num_joins + U))
    registry.timer("sim.engine.run").record(perf_counter() - run_started)
    return st.report(duration)


def _replay_churn(st, instance: NetworkInstance, schedule: WorkloadSchedule,
                  duration: float) -> np.ndarray:
    """Charge every client and partner churn event, exactly, vectorized.

    Returns the ``(DEFAULT_WINDOWS, clusters)`` index-size change that
    each window's churn makes at each cluster.
    """
    from .network import _charge_client_join, _charge_partner_join

    k = instance.partners
    deltas = np.zeros((DEFAULT_WINDOWS, instance.num_clusters))

    C = schedule.num_client_churn
    if C:
        order = np.lexsort((schedule.c_time, schedule.c_client))
        cc = schedule.c_client[order]
        ct = schedule.c_time[order]
        new_files = schedule.c_files[order]
        first = np.ones(C, dtype=bool)
        first[1:] = cc[1:] != cc[:-1]
        prev = np.empty(C, dtype=np.int64)
        prev[first] = instance.client_files[cc[first]]
        idx_nf = np.nonzero(~first)[0]
        prev[idx_nf] = new_files[idx_nf - 1]
        cl_cluster = st.cluster_of_client[cc]
        _charge_client_join(st, cl_cluster, cc, prev, new_files, k)
        np.add.at(deltas, (_window_of(ct, duration), cl_cluster),
                  (new_files - prev).astype(float))

    P = schedule.num_partner_churn
    if P:
        flat = schedule.p_cluster * k + schedule.p_slot
        order = np.lexsort((schedule.p_time, flat))
        pf = flat[order]
        pt = schedule.p_time[order]
        pcl = pf // k
        new_p = schedule.p_files[order]
        first = np.ones(P, dtype=bool)
        first[1:] = pf[1:] != pf[:-1]
        prev_p = np.empty(P, dtype=np.int64)
        prev_p[first] = instance.partner_files.ravel()[pf[first]]
        idx_nf = np.nonzero(~first)[0]
        prev_p[idx_nf] = new_p[idx_nf - 1]
        _charge_partner_join(st, pcl, prev_p, new_p)
        np.add.at(deltas, (_window_of(pt, duration), pcl),
                  (new_p - prev_p).astype(float))
    return deltas


def _replay_updates(st, instance: NetworkInstance,
                    schedule: WorkloadSchedule) -> None:
    """Charge every update, exactly, vectorized."""
    from .network import _charge_client_update, _charge_partner_update

    if not schedule.num_updates:
        return
    k = instance.partners
    u_cluster = schedule.u_cluster
    is_client_u = schedule.u_pick < instance.clients[u_cluster]
    uc = u_cluster[is_client_u]
    _charge_client_update(
        st, uc, instance.client_ptr[uc] + schedule.u_pick[is_client_u], k)
    _charge_partner_update(st, u_cluster[~is_client_u], k)


def _response_weights(instance: NetworkInstance, schedule: WorkloadSchedule,
                      model: QueryModel, deltas: np.ndarray, duration: float):
    """Per-window index sizes and the mean-field response constants.

    Returns ``(F_wins, origin, pbar, a_frac)``: the ``(windows,
    clusters)`` index sizes, the channel-major ``(3, clusters)``
    per-query Response origins for ``charge_block``, and per class the
    cluster-level hit probability and addresses-per-result ratio of the
    delivery draws.
    """
    n = instance.num_clusters
    W = DEFAULT_WINDOWS
    F0 = instance.index_sizes.astype(float)
    F_wins = F0[np.newaxis, :] + np.vstack(
        [np.zeros((1, n)), np.cumsum(deltas, axis=0)[:-1]]
    )
    F_wins = np.maximum(F_wins, 0.0)

    log_miss = np.log1p(-model.f)
    mwj = np.zeros((W, model.num_classes))
    if schedule.num_queries:
        np.add.at(mwj, (_window_of(schedule.q_time, duration),
                        schedule.q_class), 1.0)
    m_w = mwj.sum(axis=1)
    m_j = mwj.sum(axis=0)

    collections = np.concatenate(
        [instance.client_files, instance.partner_files.ravel()]
    )
    phi = mean_miss_powers(model, collections)

    # Per-cluster expected response weights, summed over all queries:
    #   msg:  P(cluster answers)     = 1 - (1 - f_j)^F_c
    #   res:  E[results per cluster] = f_j * F_c                    (Eq. 5)
    #   addr: E[responding colls]    = Np_c * (1 - phi_j)           (Eq. 6)
    W_msg = np.zeros(n)
    W_res = np.zeros(n)
    sum_mf = mwj @ model.f
    for w in range(W):
        active = np.nonzero(mwj[w])[0]
        if active.size == 0:
            continue
        pw = np.multiply.outer(F_wins[w], log_miss[active])
        W_msg += m_w[w] - np.exp(pw, out=pw) @ mwj[w, active]
        W_res += sum_mf[w] * F_wins[w]
    np_c = (instance.clients + instance.partners).astype(float)
    W_addr = np_c * float(m_j @ (1.0 - phi))
    origin = np.stack([W_msg, W_addr, W_res]) / max(1, schedule.num_queries)

    # Global mean-field constants of the per-query delivery draws.
    miss = np.multiply.outer(F0, log_miss)
    pbar = 1.0 - np.exp(miss, out=miss).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_frac = np.where(
            model.f > 0,
            np.clip(
                collections.size * (1.0 - phi)
                / np.maximum(model.f * float(collections.sum()), 1e-300),
                0.0, 1.0,
            ),
            0.0,
        )
    return F_wins, origin, pbar, a_frac


def _flood(st, instance: NetworkInstance, schedule: WorkloadSchedule,
           origin: np.ndarray, F_wins: np.ndarray, tracer, duration: float):
    """Flood each querying source once and charge it at its realized
    query count: the MVA's ``charge_block`` with counts for rates and
    mean-field Response origins (the fault-free flood depends only on
    its source).

    Books the flood's loads, message counters and reach on ``st``, emits
    the tracer's ``flood-summary`` event, and returns ``(reach_count,
    F_reach)``: each source's reached clusters and the ``(clusters,
    windows)`` index sizes summed over them.
    """
    n = instance.num_clusters
    k = instance.partners
    ttl = instance.config.ttl
    graph = instance.graph
    Q = schedule.num_queries
    m_s = np.bincount(schedule.q_cluster, minlength=n).astype(float) if Q \
        else np.zeros(n)
    q_sources = np.nonzero(m_s)[0]
    flood = _Accumulator(n, 0)
    total_flood = 0.0
    total_reach = 0.0
    resp_msgs = 0.0
    reach_count = np.zeros(n)
    F_reach = np.zeros((n, DEFAULT_WINDOWS))
    # Query-weighted per-hop flood profile (frontier clusters reached at
    # each depth, query messages sent from each depth) for the tracer's
    # flood-summary event, the stand-in for the event engine's per-query
    # trace stream.
    traced = tracer is not None and tracer.enabled
    hop_frontier = np.zeros(ttl + 1)
    hop_messages = np.zeros(ttl + 1)
    edges = None if isinstance(graph, CompleteGraph) else \
        graph.directed_edge_arrays()
    for start in range(0, q_sources.size, DEFAULT_BLOCK):
        src = q_sources[start:start + DEFAULT_BLOCK]
        fb = flood_block(graph, src, ttl)
        mb = m_s[src]
        sent, _, sends = charge_block(fb, mb, origin, st.m_sp, flood,
                                      edges=edges)
        resp_msgs += float(mb @ sent[0].sum(axis=1))
        total_flood += float(sends.sum())
        reach_s = fb.reach()
        total_reach += float(reach_s @ mb)
        reach_count[src] = reach_s
        reached = fb.reached
        F_reach[src] = reached @ F_wins.T
        if traced:
            w_rows = np.broadcast_to(mb[:, np.newaxis], fb.depth.shape)
            depths = fb.depth[reached]
            hop_frontier += np.bincount(depths, weights=w_rows[reached],
                                        minlength=ttl + 1)[:ttl + 1]
            hop_messages += np.bincount(
                depths, weights=(fb.transmissions * w_rows)[reached],
                minlength=ttl + 1,
            )[:ttl + 1]
    st.sp_out += flood.q_out / k
    st.sp_in += flood.q_in / k
    st.sp_proc += flood.q_proc / k
    st.total_reach = total_reach
    st.m_query_messages.add(total_flood)
    st.m_response_messages.add(resp_msgs)
    if traced:
        tracer.emit(
            "flood-summary",
            duration,
            queries=int(Q),
            ttl=int(ttl),
            frontier_per_hop=[float(x) for x in hop_frontier],
            messages_per_hop=[float(x) for x in hop_messages],
            mean_reach=total_reach / max(1, Q),
        )
    return reach_count, F_reach


def _deliver(st, instance: NetworkInstance, schedule: WorkloadSchedule,
             model: QueryModel, duration: float, F_wins: np.ndarray,
             F_reach: np.ndarray, reach_count: np.ndarray, pbar: np.ndarray,
             a_frac: np.ndarray) -> None:
    """Charge every client submit (exact), then sample, price and charge
    each query's deliveries.

    Only the schedule and two draws (``own``, ``remote``) are
    query-length; everything else runs over ``_QUERY_CHUNK``-query
    slices (see the module docstring).
    """
    from .network import _charge_delivery, _charge_submit

    Q = schedule.num_queries
    if not Q:
        return
    clients = instance.clients
    ptr = instance.client_ptr
    q_src = schedule.q_cluster
    q_pick = schedule.q_pick
    # Query classes come pre-drawn from the shared schedule — identical
    # to what the event engine consumes, so the heavy-tailed workload
    # attributes never diverge across engines.
    j_q = schedule.q_class
    rng = st.rng
    chunks = [slice(lo, lo + _QUERY_CHUNK) for lo in range(0, Q, _QUERY_CHUNK)]
    for c in chunks:
        s, pick = q_src[c], q_pick[c]
        is_client = pick < clients[s]
        cs = s[is_client]
        _charge_submit(st, cs, ptr[cs] + pick[is_client], st.kv)

    # Each draw's inputs are built a slice at a time: every own slice,
    # then every remote slice, then, inside the delivery loop, every
    # slice of mm, the responding clusters.  An array binomial draws
    # element by element, so this is the stream of three whole draws
    # in that order.
    def own_n(c):  # files at the source, in the query's window
        return F_wins[_window_of(schedule.q_time[c], duration), q_src[c]]

    def remote_n(c):  # files at the other reached clusters
        return F_reach[q_src[c], _window_of(schedule.q_time[c], duration)] \
            - own_n(c)

    own, remote = np.empty(Q, dtype=np.int64), np.empty(Q, dtype=np.int64)
    for out, n_of in ((own, own_n), (remote, remote_n)):
        for c in chunks:
            trials = np.maximum(n_of(c), 0.0).astype(np.int64)
            out[c] = rng.binomial(trials, model.f[j_q[c]])
    # An integer sum: exact, whatever the order.
    st.total_results = float(own.sum() + remote.sum())

    for c in chunks:
        s, pick, own_c, remote_c = q_src[c], q_pick[c], own[c], remote[c]
        reach_q = reach_count[s]
        # the other reached clusters
        trials = np.maximum(reach_q - 1, 0.0).astype(np.int64)
        mm = rng.binomial(trials, pbar[j_q[c]])
        to_r = (own_c + remote_c).astype(float)
        to_m = (own_c > 0).astype(float) + np.where(
            remote_c > 0,
            np.clip(mm, 1, np.maximum(np.minimum(remote_c, reach_q - 1), 1)),
            0,
        )
        to_a = np.where(
            to_m > 0,
            np.clip(np.rint(to_r * a_frac[j_q[c]]), to_m, to_r),
            0.0,
        )
        deliver = (pick < clients[s]) & (to_m > 0)
        ds = s[deliver]
        _charge_delivery(st, ds, ptr[ds] + pick[deliver], to_m[deliver],
                         to_a[deliver], to_r[deliver], st.kv)
        st.m_results.observe_many(to_r)


# --- faulty runs: the event loop's mean-field match sampler ------------------


def meanfield_matches(instance: NetworkInstance, model: QueryModel):
    """The array engine's match sampler for faulty runs.

    Returns ``matches(state, rt, s, j) -> (n_results, k_addr)`` for
    :func:`repro.sim.network._run_query`.  Instead of per-collection
    Binomial matches it draws cluster-level hits — hit ~
    Bernoulli(1 - (1-f_j)^F_c), with result and responder counts set to
    their conditional expectations given a hit.  A dark source draws
    nothing: the caller orphans the query.
    """
    n = instance.num_clusters
    k = instance.partners
    log_miss = np.log1p(-model.f)
    collections = np.concatenate(
        [instance.client_files, instance.partner_files.ravel()]
    )
    phi = mean_miss_powers(model, collections)
    np_static = (instance.clients + k).astype(float)

    def matches(state, rt, s, j):
        if rt.live[s] == 0:
            return None, None
        f_j = float(state.model.f[j])
        if rt.recovery is not None and rt.recovery.rehomed_any:
            F = (
                np.bincount(state.cluster_of_client,
                            weights=state.client_files, minlength=n)
                + state.partner_files.sum(axis=1)
            )
            np_c = (
                np.bincount(state.cluster_of_client, minlength=n).astype(float)
                + k
            )
        else:
            F = state.index_sizes().astype(float)
            np_c = np_static
        if f_j <= 0.0:
            return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        p_hit = -np.expm1(F * log_miss[j])
        hit = state.rng.random(n) < p_hit
        safe = np.where(p_hit > 0.0, p_hit, 1.0)
        n_results = np.where(
            hit, np.maximum(1, np.rint(f_j * F / safe)), 0
        ).astype(np.int64)
        k_addr = np.where(
            hit,
            np.clip(np.rint(np_c * (1.0 - phi[j]) / safe), 1, n_results),
            0,
        ).astype(np.int64)
        return n_results, k_addr

    return matches
