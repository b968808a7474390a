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
  source, per-source results are weighted by that source's query count
  instead of being recomputed per query — flood transmissions, receipts
  and reach are then *exactly* the event engine's totals
  (integer-valued sums, exact under reordering).
* **Mean-field responses** — per-query response weights are replaced by
  their conditional expectations given the query-class mix and
  per-window cluster index sizes (the paper's Eq. 5/6 expectations,
  ``querymodel.distributions``), accumulated up each source's reverse
  path in one batched pass of the shared
  :func:`~repro.core.routing.fold_to_sources`.  Per-node response loads
  therefore agree in expectation and concentrate over thousands of
  queries; the
  differential harness (``tests/test_differential.py``) pre-registers
  the tolerances.
* **Sampled deliveries** — what each querying client actually receives
  (results per query, delivery bytes) is still genuinely sampled, as
  vectorized end-of-run draws, so result-count distributions stay
  realistic.

Under a :class:`~repro.sim.faults.FaultPlan` the array engine reuses the
event engine's entire control plane — ``_State``, ``FaultRuntime``,
``RecoveryRuntime``, gossip detection, retries — and swaps only the
match sampler: per-cluster hits are drawn from the cluster-level hit
probability (``n`` uniforms per query) instead of per-collection
Binomials (``total_clients`` draws per query).  Fault semantics are
therefore shared by code, not by reimplementation.

The fault-free array path is aggregate-only: it cannot emit per-query
trace events, so a ``tracer`` receives one vectorized ``flood-summary``
event per run (query-weighted frontier sizes and messages per hop —
the Figs. 4-8 quantities) instead of the event engine's per-query
stream (faulty runs trace normally through the shared event core).

Instrumentation parity: the fault-free path registers the *same*
counter and histogram families as the event engine's ``_State`` and
``Simulator`` — fault-path counters (drops, retries, orphans) exist at
zero, ``sim.engine.events`` counts replayed schedule events, and the
run is timed under the ``sim.engine.run`` timer plus per-phase
``sim.array.*`` registry timers (churn / updates / flood / delivery).
The differential harness asserts cross-engine counter-name parity, and all
of it is observation-only (``tests/test_journal.py`` neutrality).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .. import constants
from ..core import costs
from ..core.load import _HANDSHAKE_BYTES, _HANDSHAKE_RECV_UNITS, _HANDSHAKE_SEND_UNITS
from ..core.routing import DEFAULT_BLOCK, FloodBlock, flood_block, fold_to_sources
from ..obs.metrics import get_registry
from ..querymodel.distributions import QueryModel, default_query_model
from ..stats.rng import derive_rng
from ..topology.builder import NetworkInstance
from ..units import bytes_per_second_to_bps, units_per_second_to_hz
from .faults import FaultOutcome, FaultPlan
from .schedule import WorkloadSchedule, generate_workload

__all__ = ["FloodBlock", "flood_block", "simulate_instance_array"]

#: Number of index-size snapshots taken across a run.  Churn drifts the
#: per-cluster file totals slowly (a few percent per window at default
#: rates), so piecewise-constant snapshots capture the drift the
#: event engine's per-query index reads see.
DEFAULT_WINDOWS = 8


def _miss_power_table(log_miss: np.ndarray, collections: np.ndarray) -> np.ndarray:
    """phi[j] = mean over collections x of (1 - f_j)^x, class-chunk safe.

    The empirical per-collection miss probability of each query class
    (Appendix B), computed blocked over collections so the intermediate
    never materializes a (collections, classes) matrix at 50k-node scale.
    """
    total = np.zeros(log_miss.size)
    x = collections.astype(float)
    step = 16384
    for start in range(0, x.size, step):
        chunk = x[start:start + step]
        total += np.exp(np.multiply.outer(chunk, log_miss)).sum(axis=0)
    return total / max(1, x.size)


def simulate_instance_array(
    instance: NetworkInstance,
    duration: float = 3600.0,
    model: QueryModel | None = None,
    rng: np.random.Generator | int | None = None,
    enable_churn: bool = True,
    enable_updates: bool = True,
    faults: FaultPlan | None = None,
    fault_metrics: FaultOutcome | None = None,
    recovery=None,
    tracer=None,
    schedule: WorkloadSchedule | None = None,
):
    """Array-engine counterpart of
    :func:`repro.sim.network.simulate_instance` (same signature, same
    :class:`~repro.sim.network.SimulationReport`).

    Fault-free runs take the fully vectorized aggregate path below;
    faulty runs delegate to the event core with the mean-field match
    sampler swapped in (see module docstring).  Counters that are
    deterministic given the shared schedule — queries, joins, updates,
    flood transmissions, reach — equal the event engine's bit for bit;
    sampled quantities agree statistically (``tests/test_differential.py``).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    model = model or default_query_model()
    if faults is not None and faults.is_null:
        faults = None
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
    if faults is not None:
        return _simulate_faulty_array(
            instance, duration, model, rng, schedule, faults,
            fault_metrics, recovery, tracer,
        )
    return _simulate_fault_free_array(
        instance, duration, model, rng, schedule, tracer=tracer,
    )


# --- fault-free aggregate path ------------------------------------------------


def _mark_phase(registry, name: str, started: float) -> float:
    """Attribute wall-clock since ``started`` to the registry timer
    ``name``; returns the next phase's start time."""
    now = perf_counter()
    registry.timer(name).record(now - started)
    return now


def _simulate_fault_free_array(
    instance: NetworkInstance,
    duration: float,
    model: QueryModel,
    rng,
    schedule: WorkloadSchedule,
    tracer=None,
):
    from .network import (  # deferred: network lazily imports this module
        _MUX, _QUERY_BYTES, _RECV_Q, _SEND_Q, SimulationReport,
    )

    n = instance.num_clusters
    k = instance.partners
    ttl = instance.config.ttl
    graph = instance.graph
    clients = instance.clients
    ptr = instance.client_ptr
    m_sp = instance.superpeer_connections.astype(float)
    m_cl = float(instance.client_connections)
    rng_a = derive_rng(rng, "sim", "array")

    registry = get_registry()
    m_queries = registry.counter("sim.queries")
    m_joins = registry.counter("sim.joins")
    m_updates = registry.counter("sim.updates")
    m_query_messages = registry.counter("sim.query_messages")
    m_response_messages = registry.counter("sim.response_messages")
    m_results = registry.histogram("sim.results_per_query")
    # Parity with the event engine's ``_State``/``Simulator``: the full
    # fault-free counter family exists on every run (the differential
    # harness asserts cross-engine counter-name parity), with the
    # fault-path counters inert at zero on this path.
    registry.counter("sim.flood_messages_dropped")
    registry.counter("sim.response_messages_dropped")
    registry.counter("sim.retries")
    registry.counter("sim.orphaned_queries")
    m_events = registry.counter("sim.engine.events")
    registry.counter("sim.engine.compactions")
    run_started = phase_started = perf_counter()

    sp_in = np.zeros(n)
    sp_out = np.zeros(n)
    sp_proc = np.zeros(n)
    total_clients = instance.total_clients
    cl_in = np.zeros(total_clients)
    cl_out = np.zeros(total_clients)
    cl_proc = np.zeros(total_clients)

    Q = schedule.num_queries
    U = schedule.num_updates
    W = DEFAULT_WINDOWS
    deltas = np.zeros((W, n))
    cluster_of_client = np.repeat(np.arange(n), clients)

    def window_of(times: np.ndarray) -> np.ndarray:
        return np.minimum((times / duration * W).astype(np.int64), W - 1)

    # Query classes and replacement collections come pre-drawn from the
    # shared schedule — identical to what the event engine consumes, so
    # the heavy-tailed workload attributes never diverge across engines.
    j_q = schedule.q_class

    # --- client churn: exact per-event accounting, vectorized ---------------
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
        cl_cluster = cluster_of_client[cc]
        join_bytes = (
            constants.JOIN_MESSAGE_BASE + constants.FILE_METADATA_SIZE * new_files
        ).astype(float)
        np.add.at(sp_proc, cl_cluster,
                  costs.PROCESS_JOIN_BASE + costs.PROCESS_JOIN_PER_FILE * prev)
        np.add.at(cl_out, cc, k * join_bytes)
        np.add.at(cl_proc, cc, k * (
            costs.SEND_JOIN_BASE + costs.SEND_JOIN_PER_FILE * new_files
            + _MUX * m_cl
        ))
        np.add.at(sp_in, cl_cluster, join_bytes)
        np.add.at(sp_proc, cl_cluster, (
            costs.RECV_JOIN_BASE + costs.RECV_JOIN_PER_FILE * new_files
            + _MUX * m_sp[cl_cluster]
            + costs.PROCESS_JOIN_BASE + costs.PROCESS_JOIN_PER_FILE * new_files
        ))
        np.add.at(deltas, (window_of(ct), cl_cluster),
                  (new_files - prev).astype(float))

    # --- partner churn ------------------------------------------------------
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
        m_here = m_sp[pcl]
        np.add.at(sp_out, pcl, _HANDSHAKE_BYTES * m_here / k)
        np.add.at(sp_in, pcl, _HANDSHAKE_BYTES * m_here / k)
        np.add.at(sp_proc, pcl, m_here * (
            _HANDSHAKE_SEND_UNITS + _HANDSHAKE_RECV_UNITS + 2 * _MUX * m_here
        ) / k)
        if k > 1:
            jb = (
                constants.JOIN_MESSAGE_BASE
                + constants.FILE_METADATA_SIZE * new_p
            ).astype(float)
            np.add.at(sp_out, pcl, (k - 1) * jb / k)
            np.add.at(sp_in, pcl, (k - 1) * jb / k)
            np.add.at(sp_proc, pcl, (k - 1) * (
                costs.SEND_JOIN_BASE + costs.SEND_JOIN_PER_FILE * new_p
                + costs.RECV_JOIN_BASE + costs.RECV_JOIN_PER_FILE * new_p
                + 2 * _MUX * m_here
                + costs.PROCESS_JOIN_BASE + costs.PROCESS_JOIN_PER_FILE * new_p
                + costs.PROCESS_JOIN_BASE + costs.PROCESS_JOIN_PER_FILE * prev_p
            ) / k)
        np.add.at(deltas, (window_of(pt), pcl),
                  (new_p - prev_p).astype(float))
    num_joins = C + P
    phase_started = _mark_phase(registry, "sim.array.churn", phase_started)

    # --- updates: exact per-event accounting --------------------------------
    if U:
        u_cluster = schedule.u_cluster
        is_client_u = schedule.u_pick < clients[u_cluster]
        upd = float(constants.UPDATE_MESSAGE_SIZE)
        uc = u_cluster[is_client_u]
        uc_client = ptr[uc] + schedule.u_pick[is_client_u]
        np.add.at(cl_out, uc_client, k * upd)
        np.add.at(cl_proc, uc_client,
                  k * (costs.SEND_UPDATE_UNITS + _MUX * m_cl))
        np.add.at(sp_in, uc, upd)
        np.add.at(sp_proc, uc,
                  costs.RECV_UPDATE_UNITS + _MUX * m_sp[uc]
                  + costs.PROCESS_UPDATE_UNITS)
        up = u_cluster[~is_client_u]
        np.add.at(sp_proc, up, costs.PROCESS_UPDATE_UNITS / k)
        if k > 1:
            np.add.at(sp_out, up, (k - 1) * upd / k)
            np.add.at(sp_in, up, (k - 1) * upd / k)
            np.add.at(sp_proc, up, (k - 1) * (
                costs.SEND_UPDATE_UNITS + costs.RECV_UPDATE_UNITS
                + 2 * _MUX * m_sp[up] + costs.PROCESS_UPDATE_UNITS
            ) / k)
    phase_started = _mark_phase(registry, "sim.array.updates", phase_started)

    # --- per-window index sizes and response-weight channels ----------------
    F0 = instance.index_sizes.astype(float)
    F_wins = F0[np.newaxis, :] + np.vstack(
        [np.zeros((1, n)), np.cumsum(deltas, axis=0)[:-1]]
    )
    F_wins = np.maximum(F_wins, 0.0)

    M = max(1, Q)
    log_miss = np.log1p(-model.f)
    J = model.num_classes
    mwj = np.zeros((W, J))
    w_q = window_of(schedule.q_time) if Q else np.zeros(0, dtype=np.int64)
    if Q:
        np.add.at(mwj, (w_q, j_q), 1.0)
    m_w = mwj.sum(axis=1)
    m_j = mwj.sum(axis=0)

    collections = np.concatenate(
        [instance.client_files, instance.partner_files.ravel()]
    )
    phi = _miss_power_table(log_miss, collections)

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
        pw = np.exp(np.multiply.outer(F_wins[w], log_miss[active]))
        W_msg += m_w[w] - pw @ mwj[w, active]
        W_res += sum_mf[w] * F_wins[w]
    np_c = (clients + k).astype(float)
    W_addr = np_c * float(m_j @ (1.0 - phi))
    W3 = np.stack([W_msg, W_addr, W_res], axis=1)

    # Cluster-level hit probability and addresses-per-result ratio used by
    # the per-query delivery draws (global mean-field constants).
    pbar = 1.0 - np.exp(np.multiply.outer(F0, log_miss)).mean(axis=0)
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

    # --- per-source flood + reverse-path response pass ----------------------
    m_s = np.bincount(schedule.q_cluster, minlength=n).astype(float) if Q \
        else np.zeros(n)
    q_sources = np.nonzero(m_s)[0]
    total_flood = 0.0
    total_reach = 0.0
    resp_msgs = 0.0
    reach_count = np.zeros(n)
    F_reach = np.zeros((n, W))
    # Query-weighted per-hop flood profile (frontier clusters reached at
    # each depth, query messages sent from each depth) — the vectorized
    # stand-in for the event engine's per-query trace stream, one
    # bincount per block so it can stay on by default.
    hop_frontier = np.zeros(ttl + 1)
    hop_messages = np.zeros(ttl + 1)
    for start in range(0, q_sources.size, DEFAULT_BLOCK):
        src = q_sources[start:start + DEFAULT_BLOCK]
        fb = flood_block(graph, src, ttl)
        b = src.size
        rows = np.arange(b)
        mb = m_s[src]
        reached = fb.reached

        w_rows = np.broadcast_to(mb[:, np.newaxis], fb.depth.shape)
        depths = fb.depth[reached]
        hop_frontier += np.bincount(depths, weights=w_rows[reached],
                                    minlength=ttl + 1)[:ttl + 1]
        hop_messages += np.bincount(
            depths, weights=(fb.transmissions * w_rows)[reached],
            minlength=ttl + 1,
        )[:ttl + 1]

        tw = mb @ fb.transmissions
        rw = mb @ fb.receipts
        sp_out += tw * _QUERY_BYTES / k
        sp_proc += tw * (_SEND_Q + _MUX * m_sp) / k
        sp_in += rw * _QUERY_BYTES / k
        sp_proc += rw * (_RECV_Q + _MUX * m_sp) / k
        total_flood += float(fb.transmissions.sum(axis=1) @ mb)
        reach_s = fb.reach()
        total_reach += float(reach_s @ mb)
        reach_count[src] = reach_s
        F_reach[src] = reached @ F_wins.T

        # Index probe at every reached cluster (base + per-result).
        cnt = mb @ reached
        sp_proc += (
            costs.PROCESS_QUERY_BASE * cnt
            + costs.PROCESS_QUERY_PER_RESULT * (cnt / M) * W_res
        ) / k

        # Response channels: each source carries its share of the global
        # expected weights, masked to its reached set, zero at itself.
        Wb = (mb / M)[:, np.newaxis, np.newaxis] * W3[np.newaxis, :, :]
        Wb[~reached] = 0.0
        Wb[rows, src] = 0.0
        fw3 = fold_to_sources(fb.depth, fb.pred, Wb)
        fw_sum = fw3.sum(axis=0)
        inc = fw_sum - Wb.sum(axis=0)
        sender_sum = fw_sum.copy()
        np.subtract.at(sender_sum, src, fw3[rows, src])

        out_bytes, out_units = costs.response_costs(*sender_sum.T, m_sp, send=True)
        in_bytes, in_units = costs.response_costs(*inc.T, m_sp, send=False)
        sp_out += out_bytes / k
        sp_proc += out_units / k
        sp_in += in_bytes / k
        sp_proc += in_units / k
        resp_msgs += float(sender_sum[:, 0].sum())
    phase_started = _mark_phase(registry, "sim.array.flood", phase_started)

    # --- per-query client submit (exact) and sampled deliveries -------------
    total_results = 0.0
    if Q:
        q_src = schedule.q_cluster
        is_client_q = schedule.q_pick < clients[q_src]
        cq_src = q_src[is_client_q]
        cq_client = ptr[cq_src] + schedule.q_pick[is_client_q]
        np.add.at(cl_out, cq_client, float(_QUERY_BYTES))
        np.add.at(cl_proc, cq_client, _SEND_Q + _MUX * m_cl)
        np.add.at(sp_in, cq_src, _QUERY_BYTES / k)
        np.add.at(sp_proc, cq_src, (_RECV_Q + _MUX * m_sp[cq_src]) / k)

        f_q = model.f[j_q]
        Fq_src = F_wins[w_q, q_src]
        Fq_reach = F_reach[q_src, w_q]
        own = rng_a.binomial(np.maximum(Fq_src, 0.0).astype(np.int64), f_q)
        remote = rng_a.binomial(
            np.maximum(Fq_reach - Fq_src, 0.0).astype(np.int64), f_q
        )
        to_r = (own + remote).astype(float)
        total_results = float(to_r.sum())
        reach_q = reach_count[q_src]
        mm = rng_a.binomial(
            np.maximum(reach_q - 1, 0).astype(np.int64), pbar[j_q]
        )
        mm = np.where(
            remote > 0,
            np.clip(mm, 1, np.maximum(np.minimum(remote, reach_q - 1), 1)),
            0,
        )
        to_m = (own > 0).astype(float) + mm
        to_a = np.where(
            to_m > 0,
            np.clip(np.rint(to_r * a_frac[j_q]), to_m, to_r),
            0.0,
        )

        deliver = is_client_q & (to_m > 0)
        ds = q_src[deliver]
        dc = ptr[ds] + schedule.q_pick[deliver]
        dm, da, dr = to_m[deliver], to_a[deliver], to_r[deliver]
        bytes_to_client, send_units = costs.response_costs(dm, da, dr, m_sp[ds], send=True)
        _, recv_units = costs.response_costs(dm, da, dr, m_cl, send=False)
        np.add.at(sp_out, ds, bytes_to_client / k)
        np.add.at(sp_proc, ds, send_units / k)
        np.add.at(cl_in, dc, bytes_to_client)
        np.add.at(cl_proc, dc, recv_units)
        m_results.observe_many(to_r)

    _mark_phase(registry, "sim.array.delivery", phase_started)

    m_queries.add(float(Q))
    m_joins.add(float(num_joins))
    m_updates.add(float(U))
    m_query_messages.add(total_flood)
    m_response_messages.add(resp_msgs)
    m_events.add(float(Q + num_joins + U))
    registry.timer("sim.engine.run").record(perf_counter() - run_started)

    if tracer is not None and tracer.enabled:
        tracer.emit(
            "flood-summary",
            duration,
            queries=int(Q),
            ttl=int(ttl),
            frontier_per_hop=[float(x) for x in hop_frontier],
            messages_per_hop=[float(x) for x in hop_messages],
            mean_reach=total_reach / M,
        )

    return SimulationReport(
        duration=duration,
        num_queries=Q,
        num_joins=num_joins,
        num_updates=U,
        superpeer_incoming_bps=bytes_per_second_to_bps(sp_in / duration),
        superpeer_outgoing_bps=bytes_per_second_to_bps(sp_out / duration),
        superpeer_processing_hz=units_per_second_to_hz(sp_proc / duration),
        client_incoming_bps=bytes_per_second_to_bps(cl_in / duration),
        client_outgoing_bps=bytes_per_second_to_bps(cl_out / duration),
        client_processing_hz=units_per_second_to_hz(cl_proc / duration),
        mean_results_per_query=total_results / M,
        mean_reach_clusters=total_reach / M,
    )


# --- faulty path: shared event core, mean-field match sampler ----------------


def _make_meanfield_sampler(instance: NetworkInstance, model: QueryModel):
    """Build the array engine's faulty-run query function.

    Drop-in for ``network._run_query_faulty`` (the class ``j`` arrives
    pre-drawn from the shared schedule): replaces per-collection
    Binomial matches with cluster-level draws — hit ~
    Bernoulli(1 - (1-f_j)^F_c), with result and responder counts set to
    their conditional expectations given a hit — and hands off to the
    shared ``_process_query_faulty`` so retry, failover, response-loss
    and gossip semantics are the event engine's own code.
    """
    from .network import _orphan_query, _process_query_faulty

    n = instance.num_clusters
    k = instance.partners
    log_miss = np.log1p(-model.f)
    collections = np.concatenate(
        [instance.client_files, instance.partner_files.ravel()]
    )
    phi = _miss_power_table(log_miss, collections)
    np_static = (instance.clients + k).astype(float)

    def run_query(state, rt, source, client_index, j) -> None:
        rng = state.rng
        f_j = float(state.model.f[j])
        if rt.live[source] == 0:
            _orphan_query(state, rt, source, client_index)
            return
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
            n_results = np.zeros(n, dtype=np.int64)
            k_addr = np.zeros(n, dtype=np.int64)
        else:
            p_hit = -np.expm1(F * log_miss[j])
            hit = rng.random(n) < p_hit
            safe = np.where(p_hit > 0.0, p_hit, 1.0)
            n_results = np.where(
                hit, np.maximum(1, np.rint(f_j * F / safe)), 0
            ).astype(np.int64)
            k_addr = np.where(
                hit,
                np.clip(np.rint(np_c * (1.0 - phi[j]) / safe), 1, n_results),
                0,
            ).astype(np.int64)
        _process_query_faulty(state, rt, source, client_index,
                              n_results, k_addr)

    return run_query


def _simulate_faulty_array(
    instance, duration, model, rng, schedule, faults,
    fault_metrics, recovery, tracer,
):
    from .network import simulate_instance

    return simulate_instance(
        instance, duration=duration, model=model, rng=rng,
        faults=faults, fault_metrics=fault_metrics, recovery=recovery,
        tracer=tracer, engine="event", schedule=schedule,
        _faulty_query=_make_meanfield_sampler(instance, model),
    )
