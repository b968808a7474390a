"""Mean-value load analysis (Section 4.1, steps 2-3; Eqs. 1-4).

For one generated :class:`~repro.topology.builder.NetworkInstance`, this
module computes the expected load — incoming bandwidth, outgoing
bandwidth, processing — on every super-peer partner and every client,
plus the expected results per query and expected path length (EPL).

The computation follows the paper exactly:

* **Queries** flood the super-peer overlay by BFS with TTL (``routing``);
  every transmission, duplicate receipt, index probe, Response
  origination and reverse-path Response forward is charged to the node
  performing it using the Table 2 atomic costs (``costs``).  Expected
  result and address counts come from the Appendix B query model
  (``querymodel.expectation``).
* **Joins** are the client <-> super-peer metadata transfer of Section
  3.2, at per-node rates 1/lifespan, including the index insertion and
  the removal performed at the matching leave.  A super-peer's own join
  is a connection handshake with each of its open connections (one empty
  message each way); under k-redundancy a joining partner also ships its
  own metadata to its fellow partners.
* **Updates** are the fixed-size metadata deltas of Table 2.
* **k-redundancy** (Section 3.2): clients round-robin across the k
  partners, so each partner carries 1/k of the cluster's query traffic
  but a *full* copy of every client's join and update stream; every
  partner indexes all cluster data, and the open-connection counts grow
  as described in the paper (k^2 between neighbouring clusters).

Two evaluation modes: *exact* visits every source cluster; *sampled*
(seeded) visits a uniform subset and scales, keeping 20,000-peer
configurations tractable.  Strongly connected overlays use a closed-form
path that never materializes K_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants
from ..obs.attribution import NULL_ATTRIBUTION, NullAttribution
from ..obs.metrics import get_registry
from ..querymodel.distributions import QueryModel, default_query_model
from ..querymodel.expectation import ClusterExpectations, cluster_expectations
from ..stats.rng import derive_rng
from ..topology.builder import NetworkInstance
from ..topology.strong import CompleteGraph
from ..units import bytes_per_second_to_bps, units_per_second_to_hz
from . import costs
from .routing import DEFAULT_BLOCK, FloodBlock, flood_block, fold_to_sources
from .routing import propagate_query  # noqa: F401 - wrapped here by the per-layer tracer

#: Query message size with the default 12-byte query string (94 bytes).
_QUERY_BYTES = constants.QUERY_MESSAGE_BASE + constants.QUERY_STRING_LENGTH
_SEND_Q_UNITS = costs.SEND_QUERY_BASE + costs.SEND_QUERY_PER_BYTE * constants.QUERY_STRING_LENGTH
_RECV_Q_UNITS = costs.RECV_QUERY_BASE + costs.RECV_QUERY_PER_BYTE * constants.QUERY_STRING_LENGTH
_MUX = costs.MULTIPLEX_PER_CONNECTION

#: Handshake between a joining super-peer and one existing connection:
#: one empty message each way.  By definition (Section 4.1) sending plus
#: receiving an empty message costs one unit; we split it with the
#: empty-query send/recv constants, which sum to ~1.
_HANDSHAKE_BYTES = 80.0
_HANDSHAKE_SEND_UNITS = costs.SEND_QUERY_BASE
_HANDSHAKE_RECV_UNITS = costs.RECV_QUERY_BASE


@dataclass(frozen=True)
class LoadVector:
    """Load along the three resources, in the figures' units."""

    incoming_bps: float = 0.0
    outgoing_bps: float = 0.0
    processing_hz: float = 0.0

    def __add__(self, other: "LoadVector") -> "LoadVector":
        if not isinstance(other, LoadVector):
            return NotImplemented
        return LoadVector(
            self.incoming_bps + other.incoming_bps,
            self.outgoing_bps + other.outgoing_bps,
            self.processing_hz + other.processing_hz,
        )

    def __mul__(self, factor: float) -> "LoadVector":
        return LoadVector(
            self.incoming_bps * factor,
            self.outgoing_bps * factor,
            self.processing_hz * factor,
        )

    __rmul__ = __mul__

    @property
    def total_bandwidth_bps(self) -> float:
        """In + out bandwidth — what Figure 4 plots."""
        return self.incoming_bps + self.outgoing_bps

    def as_dict(self) -> dict:
        return {
            "incoming_bps": self.incoming_bps,
            "outgoing_bps": self.outgoing_bps,
            "processing_hz": self.processing_hz,
        }


@dataclass
class _Accumulator:
    """Per-cluster and per-client running byte/unit rates (per second)."""

    num_clusters: int
    total_clients: int

    def __post_init__(self) -> None:
        n, m = self.num_clusters, self.total_clients
        # Cluster-level query-traffic totals (summed over partners).
        self.q_in = np.zeros(n)
        self.q_out = np.zeros(n)
        self.q_proc = np.zeros(n)
        # Per-partner join/update/handshake loads (each partner incurs these
        # in full, they are not split by redundancy).
        self.p_in = np.zeros(n)
        self.p_out = np.zeros(n)
        self.p_proc = np.zeros(n)
        # Per-client loads (flat arrays aligned with instance.client_files).
        self.c_in = np.zeros(m)
        self.c_out = np.zeros(m)
        self.c_proc = np.zeros(m)


@dataclass(frozen=True)
class LoadReport:
    """Expected loads and query outcomes for one network instance (Eq. 1-4)."""

    instance: NetworkInstance
    expectations: ClusterExpectations

    #: Per-partner load of each cluster's super-peer (n-vectors, figure units).
    superpeer_incoming_bps: np.ndarray
    superpeer_outgoing_bps: np.ndarray
    superpeer_processing_hz: np.ndarray

    #: Per-client loads (flat arrays over all clients).
    client_incoming_bps: np.ndarray
    client_outgoing_bps: np.ndarray
    client_processing_hz: np.ndarray

    #: Expected results per query and response EPL, by source cluster.
    #: In sampled mode, entries for unsampled sources are NaN.
    results_per_query: np.ndarray
    epl_per_query: np.ndarray
    reach_clusters: np.ndarray
    reach_peers: np.ndarray

    #: Which source clusters were evaluated, and the scale-up factor.
    evaluated_sources: np.ndarray
    source_scale: float

    # --- aggregates (Eq. 4) ----------------------------------------------------

    @property
    def partners(self) -> int:
        return self.instance.partners

    def aggregate_load(self) -> LoadVector:
        """E[M | I]: sum of the loads of all nodes in the system (Eq. 4)."""
        k = self.partners
        return LoadVector(
            incoming_bps=float(k * self.superpeer_incoming_bps.sum() + self.client_incoming_bps.sum()),
            outgoing_bps=float(k * self.superpeer_outgoing_bps.sum() + self.client_outgoing_bps.sum()),
            processing_hz=float(k * self.superpeer_processing_hz.sum() + self.client_processing_hz.sum()),
        )

    def mean_superpeer_load(self) -> LoadVector:
        """E[M_Q | I] with Q = the super-peer partners (Eq. 3)."""
        return LoadVector(
            incoming_bps=float(self.superpeer_incoming_bps.mean()),
            outgoing_bps=float(self.superpeer_outgoing_bps.mean()),
            processing_hz=float(self.superpeer_processing_hz.mean()),
        )

    def mean_client_load(self) -> LoadVector:
        """E[M_Q | I] with Q = the clients (zero vector if there are none)."""
        if self.client_incoming_bps.size == 0:
            return LoadVector()
        return LoadVector(
            incoming_bps=float(self.client_incoming_bps.mean()),
            outgoing_bps=float(self.client_outgoing_bps.mean()),
            processing_hz=float(self.client_processing_hz.mean()),
        )

    def mean_results_per_query(self) -> float:
        """E[R_S] (Eq. 2) averaged over evaluated source clusters."""
        values = self.results_per_query[self.evaluated_sources]
        return float(values.mean()) if values.size else 0.0

    def mean_epl(self) -> float:
        """Response-message-weighted expected path length."""
        values = self.epl_per_query[self.evaluated_sources]
        finite = values[np.isfinite(values)]
        return float(finite.mean()) if finite.size else 0.0

    def mean_reach_clusters(self) -> float:
        values = self.reach_clusters[self.evaluated_sources]
        return float(values.mean()) if values.size else 0.0

    def mean_reach_peers(self) -> float:
        values = self.reach_peers[self.evaluated_sources]
        return float(values.mean()) if values.size else 0.0

    def all_node_loads(self, resource: str) -> np.ndarray:
        """Every node's load for one resource — the Figure 12 rank plot.

        ``resource`` is one of ``"incoming"``, ``"outgoing"``,
        ``"processing"``.  Super-peer partners are repeated k times.
        """
        arrays = {
            "incoming": (self.superpeer_incoming_bps, self.client_incoming_bps),
            "outgoing": (self.superpeer_outgoing_bps, self.client_outgoing_bps),
            "processing": (self.superpeer_processing_hz, self.client_processing_hz),
        }
        if resource not in arrays:
            raise ValueError(f"unknown resource {resource!r}")
        sp, cl = arrays[resource]
        return np.concatenate([np.repeat(sp, self.partners), cl])


#: The three action workloads of the analysis (Section 4.1, step 3).
WORKLOAD_COMPONENTS = ("query", "join", "update")

#: How Response messages travel back to the source (Section 3.1).  The
#: paper assumes the reverse path ("it will travel up the predecessor
#: graph ... until it reaches the source"); the alternative it discusses
#: — each responder opening a temporary connection and transferring
#: results directly — is provided as an ablation.
RESPONSE_MODES = ("reverse-path", "direct")


def evaluate_instance(
    instance: NetworkInstance,
    model: QueryModel | None = None,
    max_sources: int | None = None,
    rng: np.random.Generator | int | None = None,
    components: tuple[str, ...] = WORKLOAD_COMPONENTS,
    response_mode: str = "reverse-path",
    attribution=None,
) -> LoadReport:
    """Run the mean-value analysis over one instance.

    Parameters
    ----------
    instance:
        The generated network (Section 4.1, step 1).
    model:
        Query model; defaults to the calibrated OpenNap substitute.
    max_sources:
        If given and smaller than the number of clusters, evaluate a
        uniform random subset of source clusters and scale up (seeded by
        ``rng``).  Exact otherwise.
    components:
        Which action workloads to include — any subset of
        ``("query", "join", "update")``.  Restricting the set decomposes
        load by action type (used by the relative-rate study of
        Appendix C and by the simulator cross-validation tests).
    response_mode:
        ``"reverse-path"`` (the paper's model) or ``"direct"``: each
        responder opens a temporary connection to the source and ships
        its Response in one hop, paying a connection handshake but no
        forwarding — the Section 3.1 alternative, as an ablation.
    attribution:
        Optional :class:`~repro.obs.attribution.LoadAttribution` that
        receives a copy of every contribution added to the accumulators,
        tagged (node, action, resource, hop).  Observation-only: the
        numeric outputs are bit-identical with or without it.
    """
    unknown = set(components) - set(WORKLOAD_COMPONENTS)
    if unknown:
        raise ValueError(f"unknown workload components: {sorted(unknown)}")
    if response_mode not in RESPONSE_MODES:
        raise ValueError(
            f"unknown response_mode {response_mode!r}; one of {RESPONSE_MODES}"
        )
    if max_sources is not None and max_sources < 1:
        raise ValueError("max_sources must be >= 1")
    model = model or default_query_model()
    att = NULL_ATTRIBUTION if attribution is None else attribution
    att.bind(instance)
    metrics = get_registry()
    with metrics.timer("load.expectations").time():
        exp = cluster_expectations(instance, model)
    acc = _Accumulator(instance.num_clusters, instance.total_clients)

    n = instance.num_clusters
    if max_sources is None or max_sources >= n:
        sources = np.arange(n, dtype=np.int64)
        scale = 1.0
    else:
        sampler = derive_rng(rng, "load-sources")
        sources = np.sort(sampler.choice(n, size=max_sources, replace=False))
        scale = n / max_sources

    per_source = _QuerySourceOutputs(n)
    if "query" in components:
        with metrics.timer("load.queries").time():
            if isinstance(instance.graph, CompleteGraph):
                # On K_n every responder already neighbours the source, so the
                # reverse path *is* the direct hop (minus the temporary
                # connection handshake, which the ablation adds below).
                _accumulate_queries_strong(instance, exp, acc, per_source, att)
                if response_mode == "direct":
                    _add_direct_connection_overhead(instance, exp, acc, att)
                # Closed form is exact over all sources regardless of sampling.
                sources = np.arange(n, dtype=np.int64)
                scale = 1.0
            else:
                _accumulate_queries_bfs(
                    instance, exp, acc, per_source, sources, scale, response_mode, att
                )
            _accumulate_client_query_costs(instance, acc, per_source, sources, scale, att)
        metrics.counter("load.query_sources_evaluated").add(len(sources))
    if "join" in components:
        with metrics.timer("load.joins").time():
            _accumulate_joins(instance, acc, att)
    if "update" in components:
        with metrics.timer("load.updates").time():
            _accumulate_updates(instance, acc, att)
    metrics.counter("load.instances_evaluated").add()
    metrics.gauge("load.last_num_clusters").set(float(n))

    k = instance.partners
    sp_in = acc.q_in / k + acc.p_in
    sp_out = acc.q_out / k + acc.p_out
    sp_proc = acc.q_proc / k + acc.p_proc

    return LoadReport(
        instance=instance,
        expectations=exp,
        superpeer_incoming_bps=bytes_per_second_to_bps(sp_in),
        superpeer_outgoing_bps=bytes_per_second_to_bps(sp_out),
        superpeer_processing_hz=units_per_second_to_hz(sp_proc),
        client_incoming_bps=bytes_per_second_to_bps(acc.c_in),
        client_outgoing_bps=bytes_per_second_to_bps(acc.c_out),
        client_processing_hz=units_per_second_to_hz(acc.c_proc),
        results_per_query=per_source.results,
        epl_per_query=per_source.epl,
        reach_clusters=per_source.reach_clusters,
        reach_peers=per_source.reach_peers,
        evaluated_sources=sources,
        source_scale=scale,
    )


class _QuerySourceOutputs:
    """Per-source query outcomes filled in during accumulation."""

    def __init__(self, num_clusters: int) -> None:
        self.results = np.full(num_clusters, np.nan)
        self.epl = np.full(num_clusters, np.nan)
        self.reach_clusters = np.full(num_clusters, np.nan)
        self.reach_peers = np.full(num_clusters, np.nan)
        # Response traffic delivered to the querying client, per source
        # cluster and per query: messages / addresses / results.
        self.to_client_msgs = np.full(num_clusters, np.nan)
        self.to_client_addr = np.full(num_clusters, np.nan)
        self.to_client_results = np.full(num_clusters, np.nan)


def _cluster_rates(instance: NetworkInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users per cluster, query rate per cluster, client fraction)."""
    users = instance.clients + instance.partners
    q_rates = instance.config.query_rate * users
    client_fraction = np.divide(
        instance.clients, users, out=np.zeros_like(q_rates), where=users > 0
    )
    return users.astype(float), q_rates, client_fraction


def _response_triple(exp: ClusterExpectations) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(expected messages, addresses, results) originated per cluster."""
    return exp.prob_respond, exp.expected_collections, exp.expected_results


def _query_units(m_sp: np.ndarray, results: np.ndarray) -> dict[str, np.ndarray]:
    """Processing units per query send, receipt, index probe (given each
    node's expected results) and direct-Response handshake pair, per node."""
    return {
        "send": _SEND_Q_UNITS + _MUX * m_sp,
        "recv": _RECV_Q_UNITS + _MUX * m_sp,
        "probe": costs.PROCESS_QUERY_BASE + costs.PROCESS_QUERY_PER_RESULT * results,
        "handshake": _HANDSHAKE_SEND_UNITS + _HANDSHAKE_RECV_UNITS + 2.0 * _MUX * m_sp,
    }


def charge_block(
    fb: FloodBlock, w: np.ndarray, origin: np.ndarray, m_sp: np.ndarray,
    acc: _Accumulator, direct: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Charge a block of fault-free floods to ``acc`` (Section 4.1, Eqs. 1-2).

    ``w`` (b,) is each row's query rate and ``origin`` (3, n) the Response
    messages, addresses and results each node originates per query it
    processes; ``origin[2]`` also prices its index probe.  Adds to
    ``acc.q_out``, ``q_in`` and ``q_proc`` the query sends and receipts,
    the probe at every reached node (source included) and the Responses
    of every reached node but the source: folded up the reverse path, or
    with ``direct`` one hop each plus a connection handshake pair (the
    Section 3.1 alternative).

    Returns channel-major ``(resp, sent, arrived)``: what each node
    originates (3, b, n), what it ships toward the source (3, b, n; zero
    at the source) and what reaches each source (3, b).
    """
    src = fb.sources
    rows = np.arange(src.size)
    reached = fb.reached
    units = _query_units(m_sp, origin[2])

    tw = w @ fb.transmissions
    rw = w @ fb.receipts
    acc.q_out += tw * _QUERY_BYTES
    acc.q_proc += tw * units["send"]
    acc.q_in += rw * _QUERY_BYTES
    acc.q_proc += rw * units["recv"]
    acc.q_proc += (w @ reached) * units["probe"]

    resp = np.where(reached, origin[:, np.newaxis, :], 0.0)
    resp[:, rows, src] = 0.0
    if direct:
        sent = resp
        arrived = resp.sum(axis=2)
    else:
        sent = fold_to_sources(fb.depth, fb.pred, resp)
        arrived = sent[:, rows, src]
        sent[:, rows, src] = 0.0
    at_source = np.zeros_like(origin)
    np.add.at(at_source.T, src, (w * arrived).T)
    out = w @ sent
    inc = w @ (sent - resp) + at_source
    if direct:
        handshakes = out[0] + at_source[0]
        acc.q_out += handshakes * _HANDSHAKE_BYTES
        acc.q_in += handshakes * _HANDSHAKE_BYTES
        acc.q_proc += handshakes * units["handshake"]
    out_bytes, out_units = costs.response_costs(*out, m_sp, send=True)
    in_bytes, in_units = costs.response_costs(*inc, m_sp, send=False)
    acc.q_out += out_bytes
    acc.q_proc += out_units
    acc.q_in += in_bytes
    acc.q_proc += in_units
    return resp, sent, arrived


def _accumulate_queries_bfs(
    instance: NetworkInstance,
    exp: ClusterExpectations,
    acc: _Accumulator,
    per_source: _QuerySourceOutputs,
    sources: np.ndarray,
    scale: float,
    response_mode: str = "reverse-path",
    att: NullAttribution = NULL_ATTRIBUTION,
) -> None:
    """Flooding query accounting over an explicit overlay.

    Sources go through the shared flood kernel ``DEFAULT_BLOCK`` at a
    time, and :func:`charge_block` charges each block at the sources'
    (scaled) query rates.
    """
    graph = instance.graph
    ttl = instance.config.ttl
    m_sp = instance.superpeer_connections.astype(float)
    users, q_rates, _ = _cluster_rates(instance)
    origin = np.stack(_response_triple(exp))  # (3, n) msgs/addr/res
    direct = response_mode == "direct"

    for start in range(0, sources.size, DEFAULT_BLOCK):
        src = sources[start:start + DEFAULT_BLOCK]
        fb = flood_block(graph, src, ttl)
        w = q_rates[src] * scale
        resp, sent, arrived = charge_block(fb, w, origin, m_sp, acc, direct)

        if att.enabled:
            _attribute_block(att, fb, w, resp, sent, arrived, origin, m_sp, direct)

        # Per-source outcomes.
        total_msgs = resp[0].sum(axis=1)
        if direct:
            # Every response travels one direct hop.
            per_source.epl[src] = (total_msgs > 0).astype(float)
        else:
            per_source.epl[src] = np.divide(
                (fb.depth * resp[0]).sum(axis=1), total_msgs,
                out=np.zeros(src.size), where=total_msgs > 0,
            )
        per_source.reach_clusters[src] = fb.reach()
        per_source.reach_peers[src] = fb.reached @ users
        to_client = arrived + origin[:, src]
        per_source.results[src] = to_client[2]
        per_source.to_client_msgs[src] = to_client[0]
        per_source.to_client_addr[src] = to_client[1]
        per_source.to_client_results[src] = to_client[2]


def _attribute_block(att, fb, w, resp, sent, arrived, origin, m_sp, direct) -> None:
    """Feed one block's query and Response charges (:func:`charge_block`)
    to the attribution hooks, row by row, each tagged with its BFS hop."""
    units = _query_units(m_sp, origin[2])
    for i in range(fb.sources.size):
        prop = fb.row(i)
        depth, rate = prop.depth, w[i]
        att.add_q_by_depth("query", "out_bw", depth, rate * prop.transmissions * _QUERY_BYTES)
        att.add_q_by_depth("query", "proc", depth, rate * prop.transmissions * units["send"])
        att.add_q_by_depth("query", "in_bw", depth, rate * prop.receipts * _QUERY_BYTES)
        att.add_q_by_depth("query", "proc", depth, rate * prop.receipts * units["recv"])
        att.add_q_by_depth("query", "proc", depth, rate * prop.reached * units["probe"])
        at_source = np.zeros_like(origin)
        at_source[:, prop.source] = rate * arrived[:, i]
        out = rate * sent[:, i]
        inc = rate * (sent[:, i] - resp[:, i]) + at_source
        if direct:
            handshakes = out[0] + at_source[0]
            att.add_q_by_depth("response", "out_bw", depth, handshakes * _HANDSHAKE_BYTES)
            att.add_q_by_depth("response", "in_bw", depth, handshakes * _HANDSHAKE_BYTES)
            att.add_q_by_depth("response", "proc", depth, handshakes * units["handshake"])
        out_bytes, out_units = costs.response_costs(*out, m_sp, send=True)
        in_bytes, in_units = costs.response_costs(*inc, m_sp, send=False)
        att.add_q_by_depth("response", "out_bw", depth, out_bytes)
        att.add_q_by_depth("response", "proc", depth, out_units)
        att.add_q_by_depth("response", "in_bw", depth, in_bytes)
        att.add_q_by_depth("response", "proc", depth, in_units)
        if direct:
            att.add_edges(prop, rate, None, None, None)  # flood edges only
        else:
            att.add_edges(prop, rate, *sent[:, i])


def _accumulate_queries_strong(
    instance: NetworkInstance,
    exp: ClusterExpectations,
    acc: _Accumulator,
    per_source: _QuerySourceOutputs,
    att: NullAttribution = NULL_ATTRIBUTION,
) -> None:
    """Closed-form query accounting on the complete overlay K_n.

    On K_n every non-source cluster sits at depth 1, so responses travel
    one hop (EPL = 1) and nothing is forwarded.  With TTL >= 2 each
    non-source node additionally floods n-2 duplicate copies, which are
    received and dropped — the redundant-query waste rule #4 measures.
    Exact over all sources at O(n) cost.
    """
    n = instance.num_clusters
    ttl = instance.config.ttl
    m_sp = instance.superpeer_connections.astype(float)
    users, q_rates, _ = _cluster_rates(instance)
    msgs_o, addr_o, res_o = _response_triple(exp)

    total_q = q_rates.sum()
    others_q = total_q - q_rates  # rate of queries sourced elsewhere
    units = _query_units(m_sp, res_o)

    # --- query transmissions / receipts ---------------------------------------
    # As source: n-1 transmissions per own query.
    src_tx = q_rates * (n - 1) * _QUERY_BYTES
    src_tx_proc = q_rates * (n - 1) * units["send"]
    acc.q_out += src_tx
    acc.q_proc += src_tx_proc
    # As non-source: one receipt per foreign query...
    rx = others_q * _QUERY_BYTES
    rx_proc = others_q * units["recv"]
    acc.q_in += rx
    acc.q_proc += rx_proc
    if att.enabled:
        att.add_q("query", "out_bw", src_tx, hop=0)
        att.add_q("query", "proc", src_tx_proc, hop=0)
        att.add_q("query", "in_bw", rx, hop=1)
        att.add_q("query", "proc", rx_proc, hop=1)
    if ttl >= 2 and n > 2:
        # ...plus n-2 duplicate forwards sent and n-2 duplicates received.
        dup_tx = others_q * (n - 2) * _QUERY_BYTES
        dup_tx_proc = others_q * (n - 2) * units["send"]
        dup_rx = others_q * (n - 2) * _QUERY_BYTES
        dup_rx_proc = others_q * (n - 2) * units["recv"]
        acc.q_out += dup_tx
        acc.q_proc += dup_tx_proc
        acc.q_in += dup_rx
        acc.q_proc += dup_rx_proc
        if att.enabled:
            att.add_q("query", "out_bw", dup_tx, hop=1)
            att.add_q("query", "proc", dup_tx_proc, hop=1)
            att.add_q("query", "in_bw", dup_rx, hop=2)
            att.add_q("query", "proc", dup_rx_proc, hop=2)

    # --- index probes -----------------------------------------------------------
    # Every query in the system (own + foreign) probes every cluster's index.
    acc.q_proc += total_q * units["probe"]
    if att.enabled:
        # Split the total into the own-query (hop 0) and foreign (hop 1)
        # shares; the sum differs from the total only by ulps.
        att.add_q("query", "proc", q_rates * units["probe"], hop=0)
        att.add_q("query", "proc", others_q * units["probe"], hop=1)

    # --- responses ---------------------------------------------------------------
    # As responder (for every foreign query): send own response directly.
    out_bytes, out_units = costs.response_costs(msgs_o, addr_o, res_o, m_sp, send=True)
    resp_out = others_q * out_bytes
    resp_out_proc = others_q * out_units
    acc.q_out += resp_out
    acc.q_proc += resp_out_proc
    # As source: receive every other cluster's response.
    tot_m, tot_a, tot_r = msgs_o.sum(), addr_o.sum(), res_o.sum()
    arr_m, arr_a, arr_r = tot_m - msgs_o, tot_a - addr_o, tot_r - res_o
    in_bytes, in_units = costs.response_costs(arr_m, arr_a, arr_r, m_sp, send=False)
    resp_in = q_rates * in_bytes
    resp_in_proc = q_rates * in_units
    acc.q_in += resp_in
    acc.q_proc += resp_in_proc
    if att.enabled:
        att.add_q("response", "out_bw", resp_out, hop=1)
        att.add_q("response", "proc", resp_out_proc, hop=1)
        att.add_q("response", "in_bw", resp_in, hop=0)
        att.add_q("response", "proc", resp_in_proc, hop=0)

    # --- per-source outcomes -------------------------------------------------------
    per_source.results[:] = tot_r  # full reach: every cluster contributes
    per_source.epl[:] = 1.0 if n > 1 else 0.0
    per_source.reach_clusters[:] = n
    per_source.reach_peers[:] = users.sum()
    per_source.to_client_msgs[:] = arr_m + msgs_o
    per_source.to_client_addr[:] = arr_a + addr_o
    per_source.to_client_results[:] = arr_r + res_o


def _add_direct_connection_overhead(
    instance: NetworkInstance,
    exp: ClusterExpectations,
    acc: _Accumulator,
    att: NullAttribution = NULL_ATTRIBUTION,
) -> None:
    """Temporary-connection handshakes for direct responses on K_n.

    On the complete overlay each response already travels one hop; the
    only delta of the ``direct`` ablation is the handshake pair each
    responder/source exchanges to open the temporary connection.
    """
    users, q_rates, _ = _cluster_rates(instance)
    m_sp = instance.superpeer_connections.astype(float)
    msgs_o = exp.prob_respond
    total_q = q_rates.sum()
    others_q = total_q - q_rates
    # As responder: one handshake pair per response to a foreign query.
    per_responder = others_q * msgs_o
    # As source: one handshake pair per arriving response.
    arriving = q_rates * (msgs_o.sum() - msgs_o)
    handshakes = per_responder + arriving
    hs_bytes = handshakes * _HANDSHAKE_BYTES
    hs_proc = handshakes * (
        _HANDSHAKE_SEND_UNITS + _HANDSHAKE_RECV_UNITS + 2.0 * _MUX * m_sp
    )
    acc.q_out += hs_bytes
    acc.q_in += hs_bytes
    acc.q_proc += hs_proc
    if att.enabled:
        # Responder-side handshakes happen one hop out; the source's own
        # happen at hop 0.  The split differs from the total only by ulps.
        hs_unit = _HANDSHAKE_SEND_UNITS + _HANDSHAKE_RECV_UNITS + 2.0 * _MUX * m_sp
        att.add_q("response", "out_bw", per_responder * _HANDSHAKE_BYTES, hop=1)
        att.add_q("response", "in_bw", per_responder * _HANDSHAKE_BYTES, hop=1)
        att.add_q("response", "proc", per_responder * hs_unit, hop=1)
        att.add_q("response", "out_bw", arriving * _HANDSHAKE_BYTES, hop=0)
        att.add_q("response", "in_bw", arriving * _HANDSHAKE_BYTES, hop=0)
        att.add_q("response", "proc", arriving * hs_unit, hop=0)


def _accumulate_client_query_costs(
    instance: NetworkInstance,
    acc: _Accumulator,
    per_source: _QuerySourceOutputs,
    sources: np.ndarray,
    scale: float,
    att: NullAttribution = NULL_ATTRIBUTION,
) -> None:
    """The client leg of client-sourced queries.

    A querying client sends the query to (one of) its super-peer
    partner(s) and receives every Response the super-peer collects —
    including the super-peer's own-index results — forwarded as individual
    Response messages (Section 3.2).
    """
    config = instance.config
    n = instance.num_clusters
    k = instance.partners
    m_sp = instance.superpeer_connections.astype(float)
    m_cl = float(instance.client_connections)
    users, q_rates, client_fraction = _cluster_rates(instance)

    # Per-cluster, per-query response volume to the client.  In sampled
    # mode unsampled clusters inherit the sampled mean (the statistic is
    # homogeneous across clusters of the same configuration).
    msgs = per_source.to_client_msgs
    addr = per_source.to_client_addr
    res = per_source.to_client_results
    evaluated = np.zeros(n, dtype=bool)
    evaluated[sources] = True
    if not evaluated.all():
        msgs = np.where(evaluated, msgs, np.nanmean(msgs[evaluated]))
        addr = np.where(evaluated, addr, np.nanmean(addr[evaluated]))
        res = np.where(evaluated, res, np.nanmean(res[evaluated]))

    # Rate of client-sourced queries per cluster.
    cq_rate = q_rates * client_fraction

    # Super-peer side: receive the query, send the collected responses.
    cq_in = cq_rate * _QUERY_BYTES
    cq_in_proc = cq_rate * (_RECV_Q_UNITS + _MUX * m_sp)
    acc.q_in += cq_in
    acc.q_proc += cq_in_proc
    resp_bytes, sp_units = costs.response_costs(msgs, addr, res, m_sp, send=True)
    sp_resp_out = cq_rate * resp_bytes
    sp_resp_proc = cq_rate * sp_units
    acc.q_out += sp_resp_out
    acc.q_proc += sp_resp_proc
    if att.enabled:
        att.add_q("query", "in_bw", cq_in, hop=0)
        att.add_q("query", "proc", cq_in_proc, hop=0)
        att.add_q("response", "out_bw", sp_resp_out, hop=0)
        att.add_q("response", "proc", sp_resp_proc, hop=0)

    # Client side: each client submits queries at the per-user rate.
    q = config.query_rate
    cluster_of_client = np.repeat(np.arange(n), instance.clients)
    if cluster_of_client.size:
        cl_q_out = q * _QUERY_BYTES
        cl_q_proc = q * (_SEND_Q_UNITS + _MUX * m_cl)
        cl_resp_in = q * resp_bytes[cluster_of_client]
        cl_resp_proc = q * costs.response_costs(
            msgs, addr, res, m_cl, send=False
        )[1][cluster_of_client]
        acc.c_out += cl_q_out
        acc.c_proc += cl_q_proc
        acc.c_in += cl_resp_in
        acc.c_proc += cl_resp_proc
        if att.enabled:
            att.add_c("query", "out_bw", cl_q_out)
            att.add_c("query", "proc", cl_q_proc)
            att.add_c("response", "in_bw", cl_resp_in)
            att.add_c("response", "proc", cl_resp_proc)


def _cluster_sum(values: np.ndarray, instance: NetworkInstance) -> np.ndarray:
    """Sum a flat per-client array into per-cluster totals."""
    sums = np.add.reduceat(np.append(values, 0.0), instance.client_ptr[:-1])
    sums[instance.clients == 0] = 0.0
    return sums


def _neighbor_sum(instance: NetworkInstance, values: np.ndarray) -> np.ndarray:
    """For each cluster, the sum of ``values`` over its overlay neighbours."""
    graph = instance.graph
    if isinstance(graph, CompleteGraph):
        return values.sum() - values
    tails, heads = graph.directed_edge_arrays()
    return np.bincount(
        tails, weights=values[heads], minlength=instance.num_clusters
    )


def _accumulate_joins(
    instance: NetworkInstance,
    acc: _Accumulator,
    att: NullAttribution = NULL_ATTRIBUTION,
) -> None:
    """Join (and the associated leave) costs at per-node rates 1/lifespan."""
    k = instance.partners
    m_sp = instance.superpeer_connections.astype(float)
    m_cl = float(instance.client_connections)

    # --- client joins ----------------------------------------------------------
    rates = 1.0 / instance.client_lifespans
    files = instance.client_files.astype(float)
    rate_sum = _cluster_sum(rates, instance)
    rate_files_sum = _cluster_sum(rates * files, instance)

    # Client side: send the Join (with metadata) to each of the k partners.
    if rates.size:
        cj_out = rates * k * (
            constants.JOIN_MESSAGE_BASE + constants.FILE_METADATA_SIZE * files
        )
        cj_proc = rates * k * (
            costs.SEND_JOIN_BASE
            + costs.SEND_JOIN_PER_FILE * files
            + _MUX * m_cl
        )
        acc.c_out += cj_out
        acc.c_proc += cj_proc
        if att.enabled:
            att.add_c("join", "out_bw", cj_out)
            att.add_c("join", "proc", cj_proc)

    # Partner side: every partner receives every client's Join, inserts the
    # metadata, and removes it again at the client's leave.
    pj_in = (
        constants.JOIN_MESSAGE_BASE * rate_sum
        + constants.FILE_METADATA_SIZE * rate_files_sum
    )
    pj_proc = (
        (costs.RECV_JOIN_BASE + _MUX * m_sp) * rate_sum
        + costs.RECV_JOIN_PER_FILE * rate_files_sum
        # index insertion at join + removal at leave
        + 2.0 * (costs.PROCESS_JOIN_BASE * rate_sum + costs.PROCESS_JOIN_PER_FILE * rate_files_sum)
    )
    acc.p_in += pj_in
    acc.p_proc += pj_proc
    if att.enabled:
        att.add_p("join", "in_bw", pj_in)
        att.add_p("join", "proc", pj_proc)

    # --- super-peer (partner) joins ---------------------------------------------
    # A joining partner handshakes (one empty message each way) over every
    # connection it opens; the peers at the other end each handle one pair.
    partner_rates = (1.0 / instance.partner_lifespans).sum(axis=1)  # per cluster
    own_hs = (partner_rates / k) * _HANDSHAKE_BYTES * m_sp
    own_hs_proc = (partner_rates / k) * m_sp * (
        _HANDSHAKE_SEND_UNITS + _HANDSHAKE_RECV_UNITS + 2.0 * _MUX * m_sp
    )
    acc.p_in += own_hs
    acc.p_out += own_hs
    acc.p_proc += own_hs_proc
    if att.enabled:
        att.add_p("join", "in_bw", own_hs)
        att.add_p("join", "out_bw", own_hs)
        att.add_p("join", "proc", own_hs_proc)

    # Peers on the other end of those handshakes:
    # * this cluster's clients (each is touched by each partner join),
    cluster_of_client = np.repeat(np.arange(instance.num_clusters), instance.clients)
    if cluster_of_client.size:
        touch = partner_rates[cluster_of_client]
        touch_hs = touch * _HANDSHAKE_BYTES
        touch_proc = touch * (
            _HANDSHAKE_SEND_UNITS + _HANDSHAKE_RECV_UNITS + 2.0 * _MUX * m_cl
        )
        acc.c_in += touch_hs
        acc.c_out += touch_hs
        acc.c_proc += touch_proc
        if att.enabled:
            att.add_c("join", "in_bw", touch_hs)
            att.add_c("join", "out_bw", touch_hs)
            att.add_c("join", "proc", touch_proc)
    # * fellow partners ((k-1) of the k partner connections, split evenly),
    if k > 1:
        fellow = partner_rates * (k - 1) / k
        fellow_hs = fellow * _HANDSHAKE_BYTES
        fellow_proc = fellow * (
            _HANDSHAKE_SEND_UNITS + _HANDSHAKE_RECV_UNITS + 2.0 * _MUX * m_sp
        )
        acc.p_in += fellow_hs
        acc.p_out += fellow_hs
        acc.p_proc += fellow_proc
        if att.enabled:
            att.add_p("join", "in_bw", fellow_hs)
            att.add_p("join", "out_bw", fellow_hs)
            att.add_p("join", "proc", fellow_proc)
    # * neighbouring clusters' partners (k handshakes per neighbouring
    #   cluster per join, i.e. one per partner there).
    neighbour_rates = _neighbor_sum(instance, partner_rates)
    nb_hs = neighbour_rates * _HANDSHAKE_BYTES
    nb_proc = neighbour_rates * (
        _HANDSHAKE_SEND_UNITS + _HANDSHAKE_RECV_UNITS + 2.0 * _MUX * m_sp
    )
    acc.p_in += nb_hs
    acc.p_out += nb_hs
    acc.p_proc += nb_proc
    if att.enabled:
        att.add_p("join", "in_bw", nb_hs)
        att.add_p("join", "out_bw", nb_hs)
        att.add_p("join", "proc", nb_proc)

    # Under redundancy, a joining partner also ships its own metadata to
    # its k-1 fellow partners (each partner holds the others' data too).
    if k > 1:
        p_rates = 1.0 / instance.partner_lifespans  # (n, k)
        p_files = instance.partner_files.astype(float)
        rate_sum_p = (p_rates).sum(axis=1)
        rate_files_p = (p_rates * p_files).sum(axis=1)
        meta_bytes = (k - 1) / k * (
            constants.JOIN_MESSAGE_BASE * rate_sum_p
            + constants.FILE_METADATA_SIZE * rate_files_p
        )
        # Sender side (averaged over the cluster's partners):
        meta_out_proc = (k - 1) / k * (
            (costs.SEND_JOIN_BASE + _MUX * m_sp) * rate_sum_p
            + costs.SEND_JOIN_PER_FILE * rate_files_p
        )
        acc.p_out += meta_bytes
        acc.p_proc += meta_out_proc
        # Receiver side: each fellow partner receives, inserts, and later
        # removes the metadata.
        meta_in_proc = (k - 1) / k * (
            (costs.RECV_JOIN_BASE + _MUX * m_sp) * rate_sum_p
            + costs.RECV_JOIN_PER_FILE * rate_files_p
            + 2.0 * (costs.PROCESS_JOIN_BASE * rate_sum_p + costs.PROCESS_JOIN_PER_FILE * rate_files_p)
        )
        acc.p_in += meta_bytes
        acc.p_proc += meta_in_proc
        if att.enabled:
            att.add_p("join", "out_bw", meta_bytes)
            att.add_p("join", "proc", meta_out_proc)
            att.add_p("join", "in_bw", meta_bytes)
            att.add_p("join", "proc", meta_in_proc)


def _accumulate_updates(
    instance: NetworkInstance,
    acc: _Accumulator,
    att: NullAttribution = NULL_ATTRIBUTION,
) -> None:
    """Update costs: fixed-size metadata deltas at the per-user update rate."""
    u = instance.config.update_rate
    if u == 0.0:
        return
    k = instance.partners
    m_sp = instance.superpeer_connections.astype(float)
    m_cl = float(instance.client_connections)
    upd_bytes = float(constants.UPDATE_MESSAGE_SIZE)

    # Clients: send one Update to each partner; partners receive and apply.
    clients = instance.clients.astype(float)
    if instance.total_clients:
        cu_out = u * k * upd_bytes
        cu_proc = u * k * (costs.SEND_UPDATE_UNITS + _MUX * m_cl)
        acc.c_out += cu_out
        acc.c_proc += cu_proc
        if att.enabled:
            att.add_c("update", "out_bw", cu_out)
            att.add_c("update", "proc", cu_proc)
    pu_in = u * clients * upd_bytes
    pu_proc = u * clients * (
        costs.RECV_UPDATE_UNITS + _MUX * m_sp + costs.PROCESS_UPDATE_UNITS
    )
    acc.p_in += pu_in
    acc.p_proc += pu_proc
    if att.enabled:
        att.add_p("update", "in_bw", pu_in)
        att.add_p("update", "proc", pu_proc)

    # Partners' own updates: applied locally; under redundancy also
    # propagated to the k-1 fellow partners.
    own_proc = u * costs.PROCESS_UPDATE_UNITS
    acc.p_proc += own_proc
    if att.enabled:
        att.add_p("update", "proc", own_proc)
    if k > 1:
        fan_bytes = u * (k - 1) * upd_bytes
        fan_out_proc = u * (k - 1) * (costs.SEND_UPDATE_UNITS + _MUX * m_sp)
        fan_in_proc = u * (k - 1) * (
            costs.RECV_UPDATE_UNITS + _MUX * m_sp + costs.PROCESS_UPDATE_UNITS
        )
        acc.p_out += fan_bytes
        acc.p_proc += fan_out_proc
        acc.p_in += fan_bytes
        acc.p_proc += fan_in_proc
        if att.enabled:
            att.add_p("update", "out_bw", fan_bytes)
            att.add_p("update", "proc", fan_out_proc)
            att.add_p("update", "in_bw", fan_bytes)
            att.add_p("update", "proc", fan_in_proc)
