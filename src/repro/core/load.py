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

Every charge is written once, as an ``add`` on the run's
:class:`_Accumulator`: it adds to the per-node arrays and, when a
:class:`~repro.obs.attribution.LoadAttribution` is attached, files a
copy tagged (action, resource, hop).  Flood blocks are priced once on
their row sums and, with attribution on, once more on their split by
BFS depth (:meth:`_Accumulator.add_flood`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.attribution import LoadAttribution
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


#: Which accumulator array each (space, resource) charge lands in.
_ARRAYS = {
    (space, resource): f"{space}_{field}"
    for space in ("q", "p", "c")
    for resource, field in (("in_bw", "in"), ("out_bw", "out"), ("proc", "proc"))
}


@dataclass
class _Accumulator:
    """Per-cluster and per-client running byte/unit rates (per second).

    Every Eq. 1-4 charge is recorded here, once.  With an ``attribution``
    (:class:`~repro.obs.attribution.LoadAttribution`) attached, each charge
    also files a copy tagged (space, action, resource, hop); the arrays
    receive the same floats in the same order either way.
    """

    num_clusters: int
    total_clients: int
    attribution: LoadAttribution | None = None

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

    def add(self, space: str, action: str, resource: str, amounts, hop=0) -> None:
        """Charge ``amounts`` to one array: ``space`` is ``"q"`` (cluster
        query traffic), ``"p"`` (per partner) or ``"c"`` (per client).

        ``hop`` is the BFS depth the charge is attributed to, or a
        ``{hop: share}`` mapping when it spans several (the shares sum to
        ``amounts`` up to rounding).
        """
        arr = getattr(self, _ARRAYS[space, resource])
        arr += amounts
        if self.attribution is not None:
            shares = hop.items() if isinstance(hop, dict) else ((hop, amounts),)
            for h, share in shares:
                self.attribution.add(space, action, resource, share, h)

    def add_flood(self, price, fb: FloodBlock, w: np.ndarray, flows,
                  at_source: np.ndarray, response_flow) -> None:
        """Charge one flood block to the cluster query space.

        ``flows`` are per-(row, node) quantities, each ``(..., b, n)``;
        ``price(add, *totals, at_source)`` turns their row sums at rates
        ``w`` (``w @ flow``) into charges through ``add(action, resource,
        amounts)``.  With attribution on, ``price`` runs once more on each
        flow split by BFS depth, ``(..., H, n)`` with ``at_source`` at hop
        0, and the flood edges and the Response edges of ``response_flow``
        (``None``: Responses skip the overlay) are attributed too.
        """
        def to_arrays(action, resource, amounts):
            arr = getattr(self, _ARRAYS["q", resource])
            arr += amounts

        price(to_arrays, *(w @ flow for flow in flows), at_source)
        if self.attribution is None:
            return
        att = self.attribution
        n = fb.depth.shape[1]
        hops = np.maximum(fb.depth, 0)  # unreached nodes carry zero amounts
        num_hops = int(hops.max()) + 1 if hops.size else 1
        keys = (hops * n + np.arange(n)).ravel()

        def by_hop(flow):
            weighted = np.asarray(flow) * w[:, np.newaxis]
            lead = weighted.shape[:-2]
            return np.stack([
                np.bincount(keys, weights=rows, minlength=num_hops * n)
                for rows in weighted.reshape(int(np.prod(lead)), -1)
            ]).reshape(lead + (num_hops, n))

        def to_attribution(action, resource, amounts):
            for hop, share in enumerate(amounts):
                att.add("q", action, resource, share, hop)

        at_hops = np.zeros(at_source.shape[:-1] + (num_hops, n))
        at_hops[..., 0, :] = at_source
        price(to_attribution, *(by_hop(flow) for flow in flows), at_hops)
        att.add_edges(fb, w, response_flow)


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
    if attribution is not None:
        attribution.bind(instance)
    metrics = get_registry()
    with metrics.timer("load.expectations").time():
        exp = cluster_expectations(instance, model)
    acc = _Accumulator(instance.num_clusters, instance.total_clients, attribution)

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
                _accumulate_queries_strong(
                    instance, exp, acc, per_source, response_mode == "direct"
                )
                # Closed form is exact over all sources regardless of sampling.
                sources = np.arange(n, dtype=np.int64)
                scale = 1.0
            else:
                _accumulate_queries_bfs(
                    instance, exp, acc, per_source, sources, scale, response_mode
                )
            _accumulate_client_query_costs(instance, acc, per_source, sources, scale)
        metrics.counter("load.query_sources_evaluated").add(len(sources))
    if "join" in components:
        with metrics.timer("load.joins").time():
            _accumulate_joins(instance, acc)
    if "update" in components:
        with metrics.timer("load.updates").time():
            _accumulate_updates(instance, acc)
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
    resp = np.where(fb.reached, origin[:, np.newaxis, :], 0.0)
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
    # One query send, receipt, index probe and handshake pair per node,
    # scaled by the flows below.
    tx_bytes, tx_units = costs.send_query(m_sp)
    rx_bytes, rx_units = costs.recv_query(m_sp)
    probe_units = costs.process_query(origin[2])
    hs_bytes, hs_units = costs.handshake(m_sp)

    def price(add, tx, rx, probes, out, forwarded, arrivals):
        # Query sends, receipts and index probes.
        add("query", "out_bw", tx * tx_bytes)
        add("query", "proc", tx * tx_units)
        add("query", "in_bw", rx * rx_bytes)
        add("query", "proc", rx * rx_units)
        add("query", "proc", probes * probe_units)
        # Responses shipped (``out``) and received: those a node forwards
        # and those that arrive at the source.
        inc = forwarded + arrivals
        if direct:
            handshakes = out[0] + arrivals[0]
            add("response", "out_bw", handshakes * hs_bytes)
            add("response", "in_bw", handshakes * hs_bytes)
            add("response", "proc", handshakes * hs_units)
        out_bytes, out_units = costs.send_response(*out, m_sp)
        in_bytes, in_units = costs.recv_response(*inc, m_sp)
        add("response", "out_bw", out_bytes)
        add("response", "proc", out_units)
        add("response", "in_bw", in_bytes)
        add("response", "proc", in_units)

    flows = (fb.transmissions, fb.receipts, fb.reached, sent, sent - resp)
    acc.add_flood(price, fb, w, flows, at_source, None if direct else sent)
    return resp, sent, arrived


def _accumulate_queries_bfs(
    instance: NetworkInstance,
    exp: ClusterExpectations,
    acc: _Accumulator,
    per_source: _QuerySourceOutputs,
    sources: np.ndarray,
    scale: float,
    response_mode: str = "reverse-path",
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


def _accumulate_queries_strong(
    instance: NetworkInstance,
    exp: ClusterExpectations,
    acc: _Accumulator,
    per_source: _QuerySourceOutputs,
    direct: bool = False,
) -> None:
    """Closed-form query accounting on the complete overlay K_n.

    On K_n every non-source cluster sits at depth 1, so responses travel
    one hop (EPL = 1) and nothing is forwarded.  With TTL >= 2 each
    non-source node additionally floods n-2 duplicate copies, which are
    received and dropped — the redundant-query waste rule #4 measures.
    Exact over all sources at O(n) cost.  The reverse path *is* the
    direct hop here, so ``direct`` only adds the temporary connection's
    handshake pairs.
    """
    n = instance.num_clusters
    ttl = instance.config.ttl
    m_sp = instance.superpeer_connections.astype(float)
    users, q_rates, _ = _cluster_rates(instance)
    msgs_o, addr_o, res_o = _response_triple(exp)

    total_q = q_rates.sum()
    others_q = total_q - q_rates  # rate of queries sourced elsewhere

    # --- query transmissions / receipts ---------------------------------------
    # As source: n-1 transmissions per own query.
    _charge(acc, "q", "query", "out_bw", costs.send_query(m_sp, q_rates * (n - 1)), hop=0)
    # As non-source: one receipt per foreign query...
    _charge(acc, "q", "query", "in_bw", costs.recv_query(m_sp, others_q), hop=1)
    if ttl >= 2 and n > 2:
        # ...plus n-2 duplicate forwards sent and n-2 duplicates received.
        duplicates = others_q * (n - 2)
        _charge(acc, "q", "query", "out_bw", costs.send_query(m_sp, duplicates), hop=1)
        _charge(acc, "q", "query", "in_bw", costs.recv_query(m_sp, duplicates), hop=2)

    # --- index probes -----------------------------------------------------------
    # Every query in the system (own + foreign) probes every cluster's index:
    # own queries at hop 0, foreign ones at hop 1.
    own = costs.process_query(q_rates * res_o, q_rates)
    foreign = costs.process_query(others_q * res_o, others_q)
    acc.add("q", "query", "proc", own + foreign, hop={0: own, 1: foreign})

    # --- responses ---------------------------------------------------------------
    # As responder (for every foreign query): send own response directly.
    out_bytes, out_units = costs.send_response(msgs_o, addr_o, res_o, m_sp)
    acc.add("q", "response", "out_bw", others_q * out_bytes, hop=1)
    acc.add("q", "response", "proc", others_q * out_units, hop=1)
    # As source: receive every other cluster's response.
    tot_m, tot_a, tot_r = msgs_o.sum(), addr_o.sum(), res_o.sum()
    arr_m, arr_a, arr_r = tot_m - msgs_o, tot_a - addr_o, tot_r - res_o
    in_bytes, in_units = costs.recv_response(arr_m, arr_a, arr_r, m_sp)
    acc.add("q", "response", "in_bw", q_rates * in_bytes, hop=0)
    acc.add("q", "response", "proc", q_rates * in_units, hop=0)
    if direct:
        # One handshake pair per response to a foreign query (as
        # responder, hop 1) and per arriving response (as source, hop 0).
        responder = costs.handshake(m_sp, others_q * msgs_o)
        source = costs.handshake(m_sp, q_rates * arr_m)
        for resource, i in (("out_bw", 0), ("in_bw", 0), ("proc", 1)):
            acc.add("q", "response", resource, responder[i] + source[i],
                    hop={0: source[i], 1: responder[i]})

    # --- per-source outcomes -------------------------------------------------------
    per_source.results[:] = tot_r  # full reach: every cluster contributes
    per_source.epl[:] = 1.0 if n > 1 else 0.0
    per_source.reach_clusters[:] = n
    per_source.reach_peers[:] = users.sum()
    per_source.to_client_msgs[:] = arr_m + msgs_o
    per_source.to_client_addr[:] = arr_a + addr_o
    per_source.to_client_results[:] = arr_r + res_o


def _accumulate_client_query_costs(
    instance: NetworkInstance,
    acc: _Accumulator,
    per_source: _QuerySourceOutputs,
    sources: np.ndarray,
    scale: float,
) -> None:
    """The client leg of client-sourced queries.

    A querying client sends the query to (one of) its super-peer
    partner(s) and receives every Response the super-peer collects —
    including the super-peer's own-index results — forwarded as individual
    Response messages (Section 3.2).
    """
    config = instance.config
    n = instance.num_clusters
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
    _charge(acc, "q", "query", "in_bw", costs.recv_query(m_sp, cq_rate))
    resp_bytes, sp_units = costs.send_response(msgs, addr, res, m_sp)
    acc.add("q", "response", "out_bw", cq_rate * resp_bytes)
    acc.add("q", "response", "proc", cq_rate * sp_units)

    # Client side: each client submits queries at the per-user rate.
    q = config.query_rate
    cluster_of_client = np.repeat(np.arange(n), instance.clients)
    if cluster_of_client.size:
        _charge(acc, "c", "query", "out_bw", costs.send_query(m_cl, q))
        acc.add("c", "response", "in_bw", q * resp_bytes[cluster_of_client])
        acc.add("c", "response", "proc", q * costs.recv_response(
            msgs, addr, res, m_cl
        )[1][cluster_of_client])


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


def _charge(acc: _Accumulator, space: str, action: str, resource: str,
            priced, hop=0) -> None:
    """Add a Send (``resource="out_bw"``) or Recv (``"in_bw"``) row's
    ``(bytes, units)`` to one space of ``acc``."""
    nbytes, units = priced
    acc.add(space, action, resource, nbytes, hop)
    acc.add(space, action, "proc", units, hop)


def _add_handshakes(acc: _Accumulator, space: str, pairs, m) -> None:
    """Join-time handshake pairs: ``pairs`` per second at nodes with ``m``
    open connections, each pair one empty message in and one out."""
    hs_bytes, hs_units = costs.handshake(m, pairs)
    acc.add(space, "join", "in_bw", hs_bytes)
    acc.add(space, "join", "out_bw", hs_bytes)
    acc.add(space, "join", "proc", hs_units)


def _accumulate_joins(instance: NetworkInstance, acc: _Accumulator) -> None:
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
        _charge(acc, "c", "join", "out_bw", costs.send_join(rates * k * files, m_cl, rates * k))

    # Partner side: every partner receives every client's Join, inserts the
    # metadata, and removes it again at the client's leave.
    join_bytes, join_units = costs.recv_index_join(rate_files_sum, m_sp, rate_sum)
    acc.add("p", "join", "in_bw", join_bytes)
    acc.add("p", "join", "proc", join_units + costs.process_join(rate_files_sum, rate_sum))

    # --- super-peer (partner) joins ---------------------------------------------
    # A joining partner handshakes (one empty message each way) over every
    # connection it opens; the peers at the other end each handle one pair.
    partner_rates = (1.0 / instance.partner_lifespans).sum(axis=1)  # per cluster
    _add_handshakes(acc, "p", (partner_rates / k) * m_sp, m_sp)

    # Peers on the other end of those handshakes:
    # * this cluster's clients (each is touched by each partner join),
    cluster_of_client = np.repeat(np.arange(instance.num_clusters), instance.clients)
    if cluster_of_client.size:
        _add_handshakes(acc, "c", partner_rates[cluster_of_client], m_cl)
    # * fellow partners ((k-1) of the k partner connections, split evenly),
    if k > 1:
        _add_handshakes(acc, "p", partner_rates * (k - 1) / k, m_sp)
    # * neighbouring clusters' partners (k handshakes per neighbouring
    #   cluster per join, i.e. one per partner there).
    _add_handshakes(acc, "p", _neighbor_sum(instance, partner_rates), m_sp)

    # Under redundancy, a joining partner also ships its own metadata to
    # its k-1 fellow partners (each partner holds the others' data too),
    # which index it and remove it again at its leave; averaged over the
    # cluster's partners, both ends land on one meter.
    if k > 1:
        p_rates = 1.0 / instance.partner_lifespans  # (n, k)
        share = (k - 1) / k
        exchanges = share * p_rates.sum(axis=1)
        shipped = share * (p_rates * instance.partner_files).sum(axis=1)
        ex_bytes, ex_units = costs.exchange_join(shipped, m_sp, exchanges, dropped=shipped)
        acc.add("p", "join", "out_bw", ex_bytes)
        acc.add("p", "join", "in_bw", ex_bytes)
        acc.add("p", "join", "proc", ex_units)


def _accumulate_updates(instance: NetworkInstance, acc: _Accumulator) -> None:
    """Update costs: fixed-size metadata deltas at the per-user update rate."""
    u = instance.config.update_rate
    if u == 0.0:
        return
    k = instance.partners
    m_sp = instance.superpeer_connections.astype(float)
    m_cl = float(instance.client_connections)

    # Clients: send one Update to each partner; partners receive and apply.
    if instance.total_clients:
        _charge(acc, "c", "update", "out_bw", costs.send_update(m_cl, u * k))
    received = u * instance.clients
    upd_bytes, upd_units = costs.recv_update(m_sp, received)
    acc.add("p", "update", "in_bw", upd_bytes)
    acc.add("p", "update", "proc", upd_units + costs.process_update(received))

    # Partners' own updates: applied locally; under redundancy also
    # propagated to the k-1 fellow partners.
    acc.add("p", "update", "proc", costs.process_update(u))
    if k > 1:
        ex_bytes, ex_units = costs.exchange_update(m_sp, u * (k - 1))
        acc.add("p", "update", "out_bw", ex_bytes)
        acc.add("p", "update", "in_bw", ex_bytes)
        acc.add("p", "update", "proc", ex_units)
