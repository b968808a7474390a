"""Tests for the cost-attribution profiler (``repro.obs.attribution``).

Two contracts matter:

* **Conservation** — the attributed cells re-sum to the load engine's
  per-node vectors and Eq. 4 aggregate within 1e-9 relative tolerance,
  on all four golden configurations, in exact *and* sampled modes, under
  both response modes (the ``verify()`` invariant the profiler itself
  enforces).
* **Neutrality** — attaching an attribution accumulator never changes a
  single number ``evaluate_instance`` produces: the engine only copies
  values it was already adding.

The hop and edge split of a flood block, which the accumulator computes
for the whole block at once, is pinned against a per-source scalar
accounting (scalar BFS, scalar fold, Table 2 costs) on random overlays.
"""

from __future__ import annotations

from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Configuration, GraphType
from repro.core import costs
from repro.core.load import _Accumulator, charge_block, evaluate_instance
from repro.core.routing import flood_block
from repro.obs.attribution import (
    ACTIONS,
    AttributionError,
    LoadAttribution,
    profile_instance,
)
from repro.topology.builder import build_instance

from _oracle import scalar_flood, scalar_fold
from test_fastcore import _TTLS, _source_blocks

# The golden-config quartet (mirrors tests/golden/): both topology
# families, with and without partner redundancy.
GOLDEN_CONFIGS = {
    "power_k1": Configuration(
        graph_type=GraphType.POWER_LAW, graph_size=200,
        cluster_size=10, avg_outdegree=4.0, ttl=4,
    ),
    "power_k2": Configuration(
        graph_type=GraphType.POWER_LAW, graph_size=200,
        cluster_size=10, avg_outdegree=4.0, ttl=4, redundancy=2,
    ),
    "strong_k1": Configuration(
        graph_type=GraphType.STRONG, graph_size=100,
        cluster_size=10, ttl=1,
    ),
    "strong_k2": Configuration(
        graph_type=GraphType.STRONG, graph_size=100,
        cluster_size=10, ttl=2, redundancy=2,
    ),
}

MODES = {
    "exact": {},
    "sampled": {"max_sources": 7, "rng": 7},
    "direct_exact": {"response_mode": "direct"},
    "direct_sampled": {"response_mode": "direct", "max_sources": 7, "rng": 7},
}


@pytest.fixture(scope="module", params=sorted(GOLDEN_CONFIGS))
def golden_instance(request):
    return build_instance(GOLDEN_CONFIGS[request.param], seed=11)


# --- conservation invariant ----------------------------------------------------


@pytest.mark.parametrize("mode", sorted(MODES))
def test_invariant_holds_on_golden_configs(golden_instance, mode):
    report, attribution = profile_instance(golden_instance, **MODES[mode])
    errors = attribution.verify(report, rtol=1e-9)
    assert max(errors.values()) <= 1e-9


def test_invariant_holds_in_direct_response_mode(golden_instance):
    report, attribution = profile_instance(
        golden_instance, response_mode="direct"
    )
    attribution.verify(report, rtol=1e-9)


def test_verify_raises_when_a_cell_is_tampered(golden_instance):
    report, attribution = profile_instance(golden_instance)
    # Inflate the busiest query-space cell: the totals no longer re-sum.
    key = max(attribution._q, key=lambda k: float(attribution._q[k].sum()))
    attribution._q[key] = attribution._q[key] * 2.0
    with pytest.raises(AttributionError):
        attribution.verify(report, rtol=1e-9)


def test_profile_on_a_complete_overlay_above_the_materialization_limit():
    """K_5000 is priced in closed form: attribution builds no edge tables
    and never materializes the graph's explicit adjacency."""
    instance = build_instance(Configuration(
        graph_type=GraphType.STRONG, graph_size=50000, cluster_size=10, ttl=1,
    ), seed=1)
    for mode in ("reverse-path", "direct"):
        report, attribution = profile_instance(instance, response_mode=mode)
        attribution.verify(report, rtol=1e-9)
        assert attribution.top_edges() == []
    assert "_materialized" not in vars(instance.graph)


# --- block attribution vs a per-source scalar accounting ---------------------


_EDGE_TABLES = ("flood_messages", "flood_bytes", "response_messages",
                "response_bytes")


def _scalar_attribution(graph, sources, ttl, w, origin, m_sp, direct):
    """({(action, resource, hop): n-vector}, {edge table: E-vector}) of a
    block, one source at a time, each charge tagged with its node's depth."""
    n = graph.num_nodes
    tables = defaultdict(lambda: np.zeros(n))
    tails, heads = graph.directed_edge_arrays()
    edges = {name: np.zeros(tails.size) for name in _EDGE_TABLES}
    for s, rate in zip(sources, w):
        prop = scalar_flood(graph, int(s), ttl)
        hop = np.maximum(prop.depth, 0)

        def charge(action, resource, amounts):
            for h in np.unique(hop):
                tables[action, resource, int(h)] += np.where(hop == h, amounts, 0.0)

        send_bytes, send_units = costs.send_query(m_sp, prop.transmissions)
        recv_bytes, recv_units = costs.recv_query(m_sp, prop.receipts)
        probe_units = costs.process_query(prop.reached * origin[2], prop.reached)
        charge("query", "out_bw", rate * send_bytes)
        charge("query", "in_bw", rate * recv_bytes)
        charge("query", "proc", rate * (send_units + recv_units + probe_units))
        out, inc = np.zeros((3, n)), np.zeros((3, n))
        for c in range(3):
            weights = np.where(prop.reached, origin[c], 0.0)
            weights[s] = 0.0
            if direct:
                out[c], inc[c, s] = weights, weights.sum()
            else:
                out[c], inc[c] = scalar_fold(prop, weights)
                out[c, s] = 0.0
        out_bytes, out_units = costs.send_response(*out, m_sp)
        in_bytes, in_units = costs.recv_response(*inc, m_sp)
        hs_bytes, hs_units = costs.handshake(
            m_sp, rate * (out[0] + inc[0]) if direct else np.zeros(n))
        charge("response", "out_bw", hs_bytes + rate * out_bytes)
        charge("response", "in_bw", hs_bytes + rate * in_bytes)
        charge("response", "proc", hs_units + rate * (out_units + in_units))

        forwarder = (prop.depth >= 0) & (prop.depth < ttl)
        live = forwarder[tails] & (prop.pred[tails] != heads)
        edges["flood_messages"][live] += rate
        edges["flood_bytes"][live] += rate * costs.send_query(0.0)[0]
        if direct:
            continue
        for v in np.nonzero((prop.depth > 0) & (out[0] > 0))[0]:
            e = np.nonzero((tails == v) & (heads == prop.pred[v]))[0][0]
            edges["response_messages"][e] += rate * out[0, v]
            edges["response_bytes"][e] += rate * costs.send_response(
                *out[:, v], 0.0)[0]
    return tables, edges


@settings(max_examples=60, deadline=None)
@given(block=_source_blocks(), ttl=_TTLS, seed=st.integers(0, 2**32 - 1),
       direct=st.booleans())
def test_block_attribution_matches_scalar_accounting(block, ttl, seed, direct):
    """charge_block's hop-resolved attribution and its per-edge split ==
    the per-source scalar accounting, in both Response modes.  Origins
    are whole numbers so that the folded Responses received
    (``sent - resp``) carry no cancellation error."""
    graph, sources = block
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    w = rng.random(sources.size) * 10.0
    origin = rng.integers(0, [[2], [8], [60]], (3, n)).astype(float)
    m_sp = rng.integers(1, 12, n).astype(float)
    attribution = LoadAttribution().bind(SimpleNamespace(
        num_clusters=n, total_clients=0, partners=1, graph=graph,
    ))
    acc = _Accumulator(n, 0, attribution)
    charge_block(flood_block(graph, sources, ttl), w, origin, m_sp, acc, direct)
    tables, edges = _scalar_attribution(graph, sources, ttl, w, origin, m_sp, direct)
    assert set(tables) <= set(attribution._q)
    for key, got in attribution._q.items():
        np.testing.assert_allclose(got, tables.get(key, np.zeros(n)),
                                   rtol=1e-12, atol=0.0, err_msg=str(key))
    for name in _EDGE_TABLES:
        np.testing.assert_allclose(attribution._edges[name], edges[name],
                                   rtol=1e-12, atol=0.0, err_msg=name)


# --- neutrality ----------------------------------------------------------------


def _report_arrays(report):
    return (
        report.superpeer_incoming_bps, report.superpeer_outgoing_bps,
        report.superpeer_processing_hz, report.client_incoming_bps,
        report.client_outgoing_bps, report.client_processing_hz,
        report.results_per_query, report.epl_per_query,
        report.reach_clusters,
    )


@pytest.mark.parametrize("mode", sorted(MODES))
def test_attribution_is_bit_neutral(golden_instance, mode):
    kwargs = MODES[mode]
    baseline = evaluate_instance(golden_instance, **kwargs)
    instrumented = evaluate_instance(
        golden_instance, attribution=LoadAttribution(), **kwargs
    )
    for left, right in zip(_report_arrays(baseline),
                           _report_arrays(instrumented)):
        np.testing.assert_array_equal(left, right)


# --- report shape --------------------------------------------------------------


def test_aggregate_decomposes_by_action(golden_instance):
    report, attribution = profile_instance(golden_instance)
    agg = attribution.aggregate()
    by_action = attribution.by_action()
    for key in ("incoming_bps", "outgoing_bps", "processing_hz"):
        total = sum(v[key] for v in by_action.values())
        assert total == pytest.approx(agg[key], rel=1e-9)
    assert set(by_action) <= set(ACTIONS)


def test_aggregate_decomposes_by_hop(golden_instance):
    _, attribution = profile_instance(golden_instance)
    agg = attribution.aggregate()
    by_hop = attribution.by_hop()
    assert all(h >= 0 for h in by_hop)
    for key in ("incoming_bps", "outgoing_bps", "processing_hz"):
        total = sum(v[key] for v in by_hop.values())
        assert total == pytest.approx(agg[key], rel=1e-9)


def test_top_superpeers_ranked_with_sane_shares(golden_instance):
    _, attribution = profile_instance(golden_instance)
    rows = attribution.top_superpeers(5)
    assert 0 < len(rows) <= 5
    bandwidths = [row["incoming_bps"] + row["outgoing_bps"] for row in rows]
    assert bandwidths == sorted(bandwidths, reverse=True)
    assert 0.0 < sum(row["share"] for row in rows) <= 1.0 + 1e-12
    for row in rows:
        assert row["dominant_action"] in ACTIONS
        assert row["outdegree"] >= 0


def test_top_edges_only_on_explicit_overlays(golden_instance):
    _, attribution = profile_instance(golden_instance)
    edges = attribution.top_edges(5)
    if golden_instance.config.graph_type is GraphType.STRONG:
        assert edges == []
        return
    assert edges, "power-law overlays must attribute per-edge traffic"
    totals = [row["bandwidth_bps"] for row in edges]
    assert totals == sorted(totals, reverse=True)
    n = golden_instance.num_clusters
    for row in edges:
        tail, head = row["edge"]
        assert 0 <= tail < n and 0 <= head < n and tail != head
        assert row["bandwidth_bps"] == pytest.approx(
            row["flood_bps"] + row["response_bps"], rel=1e-9
        )


def test_to_dict_is_json_ready(golden_instance):
    import json

    _, attribution = profile_instance(golden_instance)
    payload = attribution.to_dict(top=3)
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == json.loads(text)
    assert payload["num_clusters"] == golden_instance.num_clusters
    assert set(payload["aggregate"]) == {
        "incoming_bps", "outgoing_bps", "processing_hz",
    }


def test_unbound_attribution_rejects_reads():
    attribution = LoadAttribution()
    with pytest.raises(RuntimeError):
        attribution.aggregate()
