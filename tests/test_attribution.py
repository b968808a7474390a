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
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Configuration, GraphType
from repro.core.load import evaluate_instance
from repro.obs.attribution import (
    ACTIONS,
    NULL_ATTRIBUTION,
    AttributionError,
    LoadAttribution,
    profile_instance,
)
from repro.topology.builder import build_instance

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
    "sampled": {"max_sources": 40, "rng": 7},
    "direct_exact": {"response_mode": "direct"},
    "direct_sampled": {"response_mode": "direct", "max_sources": 40, "rng": 7},
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


def test_null_attribution_is_inert():
    assert not NULL_ATTRIBUTION.enabled
    assert NULL_ATTRIBUTION.bind(object()) is NULL_ATTRIBUTION
    # Hooks swallow anything without effect.
    NULL_ATTRIBUTION.add_q("query", "in_bw", np.ones(3))
    NULL_ATTRIBUTION.add_edges(None, 1.0, None, None, None)


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
