"""Mean-value load analysis: invariants, degeneracies, closed-form checks."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import Configuration, GraphType
from repro.core import load
from repro.core.load import LoadVector, evaluate_instance
from repro.topology.builder import build_instance


class TestLoadVector:
    def test_algebra(self):
        a = LoadVector(1.0, 2.0, 3.0)
        b = LoadVector(4.0, 5.0, 6.0)
        assert (a + b).incoming_bps == 5.0
        assert (2 * a).processing_hz == 6.0
        assert a.total_bandwidth_bps == 3.0

    def test_as_dict(self):
        d = LoadVector(1.0, 2.0, 3.0).as_dict()
        assert d == {"incoming_bps": 1.0, "outgoing_bps": 2.0, "processing_hz": 3.0}


class TestConservation:
    """Every byte some node sends, another receives."""

    @pytest.mark.parametrize("redundancy", [False, True])
    def test_power_law_aggregate_in_equals_out(self, redundancy):
        config = Configuration(
            graph_size=300, cluster_size=10, avg_outdegree=4.0, ttl=4,
            redundancy=redundancy,
        )
        report = evaluate_instance(build_instance(config, seed=1))
        agg = report.aggregate_load()
        assert agg.incoming_bps == pytest.approx(agg.outgoing_bps, rel=1e-9)

    def test_strong_aggregate_in_equals_out(self):
        config = Configuration(
            graph_type=GraphType.STRONG, graph_size=300, cluster_size=10, ttl=1
        )
        report = evaluate_instance(build_instance(config, seed=1))
        agg = report.aggregate_load()
        assert agg.incoming_bps == pytest.approx(agg.outgoing_bps, rel=1e-9)

    def test_pure_network_in_equals_out(self):
        config = Configuration(graph_size=200, cluster_size=1, avg_outdegree=3.1, ttl=5)
        report = evaluate_instance(build_instance(config, seed=2))
        agg = report.aggregate_load()
        assert agg.incoming_bps == pytest.approx(agg.outgoing_bps, rel=1e-9)


class TestStrongClosedForm:
    """The K_n analytic path must match explicit BFS on a materialized K_n."""

    @pytest.mark.parametrize("ttl,response_mode,redundancy", [
        pytest.param(1, "reverse-path", False, id="1"),
        pytest.param(2, "reverse-path", False, id="2"),
        pytest.param(1, "direct", False, id="direct-1"),
        pytest.param(2, "direct", False, id="direct-2"),
        pytest.param(1, "reverse-path", True, id="k2-1"),
        pytest.param(2, "reverse-path", True, id="k2-2"),
        pytest.param(1, "direct", True, id="k2-direct-1"),
        pytest.param(2, "direct", True, id="k2-direct-2"),
    ])
    def test_matches_materialized_bfs(self, ttl, response_mode, redundancy):
        config = Configuration(
            graph_type=GraphType.STRONG, graph_size=120, cluster_size=10, ttl=ttl,
            redundancy=redundancy,
        )
        instance = build_instance(config, seed=4)
        closed = evaluate_instance(instance, response_mode=response_mode)
        explicit = evaluate_instance(
            replace(instance, graph=instance.graph.materialize()),
            response_mode=response_mode,
        )
        # The closed form is exact over all sources even when sampling
        # is asked for.
        sampled = evaluate_instance(instance, max_sources=3, rng=0,
                                    response_mode=response_mode)
        np.testing.assert_array_equal(
            sampled.superpeer_processing_hz, closed.superpeer_processing_hz
        )
        np.testing.assert_allclose(
            closed.superpeer_incoming_bps, explicit.superpeer_incoming_bps, rtol=1e-9
        )
        np.testing.assert_allclose(
            closed.superpeer_outgoing_bps, explicit.superpeer_outgoing_bps, rtol=1e-9
        )
        np.testing.assert_allclose(
            closed.superpeer_processing_hz, explicit.superpeer_processing_hz, rtol=1e-9
        )
        np.testing.assert_allclose(
            closed.client_incoming_bps, explicit.client_incoming_bps, rtol=1e-9
        )
        assert closed.mean_results_per_query() == pytest.approx(
            explicit.mean_results_per_query()
        )


class TestDegeneracies:
    def test_single_cluster_server_model(self):
        # Cluster size == graph size: one "server", no overlay traffic.
        config = Configuration(
            graph_type=GraphType.STRONG, graph_size=100, cluster_size=100, ttl=1
        )
        report = evaluate_instance(build_instance(config, seed=0))
        assert report.mean_reach_clusters() == 1.0
        assert report.mean_epl() == 0.0
        # All results come from the single index.
        assert report.mean_results_per_query() == pytest.approx(
            report.expectations.total_expected_results()
        )

    def test_pure_network_has_no_clients(self):
        config = Configuration(graph_size=150, cluster_size=1, avg_outdegree=3.1, ttl=4)
        report = evaluate_instance(build_instance(config, seed=1))
        assert report.client_incoming_bps.size == 0
        assert report.mean_client_load().incoming_bps == 0.0

    def test_zero_update_rate_drops_update_load(self):
        config = Configuration(graph_size=200, cluster_size=10, update_rate=0.0)
        full = evaluate_instance(build_instance(config, seed=1))
        with_updates = evaluate_instance(
            build_instance(Configuration(graph_size=200, cluster_size=10), seed=1)
        )
        assert (
            full.aggregate_load().total_bandwidth_bps
            < with_updates.aggregate_load().total_bandwidth_bps
        )


class TestComponents:
    def test_components_sum_to_total(self):
        config = Configuration(graph_size=250, cluster_size=10, ttl=3, avg_outdegree=4.0)
        instance = build_instance(config, seed=5)
        full = evaluate_instance(instance)
        parts = [
            evaluate_instance(instance, components=(c,))
            for c in ("query", "join", "update")
        ]
        total = sum(
            (p.aggregate_load() for p in parts), LoadVector()
        )
        agg = full.aggregate_load()
        assert total.incoming_bps == pytest.approx(agg.incoming_bps, rel=1e-9)
        assert total.outgoing_bps == pytest.approx(agg.outgoing_bps, rel=1e-9)
        assert total.processing_hz == pytest.approx(agg.processing_hz, rel=1e-9)

    def test_unknown_component_rejected(self):
        instance = build_instance(Configuration(graph_size=100, cluster_size=10), seed=0)
        with pytest.raises(ValueError):
            evaluate_instance(instance, components=("queries",))

    def test_queries_dominate_at_default_rates(self):
        # Appendix C: the default query:join ratio (~10) makes queries the
        # dominant load.
        instance = build_instance(
            Configuration(graph_size=250, cluster_size=10, ttl=4, avg_outdegree=4.0),
            seed=1,
        )
        q = evaluate_instance(instance, components=("query",)).aggregate_load()
        j = evaluate_instance(instance, components=("join",)).aggregate_load()
        assert q.total_bandwidth_bps > j.total_bandwidth_bps


class TestSampling:
    def test_sampled_aggregate_near_exact(self):
        config = Configuration(graph_size=600, cluster_size=10, ttl=4, avg_outdegree=4.0)
        instance = build_instance(config, seed=2)
        exact = evaluate_instance(instance)
        sampled = evaluate_instance(instance, max_sources=30, rng=0)
        ratio = (
            sampled.aggregate_load().total_bandwidth_bps
            / exact.aggregate_load().total_bandwidth_bps
        )
        assert ratio == pytest.approx(1.0, rel=0.15)

    def test_sampled_is_deterministic_given_rng(self):
        config = Configuration(graph_size=400, cluster_size=10)
        instance = build_instance(config, seed=2)
        a = evaluate_instance(instance, max_sources=20, rng=5)
        b = evaluate_instance(instance, max_sources=20, rng=5)
        np.testing.assert_array_equal(a.superpeer_incoming_bps, b.superpeer_incoming_bps)

    def test_invalid_max_sources(self):
        instance = build_instance(Configuration(graph_size=100, cluster_size=10), seed=0)
        with pytest.raises(ValueError):
            evaluate_instance(instance, max_sources=0)


class TestSourceBlocks:
    """The flood kernel's block size is a throughput knob, never a result."""

    FIELDS = (
        "superpeer_incoming_bps", "superpeer_outgoing_bps", "superpeer_processing_hz",
        "client_incoming_bps", "client_outgoing_bps", "client_processing_hz",
        "results_per_query", "epl_per_query", "reach_clusters", "reach_peers",
    )

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("kwargs", [
        {},
        {"max_sources": 25, "rng": 3},
        {"response_mode": "direct"},
        {"response_mode": "direct", "max_sources": 25, "rng": 3},
    ], ids=["exact", "sampled", "direct", "direct-sampled"])
    def test_block_size_leaves_outputs_unchanged(self, monkeypatch, block, kwargs):
        config = Configuration(graph_size=400, cluster_size=10, ttl=4, avg_outdegree=4.0)
        instance = build_instance(config, seed=4)
        default = evaluate_instance(instance, **kwargs)
        monkeypatch.setattr(load, "DEFAULT_BLOCK", block)
        blocked = evaluate_instance(instance, **kwargs)
        for field in self.FIELDS:
            np.testing.assert_allclose(
                getattr(blocked, field), getattr(default, field), rtol=1e-12,
                err_msg=field,
            )


class TestRedundancySplitting:
    def test_partner_load_below_lone_superpeer(self):
        base_cfg = Configuration(
            graph_type=GraphType.STRONG, graph_size=1000, cluster_size=20, ttl=1
        )
        base = evaluate_instance(build_instance(base_cfg, seed=3))
        red = evaluate_instance(
            build_instance(base_cfg.with_changes(redundancy=True), seed=3)
        )
        assert (
            red.mean_superpeer_load().incoming_bps
            < base.mean_superpeer_load().incoming_bps
        )

    def test_aggregate_counts_all_partners(self):
        config = Configuration(
            graph_type=GraphType.STRONG, graph_size=400, cluster_size=10,
            ttl=1, redundancy=True,
        )
        report = evaluate_instance(build_instance(config, seed=3))
        agg = report.aggregate_load()
        manual = (
            2 * report.superpeer_incoming_bps.sum() + report.client_incoming_bps.sum()
        )
        assert agg.incoming_bps == pytest.approx(manual)


class TestReportAccessors:
    def test_all_node_loads_concatenates(self):
        config = Configuration(graph_size=200, cluster_size=10)
        report = evaluate_instance(build_instance(config, seed=0))
        loads = report.all_node_loads("outgoing")
        assert loads.size == report.instance.num_clusters + report.instance.total_clients

    def test_all_node_loads_repeats_partners(self):
        config = Configuration(graph_size=200, cluster_size=10, redundancy=True)
        report = evaluate_instance(build_instance(config, seed=0))
        loads = report.all_node_loads("processing")
        expected = 2 * report.instance.num_clusters + report.instance.total_clients
        assert loads.size == expected

    def test_unknown_resource_rejected(self):
        config = Configuration(graph_size=100, cluster_size=10)
        report = evaluate_instance(build_instance(config, seed=0))
        with pytest.raises(ValueError):
            report.all_node_loads("latency")

    def test_reach_peers_at_full_ttl(self):
        config = Configuration(
            graph_type=GraphType.STRONG, graph_size=300, cluster_size=10, ttl=1
        )
        report = evaluate_instance(build_instance(config, seed=1))
        assert report.mean_reach_peers() == pytest.approx(report.instance.num_peers)

    def test_epl_below_ttl(self):
        config = Configuration(graph_size=300, cluster_size=10, ttl=5, avg_outdegree=4.0)
        report = evaluate_instance(build_instance(config, seed=1))
        assert 0.0 < report.mean_epl() <= 5.0
