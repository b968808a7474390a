"""The four rules of thumb (Section 5.1) at test scale."""

import numpy as np
import pytest

from repro.config import Configuration, GraphType
from repro.core.rules import (
    cluster_size_sweep,
    find_knee,
    lone_increaser_penalty,
    ttl_savings,
    uniform_outdegree_gain,
)


class TestFindKnee:
    def test_synthetic_hyperbola(self):
        # load = 1/x + 0.01: sharp drop then flat; knee in the early range.
        xs = np.array([1, 2, 5, 10, 20, 50, 100, 200, 500, 1000], dtype=float)
        ys = 1.0 / xs + 0.01
        knee = find_knee(xs, ys)
        assert 2 <= knee <= 100

    def test_order_independent(self):
        xs = np.array([100, 1, 10], dtype=float)
        ys = 1.0 / xs + 0.01
        assert find_knee(xs, ys) == find_knee(xs[::-1], ys[::-1])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            find_knee(np.array([1.0, 2.0]), np.array([1.0, 0.5]))


class TestRule1ClusterSize:
    @pytest.fixture(scope="class")
    def sweep(self):
        base = Configuration(
            graph_type=GraphType.STRONG, graph_size=1000, cluster_size=10, ttl=1
        )
        return cluster_size_sweep(
            base, [1, 5, 10, 50, 100, 500], trials=2, seed=0, max_sources=None
        )

    def test_aggregate_decreases_with_cluster_size(self, sweep):
        aggregates = [
            p.summary.mean("aggregate_incoming_bps")
            + p.summary.mean("aggregate_outgoing_bps")
            for p in sweep
        ]
        # Monotone decrease across the sweep (rule #1, first half).
        assert all(a >= b for a, b in zip(aggregates, aggregates[1:]))

    def test_individual_increases_with_cluster_size(self, sweep):
        # Rule #1, second half (away from the single-super-peer exception).
        individuals = [
            p.summary.mean("superpeer_outgoing_bps") for p in sweep
        ]
        assert individuals[0] < individuals[-1]
        # And the middle of the sweep is already above the start.
        assert individuals[2] > individuals[0]


class TestRule3Outdegree:
    def test_uniform_increase_saves_aggregate_bandwidth(self):
        # Appendix D setup: 10,000 peers in clusters of 100 (responses
        # dominate), TTL 7.  The paper reports >31% bandwidth saving going
        # from outdegree 3.1 to 10; accept any clear gain at test scale.
        base = Configuration(graph_size=10_000, cluster_size=100, ttl=7)
        tradeoff = uniform_outdegree_gain(
            base, low_outdegree=3.1, high_outdegree=10.0,
            trials=2, seed=0, max_sources=None,
        )
        assert tradeoff.aggregate_bandwidth_gain() > 0.08

    def test_uniform_increase_cuts_epl(self):
        base = Configuration(graph_size=1000, cluster_size=10, ttl=7)
        tradeoff = uniform_outdegree_gain(
            base, 3.1, 10.0, trials=2, seed=0, max_sources=None
        )
        low_epl, high_epl = tradeoff.epl_drop()
        assert high_epl < low_epl

    def test_uniform_increase_raises_results_when_reach_was_partial(self):
        base = Configuration(graph_size=1000, cluster_size=10, ttl=7)
        tradeoff = uniform_outdegree_gain(
            base, 3.1, 10.0, trials=2, seed=0, max_sources=None
        )
        assert (tradeoff.high_summary.mean("results_per_query")
                >= tradeoff.low_summary.mean("results_per_query"))

    def test_lone_increaser_suffers(self):
        # Paper: one node going 4 -> 9 neighbours alone sees ~+303% load.
        config = Configuration(graph_size=1000, cluster_size=10, ttl=7, avg_outdegree=3.1)
        result = lone_increaser_penalty(config, from_degree=4, to_degree=9,
                                        seed=0, max_sources=None)
        assert result.relative_increase > 0.5  # a large unilateral penalty

    def test_lone_increaser_validates_degrees(self):
        config = Configuration(graph_size=300, cluster_size=10, avg_outdegree=3.1)
        with pytest.raises(ValueError):
            lone_increaser_penalty(config, from_degree=5, to_degree=5)


class TestRule4Ttl:
    def test_excess_ttl_wastes_bandwidth(self):
        # The paper's rule #4 example: outdegree 20, full reach at TTL 3;
        # TTL 4 spends ~19% more aggregate incoming bandwidth on redundant
        # queries (we measure ~17% on the synthetic topology).
        base = Configuration(graph_size=10_000, cluster_size=10, avg_outdegree=20.0)
        savings = ttl_savings(base, high_ttl=4, low_ttl=3, trials=1, seed=0,
                              max_sources=250)
        assert savings.reach_preserved(tolerance=0.02)
        assert savings.incoming_saving() > 0.08

    def test_insufficient_ttl_loses_reach(self):
        base = Configuration(graph_size=1000, cluster_size=10, avg_outdegree=3.1)
        savings = ttl_savings(base, high_ttl=7, low_ttl=1, trials=2, seed=0,
                              max_sources=None)
        assert not savings.reach_preserved()

    def test_validates_ttl_order(self):
        with pytest.raises(ValueError):
            ttl_savings(Configuration(), high_ttl=3, low_ttl=3)
