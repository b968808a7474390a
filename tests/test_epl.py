"""EPL measurement, the log_d approximation, and TTL selection (rule #4)."""

import math

import numpy as np
import pytest

from repro.core.epl import (
    choose_ttl,
    epl_approximation,
    measure_epl,
    measure_reach,
    minimum_full_reach_ttl,
)
from repro.topology.plod import plod_graph
from repro.topology.strong import strongly_connected_graph

from conftest import path_graph, ring_graph, star_graph


class TestMeasureEpl:
    def test_star_epl_exact(self):
        # From the hub every responder is one hop away (EPL 1); from a leaf
        # the hub is at 1 and the 8 other leaves at 2 (EPL 17/9).  The
        # all-sources average is (1 + 9 * 17/9) / 10 = 1.8.
        epl = measure_epl(star_graph(10), reach=10, num_sources=None, rng=0)
        assert epl == pytest.approx((1.0 + 9 * (17.0 / 9.0)) / 10.0)

    def test_path_epl_exact(self):
        # From node 0 of a path, the nearest r nodes sit at depths 1..r-1:
        # EPL = mean(1..r-1).
        g = path_graph(10)
        epls = []
        prop_epl = measure_epl(g, reach=5, num_sources=None, rng=0)
        # Averaged over all sources it is still bounded by the exact
        # endpoint values.
        assert 1.0 < prop_epl < 4.0

    def test_complete_graph_epl_one(self):
        assert measure_epl(strongly_connected_graph(500), reach=100) == 1.0

    def test_epl_decreases_with_outdegree(self):
        low = measure_epl(plod_graph(600, 3.1, rng=0), reach=300, num_sources=24, rng=0)
        high = measure_epl(plod_graph(600, 10.0, rng=0), reach=300, num_sources=24, rng=0)
        assert high < low

    def test_epl_increases_with_reach(self):
        g = plod_graph(800, 4.0, rng=1)
        small = measure_epl(g, reach=50, num_sources=24, rng=0)
        large = measure_epl(g, reach=600, num_sources=24, rng=0)
        assert large > small

    def test_bfs_is_unbounded_on_a_long_path(self):
        # A 200-node path has diameter 199: from an end, the 150 nearest
        # nodes lie up to 149 hops away, and every source can cover them.
        g = path_graph(200)
        expected = np.mean([
            np.mean(sorted(abs(v - s) for v in range(200) if v != s)[:149])
            for s in range(200)
        ])
        epl = measure_epl(g, 150, num_sources=None)
        assert epl == pytest.approx(expected, rel=1e-12)

    def test_invalid_reach(self):
        g = ring_graph(10)
        with pytest.raises(ValueError):
            measure_epl(g, reach=1)
        with pytest.raises(ValueError):
            measure_epl(g, reach=11)


class TestMeasureReach:
    def test_ring_reach(self):
        assert measure_reach(ring_graph(10), ttl=2, num_sources=None) == 5.0

    def test_complete_graph_full(self):
        assert measure_reach(strongly_connected_graph(123), ttl=1) == 123.0

    def test_monotone_in_ttl(self):
        g = plod_graph(400, 3.1, rng=2)
        reaches = [measure_reach(g, ttl, num_sources=16, rng=0) for ttl in range(1, 8)]
        assert all(a <= b for a, b in zip(reaches, reaches[1:]))


class TestApproximation:
    def test_exact_on_powers(self):
        assert epl_approximation(10, 1000) == pytest.approx(3.0)
        assert epl_approximation(20, 400) == pytest.approx(math.log(400, 20))

    def test_lower_bound_on_real_graph(self):
        # Appendix F: "In a graph topology, the approximation becomes a
        # lower bound" (cycles lower the effective outdegree).
        g = plod_graph(1000, 10.0, rng=3)
        measured = measure_epl(g, reach=500, num_sources=24, rng=0)
        approx = epl_approximation(10.0, 500)
        assert approx <= measured + 0.35

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            epl_approximation(1.0, 100)
        with pytest.raises(ValueError):
            epl_approximation(5.0, 1.0)


class TestChooseTtl:
    def test_attains_target_reach(self):
        g = plod_graph(600, 5.0, rng=4)
        choice = choose_ttl(g, target_reach=300, num_sources=24, rng=0)
        assert choice.measured_reach >= 300

    def test_ttl_at_least_ceiling_of_epl(self):
        # Appendix F: TTL = floor(EPL) under-reaches, so the choice must be
        # at least the ceiling.
        g = plod_graph(600, 5.0, rng=5)
        choice = choose_ttl(g, target_reach=400, num_sources=24, rng=0)
        assert choice.ttl >= math.ceil(choice.measured_epl)

    def test_minimal(self):
        # One TTL lower must miss the target (otherwise it was not minimal).
        g = plod_graph(500, 4.0, rng=6)
        choice = choose_ttl(g, target_reach=250, num_sources=24, rng=0)
        if choice.ttl > 1:
            below = measure_reach(g, choice.ttl - 1, num_sources=24, rng=0)
            assert below < 250

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            choose_ttl(ring_graph(10), target_reach=1)


class TestMinimumFullReachTtl:
    def test_complete_graph_needs_one(self):
        assert minimum_full_reach_ttl(strongly_connected_graph(50)) == 1

    def test_ring_needs_half(self):
        assert minimum_full_reach_ttl(ring_graph(10), num_sources=None) == 5

    def test_star_from_any_source(self):
        assert minimum_full_reach_ttl(star_graph(8), num_sources=None) == 2
