"""BFS flooding and reverse-path accumulation on hand-checkable graphs."""

import numpy as np
import pytest

from repro.core.routing import propagate_query
from repro.topology.graph import OverlayGraph
from repro.topology.strong import strongly_connected_graph

from conftest import path_graph, ring_graph, star_graph


class TestPathGraph:
    def test_depths_along_path(self):
        g = path_graph(5)
        prop = propagate_query(g, 0, ttl=3)
        assert prop.depth.tolist() == [0, 1, 2, 3, -1]

    def test_reach_equals_ttl_plus_one(self):
        g = path_graph(10)
        for ttl in range(1, 5):
            assert propagate_query(g, 0, ttl).reach == ttl + 1

    def test_predecessors_form_chain(self):
        g = path_graph(4)
        prop = propagate_query(g, 0, ttl=3)
        assert prop.pred.tolist() == [-1, 0, 1, 2]

    def test_transmissions_and_receipts_conserve(self):
        g = path_graph(6)
        prop = propagate_query(g, 2, ttl=2)
        assert prop.transmissions.sum() == prop.receipts.sum()

    def test_interior_source_floods_both_ways(self):
        g = path_graph(5)
        prop = propagate_query(g, 2, ttl=2)
        assert prop.depth.tolist() == [2, 1, 0, 1, 2]


class TestStarGraph:
    def test_hub_source_reaches_all_in_one_hop(self):
        g = star_graph(6)
        prop = propagate_query(g, 0, ttl=1)
        assert prop.reach == 6
        assert prop.depth[1:].tolist() == [1] * 5

    def test_leaf_source_needs_two_hops(self):
        g = star_graph(6)
        assert propagate_query(g, 3, ttl=1).reach == 2
        assert propagate_query(g, 3, ttl=2).reach == 6

    def test_leaf_ttl2_duplicate_accounting(self):
        # Leaf 3 sends to hub; hub forwards to the other 4 leaves; those
        # leaves have no other neighbours so no duplicates are generated.
        g = star_graph(6)
        prop = propagate_query(g, 3, ttl=2)
        assert prop.transmissions[3] == 1      # source fan-out
        assert prop.transmissions[0] == 4      # hub forwards to all but sender
        assert prop.receipts[0] == 1
        assert prop.receipts[3] == 0           # nothing returns to the source


class TestRingGraph:
    def test_ring_duplicates_where_floods_meet(self):
        # On a 4-cycle from node 0 with TTL 2, nodes 1 and 3 forward to
        # node 2, which receives two copies (one is a duplicate).
        g = ring_graph(4)
        prop = propagate_query(g, 0, ttl=2)
        assert prop.depth.tolist() == [0, 1, 2, 1]
        assert prop.receipts[2] == 2

    def test_full_ring_reach(self):
        g = ring_graph(8)
        assert propagate_query(g, 0, ttl=4).reach == 8
        assert propagate_query(g, 0, ttl=3).reach == 7


class TestGeneralInvariants:
    @pytest.mark.parametrize("ttl", [1, 2, 3, 5])
    def test_conservation_on_random_graph(self, ttl):
        from repro.topology.plod import plod_graph

        g = plod_graph(150, 4.0, rng=0)
        prop = propagate_query(g, 7, ttl=ttl)
        assert prop.transmissions.sum() == prop.receipts.sum()

    def test_reach_monotone_in_ttl(self):
        from repro.topology.plod import plod_graph

        g = plod_graph(200, 3.1, rng=1)
        reaches = [propagate_query(g, 0, ttl).reach for ttl in range(1, 8)]
        assert all(a <= b for a, b in zip(reaches, reaches[1:]))

    def test_invalid_inputs(self):
        g = path_graph(3)
        with pytest.raises(IndexError):
            propagate_query(g, 5, 1)
        with pytest.raises(ValueError):
            propagate_query(g, 0, 0)


class TestAccumulateToSource:
    def test_path_forwarding_counts(self):
        # 0-1-2-3, source 0, every node responds with weight 1:
        # node 3 forwards 1, node 2 forwards 2, node 1 forwards 3.
        g = path_graph(4)
        prop = propagate_query(g, 0, ttl=3)
        weights = np.array([0.0, 1.0, 1.0, 1.0])
        forwarded = prop.accumulate_to_source(weights)
        assert forwarded.tolist() == [3.0, 3.0, 2.0, 1.0]

    def test_star_no_forwarding(self):
        g = star_graph(5)
        prop = propagate_query(g, 0, ttl=1)
        weights = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        forwarded = prop.accumulate_to_source(weights)
        # Each leaf sends only its own response; source receives 4.
        assert forwarded[0] == 4.0
        assert forwarded[1:].tolist() == [1.0] * 4

    def test_weights_on_unreached_rejected(self):
        g = path_graph(4)
        prop = propagate_query(g, 0, ttl=1)
        bad = np.array([0.0, 1.0, 1.0, 0.0])  # node 2 unreached at TTL 1
        with pytest.raises(ValueError):
            prop.accumulate_to_source(bad)

    def test_total_weight_arrives_at_source(self):
        from repro.topology.plod import plod_graph

        g = plod_graph(120, 4.0, rng=2)
        prop = propagate_query(g, 3, ttl=3)
        weights = np.where(prop.reached, 2.5, 0.0)
        weights[3] = 0.0
        forwarded = prop.accumulate_to_source(weights)
        assert forwarded[3] == pytest.approx(weights.sum())

    def test_response_path_lengths_are_depths(self):
        g = path_graph(5)
        prop = propagate_query(g, 0, ttl=4)
        assert sorted(prop.depth[prop.reached].tolist()) == [0, 1, 2, 3, 4]


class TestCompleteGraphClosedForm:
    """``propagate_query`` on a CompleteGraph takes the kernel's K_n
    closed form; it must equal the BFS over the materialized graph."""

    def test_matches_explicit_bfs_ttl1(self):
        n = 9
        explicit = propagate_query(strongly_connected_graph(n).materialize(), 2, ttl=1)
        closed = propagate_query(strongly_connected_graph(n), 2, ttl=1)
        np.testing.assert_array_equal(explicit.depth, closed.depth)
        np.testing.assert_array_equal(explicit.pred, closed.pred)
        np.testing.assert_array_equal(explicit.transmissions, closed.transmissions)
        np.testing.assert_array_equal(explicit.receipts, closed.receipts)

    def test_matches_explicit_bfs_ttl2(self):
        n = 7
        explicit = propagate_query(strongly_connected_graph(n).materialize(), 0, ttl=2)
        closed = propagate_query(strongly_connected_graph(n), 0, ttl=2)
        np.testing.assert_array_equal(explicit.depth, closed.depth)
        np.testing.assert_array_equal(explicit.pred, closed.pred)
        np.testing.assert_array_equal(explicit.transmissions, closed.transmissions)
        np.testing.assert_array_equal(explicit.receipts, closed.receipts)

    def test_wrapper_dispatches_complete(self):
        # Far above the materialization limit: only the closed form can run.
        prop = propagate_query(strongly_connected_graph(10_000), 1, ttl=1)
        assert prop.reach == 10_000
        assert prop.transmissions[1] == 9_999

    def test_single_node(self):
        prop = propagate_query(strongly_connected_graph(1), 0, ttl=1)
        assert prop.reach == 1
        assert prop.transmissions.sum() == 0
