"""Routing-indices search (the paper's cited [4], on our substrate)."""

import pytest

from repro.config import Configuration
from repro.search import FloodingSearch, RandomWalkSearch, RoutingIndicesSearch
from repro.topology.builder import build_instance


@pytest.fixture(scope="module")
def instance():
    config = Configuration(graph_size=800, cluster_size=10, avg_outdegree=4.0, ttl=7)
    return build_instance(config, seed=1)


class TestIndexConstruction:
    def test_goodness_counts_documents_through_edge(self):
        """On a path A-B-C with known files, the index is hand-checkable."""
        import numpy as np
        from repro.querymodel.distributions import QueryModel
        from repro.topology.builder import NetworkInstance
        from repro.topology.graph import OverlayGraph

        config = Configuration(graph_size=3, cluster_size=1, avg_outdegree=1.0, ttl=2)
        inst = NetworkInstance(
            config=config,
            graph=OverlayGraph.from_edges(3, [(0, 1), (1, 2)]),
            clients=np.zeros(3, dtype=np.int64),
            client_ptr=np.zeros(4, dtype=np.int64),
            client_files=np.zeros(0, dtype=np.int64),
            client_lifespans=np.zeros(0),
            partner_files=np.array([[10], [20], [40]]),
            partner_lifespans=np.full((3, 1), 1e9),
        )
        model = QueryModel(g=np.array([1.0]), f=np.array([0.001]))
        ri = RoutingIndicesSearch(inst, model=model, horizon=2, result_target=1.0)
        # Through 0 -> 1: node 1's 20 files at hop 1 + node 2's 40 at hop 2
        # attenuated by 1/2 = 20 + 20.
        assert ri.goodness(0, 1) == pytest.approx(40.0)
        # Through 2 -> 1: 20 + 10/2.
        assert ri.goodness(2, 1) == pytest.approx(25.0)
        # Middle node sees each side without crossing itself.
        assert ri.goodness(1, 0) == pytest.approx(10.0)
        assert ri.goodness(1, 2) == pytest.approx(40.0)

    def test_horizon_grows_goodness(self, instance):
        short = RoutingIndicesSearch(instance, horizon=1, result_target=10)
        long = RoutingIndicesSearch(instance, horizon=4, result_target=10)
        node = 0
        neighbor = int(instance.graph.neighbors(node)[0])
        assert long.goodness(node, neighbor) >= short.goodness(node, neighbor)

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            RoutingIndicesSearch(instance, horizon=0)
        with pytest.raises(ValueError):
            RoutingIndicesSearch(instance, result_target=0.0)


class TestSearchBehaviour:
    def test_meets_result_target(self, instance):
        ri = RoutingIndicesSearch(instance, result_target=30.0)
        cost = ri.evaluate(num_sources=16, rng=0)
        assert cost.expected_results >= 30.0 * 0.95

    def test_beats_flooding_on_messages(self, instance):
        flood = FloodingSearch(instance).evaluate(num_sources=16, rng=0)
        ri = RoutingIndicesSearch(instance, result_target=30.0).evaluate(
            num_sources=16, rng=0
        )
        assert ri.query_messages < 0.5 * flood.query_messages

    def test_informed_beats_blind_walk(self, instance):
        """The protocol's point: index-guided exploration needs fewer
        probes than random walking for the same result target."""
        target = 30.0
        ri = RoutingIndicesSearch(instance, result_target=target).evaluate(
            num_sources=16, rng=0
        )
        walk = RandomWalkSearch(
            instance, num_walkers=8, max_steps=256, result_target=target,
            rng=0, num_samples=4,
        ).evaluate(num_sources=16, rng=0)
        assert ri.query_messages < walk.query_messages

    def test_unreachable_target_visits_everything(self, instance):
        ri = RoutingIndicesSearch(instance, result_target=1e12)
        cost = ri.query_cost(0)
        assert cost.reach == instance.num_clusters

    def test_max_visits_bounds_exploration(self, instance):
        ri = RoutingIndicesSearch(instance, result_target=1e12, max_visits=20)
        cost = ri.query_cost(0)
        assert cost.reach <= 20

    def test_deterministic(self, instance):
        a = RoutingIndicesSearch(instance, result_target=25.0).query_cost(5)
        b = RoutingIndicesSearch(instance, result_target=25.0).query_cost(5)
        assert a == b
