"""Search protocols: flooding, expanding ring, random walks."""

import pytest

from repro.config import Configuration, GraphType
from repro.search import (
    ExpandingRingSearch,
    FloodingSearch,
    QueryCost,
    RandomWalkSearch,
)
from repro.topology.builder import build_instance


@pytest.fixture(scope="module")
def instance():
    config = Configuration(graph_size=800, cluster_size=10, avg_outdegree=4.0, ttl=7)
    return build_instance(config, seed=1)


@pytest.fixture(scope="module")
def strong_instance():
    config = Configuration(
        graph_type=GraphType.STRONG, graph_size=200, cluster_size=10, ttl=1
    )
    return build_instance(config, seed=1)


class TestQueryCost:
    def test_totals(self):
        cost = QueryCost(10, 5, 940, 500, 20.0, 15, 2.0)
        assert cost.total_messages == 15
        assert cost.total_bytes == 1440
        assert cost.efficiency() == pytest.approx(20.0 / (1440 / 1024))

    def test_zero_bytes_efficiency(self):
        cost = QueryCost(0, 0, 0, 0, 0.0, 1, 0.0)
        assert cost.efficiency() == 0.0


class TestFlooding:
    def test_matches_load_engine_results(self, instance):
        from repro.core.load import evaluate_instance

        report = evaluate_instance(instance, max_sources=None)
        flood = FloodingSearch(instance)
        cost = flood.query_cost(0)
        assert cost.expected_results == pytest.approx(report.results_per_query[0])
        assert cost.reach == report.reach_clusters[0]

    def test_full_reach_on_strong(self, strong_instance):
        cost = FloodingSearch(strong_instance).query_cost(0)
        assert cost.reach == 20
        assert cost.mean_response_hops == pytest.approx(1.0)

    def test_cost_grows_with_ttl(self, instance):
        small = FloodingSearch(instance, ttl=2).evaluate(num_sources=16, rng=0)
        large = FloodingSearch(instance, ttl=6).evaluate(num_sources=16, rng=0)
        assert large.total_messages > small.total_messages
        assert large.expected_results >= small.expected_results

    def test_ttl_validated(self, instance):
        with pytest.raises(ValueError):
            FloodingSearch(instance, ttl=0)


class TestExpandingRing:
    def test_cheaper_than_flooding_for_modest_targets(self, instance):
        flood = FloodingSearch(instance).evaluate(num_sources=16, rng=0)
        ring = ExpandingRingSearch(
            instance, policy=(1, 2, 4, 7), result_target=30.0
        ).evaluate(num_sources=16, rng=0)
        assert ring.total_bytes < flood.total_bytes
        assert ring.expected_results >= 30.0 * 0.8  # most sources hit target

    def test_falls_back_to_deepest_ring(self, instance):
        # An unattainable target forces the full policy: at least the cost
        # of the deepest flood.
        deepest = FloodingSearch(instance, ttl=7).query_cost(0)
        ring = ExpandingRingSearch(
            instance, policy=(1, 2, 4, 7), result_target=1e9
        ).query_cost(0)
        assert ring.query_messages > deepest.query_messages
        assert ring.expected_results == pytest.approx(deepest.expected_results)

    def test_rings_needed_monotone_in_target(self, instance):
        easy = ExpandingRingSearch(instance, result_target=1.0).rings_needed(0)
        hard = ExpandingRingSearch(instance, result_target=150.0).rings_needed(0)
        assert easy <= hard

    def test_policy_validated(self, instance):
        with pytest.raises(ValueError):
            ExpandingRingSearch(instance, policy=())
        with pytest.raises(ValueError):
            ExpandingRingSearch(instance, policy=(2, 2))
        with pytest.raises(ValueError):
            ExpandingRingSearch(instance, result_target=0.0)


class TestDeadClusters:
    def test_dead_relays_truncate_the_flood(self, instance):
        import numpy as np

        full = FloodingSearch(instance).query_cost(0)
        dead = np.zeros(instance.num_clusters, dtype=bool)
        dead[1:6] = True
        truncated = FloodingSearch(instance, dead_clusters=dead).query_cost(0)
        assert truncated.reach <= full.reach
        assert truncated.expected_results <= full.expected_results

    def test_dead_source_returns_nothing(self, instance):
        import numpy as np

        dead = np.zeros(instance.num_clusters, dtype=bool)
        dead[0] = True
        cost = FloodingSearch(instance, dead_clusters=dead).query_cost(0)
        assert cost.reach == 0  # a dark source reaches nobody, itself included
        assert cost.expected_results == 0.0
        assert cost.query_messages == 0

    def test_mask_shape_validated(self, instance):
        import numpy as np

        with pytest.raises(ValueError):
            FloodingSearch(instance, dead_clusters=np.zeros(3, dtype=bool))

    def test_expanding_ring_escalates_around_dead_relays(self, instance):
        import numpy as np

        dead = np.zeros(instance.num_clusters, dtype=bool)
        dead[1:10] = True
        target = 40.0
        healthy = ExpandingRingSearch(
            instance, result_target=target
        ).rings_needed(0)
        degraded = ExpandingRingSearch(
            instance, result_target=target, dead_clusters=dead
        ).rings_needed(0)
        assert degraded >= healthy


class TestRandomWalk:
    def test_costs_scale_with_walkers(self, instance):
        few = RandomWalkSearch(
            instance, num_walkers=4, max_steps=32, result_target=1e9,
            rng=0, num_samples=4,
        ).query_cost(0)
        many = RandomWalkSearch(
            instance, num_walkers=32, max_steps=32, result_target=1e9,
            rng=0, num_samples=4,
        ).query_cost(0)
        assert many.query_messages > few.query_messages
        assert many.reach >= few.reach

    def test_stop_rule_saves_messages(self, instance):
        unbounded = RandomWalkSearch(
            instance, num_walkers=16, max_steps=64, result_target=1e9,
            rng=0, num_samples=4,
        ).query_cost(0)
        bounded = RandomWalkSearch(
            instance, num_walkers=16, max_steps=64, result_target=10.0,
            rng=0, num_samples=4,
        ).query_cost(0)
        assert bounded.query_messages < unbounded.query_messages

    def test_deterministic_given_rng(self, instance):
        a = RandomWalkSearch(instance, rng=7, num_samples=2).query_cost(3)
        b = RandomWalkSearch(instance, rng=7, num_samples=2).query_cost(3)
        assert a == b

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            RandomWalkSearch(instance, num_walkers=0)
        with pytest.raises(ValueError):
            RandomWalkSearch(instance, result_target=-1.0)

    def test_reach_bounded_by_graph(self, instance):
        cost = RandomWalkSearch(
            instance, num_walkers=8, max_steps=16, rng=1, num_samples=2
        ).query_cost(0)
        assert cost.reach <= instance.num_clusters


class TestSearchObservability:
    """The protocols' hop/waste instrumentation (observation-only)."""

    def test_flooding_records_reach_and_response_hops(self, instance):
        from repro.obs.metrics import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as registry:
            cost = FloodingSearch(instance).query_cost(0)
        snap = registry.snapshot()["histograms"]
        assert snap["search.flooding.reach"]["count"] == 1
        assert snap["search.flooding.reach"]["max"] == pytest.approx(cost.reach)
        assert snap["search.flooding.response_hops"]["max"] == pytest.approx(
            cost.mean_response_hops
        )

    def test_expanding_ring_counts_wasted_messages(self, instance):
        from repro.obs.metrics import MetricsRegistry, use_registry

        ring = ExpandingRingSearch(instance, result_target=1e9)  # never satisfied
        with use_registry(MetricsRegistry()) as registry:
            ring.query_cost(0)
        counters = registry.snapshot()["counters"]
        rings = len(ring.policy)
        assert counters["search.expanding_ring.rings_issued"] == rings
        assert counters["search.expanding_ring.escalations"] == rings - 1
        # Everything before the final ring was wasted query traffic.
        partial = sum(
            FloodingSearch(instance, ttl=t).query_cost(0).query_messages
            for t in ring.policy[:-1]
        )
        assert counters["search.expanding_ring.wasted_query_messages"] == (
            pytest.approx(partial)
        )
        snap = registry.snapshot()["histograms"]
        assert snap["search.expanding_ring.rings_per_query"]["max"] == rings

    def test_search_metrics_are_neutral(self, instance):
        from repro.obs.metrics import MetricsRegistry, use_registry

        baseline = FloodingSearch(instance).query_cost(4)
        with use_registry(MetricsRegistry()):
            instrumented = FloodingSearch(instance).query_cost(4)
        assert baseline == instrumented
