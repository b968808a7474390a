"""Query model (g, f), file counts, lifespans, and Appendix B expectations."""

import numpy as np
import pytest

from repro import constants
from repro.config import Configuration
from repro.querymodel.distributions import (
    QueryModel,
    default_query_model,
    make_query_model,
)
from repro.querymodel.expectation import cluster_expectations
from repro.querymodel.files import default_file_distribution, make_file_distribution
from repro.querymodel.lifespan import (
    default_lifespan_distribution,
    make_lifespan_distribution,
)
from repro.sim.schedule import generate_workload
from repro.topology.builder import build_instance


class TestQueryModel:
    def test_g_must_sum_to_one(self):
        with pytest.raises(ValueError):
            QueryModel(g=np.array([0.5, 0.4]), f=np.array([0.1, 0.1]))

    def test_f_must_be_probability(self):
        with pytest.raises(ValueError):
            QueryModel(g=np.array([0.5, 0.5]), f=np.array([0.1, 1.2]))

    def test_mean_selection_power(self):
        model = QueryModel(g=np.array([0.25, 0.75]), f=np.array([0.2, 0.04]))
        assert model.mean_selection_power == pytest.approx(0.25 * 0.2 + 0.75 * 0.04)

    def test_expected_results_linear_in_collection(self):
        model = default_query_model()
        assert model.expected_results(200) == pytest.approx(
            2 * model.expected_results(100)
        )

    def test_prob_no_result_closed_form(self):
        model = QueryModel(g=np.array([1.0]), f=np.array([0.01]))
        assert model.prob_no_result(10) == pytest.approx(0.99**10)
        assert model.prob_some_result(10) == pytest.approx(1 - 0.99**10)

    def test_prob_no_result_empty_collection_is_one(self):
        model = default_query_model()
        assert model.prob_no_result(0) == pytest.approx(1.0)

    def test_prob_no_result_decreases_with_size(self):
        model = default_query_model()
        probs = model.prob_no_result(np.array([0.0, 10.0, 100.0, 1000.0]))
        assert np.all(np.diff(probs) < 0)

    def test_calibration_hits_target(self):
        model = default_query_model()
        target = constants.EXPECTED_RESULTS_PER_PEER / constants.MEAN_FILES_PER_PEER
        assert model.mean_selection_power == pytest.approx(target, rel=1e-6)

    def test_rescale_rejects_impossible_target(self):
        model = make_query_model(num_classes=5)
        with pytest.raises(ValueError):
            model.with_mean_selection_power(0.9)

    def test_popular_queries_match_more(self):
        model = default_query_model()
        # g and f are co-monotone: the most popular class has the largest
        # selection power.
        assert model.f[0] == model.f.max()
        assert model.g[0] == model.g.max()

    def test_sample_query_class_respects_g(self):
        # The simulator's schedule draws each query's class from g.
        model = make_query_model(num_classes=10, popularity_exponent=2.0)
        instance = build_instance(Configuration(graph_size=300), seed=0)
        schedule = generate_workload(instance, 7200.0, seed=0, enable_churn=False,
                                     enable_updates=False, model=model)
        freq0 = np.mean(schedule.q_class == 0)
        assert freq0 == pytest.approx(model.g[0], rel=0.05)


class TestFileDistribution:
    def test_overall_mean_calibrated(self):
        dist = default_file_distribution()
        assert dist.mean == pytest.approx(constants.MEAN_FILES_PER_PEER, rel=1e-9)
        samples = dist.sample(0, 200_000)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.05)

    def test_free_rider_fraction(self):
        samples = default_file_distribution().sample(1, 100_000)
        assert (samples == 0).mean() == pytest.approx(
            constants.FREE_RIDER_FRACTION, abs=0.01
        )

    def test_sharers_hold_at_least_one_file(self):
        samples = default_file_distribution().sample(2, 50_000)
        sharers = samples[samples > 0]
        assert sharers.min() >= 1

    def test_heavy_tail(self):
        samples = default_file_distribution().sample(3, 100_000)
        # Median well below mean: the distribution is right-skewed.
        assert np.median(samples[samples > 0]) < samples.mean()

    def test_cap_respected(self):
        dist = make_file_distribution(mean_files=100, sigma=3.0)
        samples = dist.sample(0, 50_000)
        assert samples.max() <= dist.max_files

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_file_distribution(mean_files=-1)
        with pytest.raises(ValueError):
            default_file_distribution().sample(0, -5)


class TestLifespanDistribution:
    def test_mean_calibrated_for_query_join_ratio(self):
        dist = default_lifespan_distribution()
        assert dist.mean == pytest.approx(constants.MEAN_SESSION_SECONDS, rel=1e-9)
        samples = dist.sample(0, 200_000)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.05)

    def test_minimum_session_length(self):
        samples = default_lifespan_distribution().sample(1, 50_000)
        assert samples.min() >= 30.0

    def test_join_rates_are_inverse(self):
        dist = default_lifespan_distribution()
        spans = np.array([100.0, 2000.0])
        np.testing.assert_allclose(dist.join_rates(spans), [0.01, 0.0005])

    def test_custom_mean(self):
        dist = make_lifespan_distribution(mean_seconds=500.0)
        assert dist.mean == pytest.approx(500.0)


class TestClusterExpectations:
    @pytest.fixture
    def instance(self):
        return build_instance(Configuration(graph_size=300, cluster_size=10), seed=3)

    def test_eq5_results_proportional_to_index(self, instance):
        exp = cluster_expectations(instance)
        model = default_query_model()
        np.testing.assert_allclose(
            exp.expected_results,
            instance.index_sizes * model.mean_selection_power,
        )

    def test_eq6_collections_bounded_by_cluster_population(self, instance):
        exp = cluster_expectations(instance)
        max_collections = instance.clients + instance.partners
        assert np.all(exp.expected_collections <= max_collections + 1e-9)
        assert np.all(exp.expected_collections >= 0)

    def test_prob_respond_in_unit_interval(self, instance):
        exp = cluster_expectations(instance)
        assert np.all((exp.prob_respond >= 0) & (exp.prob_respond <= 1))

    def test_collections_never_exceed_response_probability_logic(self, instance):
        # If a cluster responds with probability ~0 it must also expect ~0
        # contributing collections.
        exp = cluster_expectations(instance)
        tiny = exp.prob_respond < 1e-6
        assert np.all(exp.expected_collections[tiny] < 1e-4)

    def test_empty_cluster_expectations(self):
        # A pure network cluster (no clients) still has its own collection.
        inst = build_instance(Configuration(graph_size=50, cluster_size=1), seed=0)
        exp = cluster_expectations(inst)
        assert exp.num_clusters == 50
        assert np.all(exp.expected_collections <= 1.0 + 1e-9)

    def test_total_results_scales_with_network_files(self, instance):
        exp = cluster_expectations(instance)
        model = default_query_model()
        expected = instance.index_sizes.sum() * model.mean_selection_power
        assert exp.total_expected_results() == pytest.approx(expected)

    def test_full_reach_results_near_calibration(self):
        # ~0.09 results per reached peer (the calibration constant).
        inst = build_instance(Configuration(graph_size=3000, cluster_size=10), seed=0)
        exp = cluster_expectations(inst)
        per_peer = exp.total_expected_results() / inst.num_peers
        assert per_peer == pytest.approx(constants.EXPECTED_RESULTS_PER_PEER, rel=0.15)
