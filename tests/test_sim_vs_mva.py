"""The validation contract: simulator averages converge to the MVA.

The event-driven simulator and the mean-value analysis are independent
implementations of the same system model; their long-run means must
agree.  Churn is simulated with each slot's instance-assigned lifespan
(exponential sessions), so even the join workload is comparable —
though churn resamples replacement collections, so the tightest checks
run with churn off against the query+update components.
"""

import numpy as np
import pytest

from repro.config import Configuration, GraphType
from repro.core.load import evaluate_instance
from repro.sim.network import simulate_instance
from repro.topology.builder import build_instance

# Long simulations (minutes in aggregate): the fast tier skips them and
# tests/test_golden.py + test_sim_smoke keep the cheap coverage.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def power_instance():
    config = Configuration(graph_size=300, cluster_size=10, ttl=4, avg_outdegree=4.0)
    return build_instance(config, seed=3)


class TestQueryLoadAgreement:
    @pytest.fixture(scope="class")
    def pair(self, power_instance):
        mva = evaluate_instance(power_instance, components=("query", "update"))
        sim = simulate_instance(
            power_instance, duration=30_000.0, rng=7, enable_churn=False
        )
        return mva, sim

    def test_superpeer_means_within_3pct(self, pair):
        mva, sim = pair
        errors = sim.relative_error_vs(mva)
        for resource, err in errors.items():
            assert abs(err) < 0.03, f"{resource}: {err:+.3f}"

    def test_results_per_query_agree(self, pair):
        mva, sim = pair
        assert sim.mean_results_per_query == pytest.approx(
            mva.mean_results_per_query(), rel=0.05
        )

    def test_reach_agrees(self, pair):
        mva, sim = pair
        assert sim.mean_reach_clusters == pytest.approx(
            mva.mean_reach_clusters(), rel=0.02
        )

    def test_client_loads_agree(self, pair):
        mva, sim = pair
        assert sim.client_outgoing_bps.mean() == pytest.approx(
            mva.mean_client_load().outgoing_bps, rel=0.05
        )
        assert sim.client_incoming_bps.mean() == pytest.approx(
            mva.mean_client_load().incoming_bps, rel=0.05
        )


class TestFullWorkloadAgreement:
    def test_with_churn_within_loose_band(self, power_instance):
        # Churn resamples replacement collections toward the distribution
        # mean, so instance-specific file totals drift; a 15% band is the
        # honest contract here.
        mva = evaluate_instance(power_instance)
        sim = simulate_instance(power_instance, duration=20_000.0, rng=11)
        errors = sim.relative_error_vs(mva)
        for resource, err in errors.items():
            assert abs(err) < 0.15, f"{resource}: {err:+.3f}"
        assert sim.num_joins > 0
        assert sim.num_updates > 0

    def test_redundant_configuration_agrees(self):
        config = Configuration(
            graph_type=GraphType.STRONG, graph_size=200, cluster_size=10,
            ttl=1, redundancy=True,
        )
        instance = build_instance(config, seed=5)
        mva = evaluate_instance(instance, components=("query", "update"))
        sim = simulate_instance(instance, duration=20_000.0, rng=3, enable_churn=False)
        errors = sim.relative_error_vs(mva)
        for resource, err in errors.items():
            assert abs(err) < 0.05, f"{resource}: {err:+.3f}"


class TestSimulatorBehaviour:
    def test_deterministic_given_seed(self, power_instance):
        a = simulate_instance(power_instance, duration=500.0, rng=1)
        b = simulate_instance(power_instance, duration=500.0, rng=1)
        np.testing.assert_array_equal(
            a.superpeer_incoming_bps, b.superpeer_incoming_bps
        )
        assert a.num_queries == b.num_queries

    def test_query_count_matches_rate(self, power_instance):
        duration = 10_000.0
        sim = simulate_instance(
            power_instance, duration=duration, rng=2,
            enable_churn=False, enable_updates=False,
        )
        expected = power_instance.config.query_rate * power_instance.num_peers * duration
        assert sim.num_queries == pytest.approx(expected, rel=0.05)

    def test_disabling_updates_removes_them(self, power_instance):
        sim = simulate_instance(
            power_instance, duration=2_000.0, rng=2, enable_updates=False
        )
        assert sim.num_updates == 0

    def test_invalid_duration(self, power_instance):
        with pytest.raises(ValueError):
            simulate_instance(power_instance, duration=0.0)

    def test_bandwidth_conservation_in_sim(self, power_instance):
        # Aggregated over the whole network, sent bytes equal received
        # bytes (partner handshakes are attributed symmetrically).
        sim = simulate_instance(power_instance, duration=10_000.0, rng=4)
        total = sim.aggregate_load()
        assert total.incoming_bps == pytest.approx(total.outgoing_bps, rel=1e-6)
