"""Simulator coverage: redundant clusters with churn and updates enabled."""

import pytest

from repro.config import Configuration, GraphType
from repro.sim.network import simulate_instance
from repro.topology.builder import build_instance

# Long redundant-cluster simulations; fast-tier sim coverage lives in
# test_sim_engine.py and the short runs inside test_obs.py.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def redundant_instance():
    config = Configuration(
        graph_type=GraphType.STRONG, graph_size=150, cluster_size=10,
        ttl=1, redundancy=True,
    )
    return build_instance(config, seed=2)


def test_full_workload_runs(redundant_instance):
    report = simulate_instance(redundant_instance, duration=5_000.0, rng=1)
    assert report.num_queries > 0
    assert report.num_joins > 0
    assert report.num_updates > 0
    # Loads measured on every cluster.
    assert report.superpeer_incoming_bps.shape == (15,)
    assert (report.superpeer_incoming_bps > 0).all()


def test_partner_churn_counted(redundant_instance):
    with_churn = simulate_instance(redundant_instance, duration=5_000.0, rng=1)
    without = simulate_instance(
        redundant_instance, duration=5_000.0, rng=1, enable_churn=False
    )
    assert with_churn.num_joins > without.num_joins == 0


def test_byte_conservation_with_redundant_churn(redundant_instance):
    report = simulate_instance(redundant_instance, duration=5_000.0, rng=3)
    assert report.partners == redundant_instance.partners
    total = report.aggregate_load()
    assert total.incoming_bps == pytest.approx(total.outgoing_bps, rel=1e-6)


def test_results_track_mva_under_redundancy(redundant_instance):
    from repro.core.load import evaluate_instance

    mva = evaluate_instance(redundant_instance)
    sim = simulate_instance(redundant_instance, duration=20_000.0, rng=5,
                            enable_churn=False, enable_updates=False)
    assert sim.mean_results_per_query == pytest.approx(
        mva.mean_results_per_query(), rel=0.1
    )
