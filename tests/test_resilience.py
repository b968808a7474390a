"""Degraded-mode measurement: pay-for-what-you-use, determinism, k-dominance."""

import numpy as np
import pytest

from repro.config import Configuration
from repro.reporting import render_resilience_report
from repro.sim.faults import CrashSpec, FaultPlan, RetryPolicy
from repro.sim.network import simulate_instance
from repro.sim.resilience import run_resilience
from repro.topology.builder import build_instance

# Each case runs paired (baseline + degraded) simulations; the fast tier
# keeps fault coverage via test_faults.py and the neutrality tests.
pytestmark = pytest.mark.slow

LOAD_FIELDS = (
    "superpeer_incoming_bps",
    "superpeer_outgoing_bps",
    "superpeer_processing_hz",
    "client_incoming_bps",
    "client_outgoing_bps",
    "client_processing_hz",
)

CRASH_PLAN = FaultPlan(
    message_loss=0.02,
    crash=CrashSpec(mean_recovery=120.0),
    retry=RetryPolicy(timeout=5.0, max_retries=2),
)


@pytest.fixture(scope="module")
def instance():
    config = Configuration(graph_size=400, cluster_size=10, redundancy=True)
    return build_instance(config, seed=5)


@pytest.fixture(scope="module")
def crash_reports():
    """k=1 vs k=2 under the identical fault plan (shared by several tests)."""
    out = {}
    for k, redundancy in ((1, False), (2, True)):
        config = Configuration(graph_size=400, cluster_size=10, redundancy=redundancy)
        inst = build_instance(config, seed=5)
        out[k] = run_resilience(inst, CRASH_PLAN, duration=1200.0, rng=5)
    return out


class TestZeroFaultIdentity:
    @pytest.mark.parametrize("engine", ["event", "array"])
    def test_null_plan_reproduces_fault_free_run(self, instance, engine):
        """Acceptance criterion: zero-fault plan == fault-free, within 1e-9."""
        plain = simulate_instance(instance, duration=600.0, rng=5, engine=engine)
        report = run_resilience(
            instance, FaultPlan(retry=RetryPolicy()), duration=600.0, rng=5,
            engine=engine,
        )
        for name in LOAD_FIELDS:
            a = np.asarray(getattr(plain, name))
            b = np.asarray(getattr(report.degraded, name))
            np.testing.assert_allclose(b, a, rtol=0.0, atol=1e-9)
        assert report.degraded.num_queries == plain.num_queries
        assert report.degraded.num_joins == plain.num_joins
        assert report.degraded.mean_results_per_query == plain.mean_results_per_query
        assert report.query_success_rate == 1.0
        assert report.results_lost_fraction == pytest.approx(0.0, abs=1e-9)
        assert report.outcome.partner_crashes == 0

    def test_generator_rng_rejected(self, instance):
        with pytest.raises(TypeError):
            run_resilience(
                instance, FaultPlan(), duration=100.0,
                rng=np.random.default_rng(0),
            )


class TestDeterminism:
    def test_same_plan_same_seed_is_bit_identical(self, instance):
        plan = FaultPlan(message_loss=0.05, crash=CrashSpec(mean_recovery=90.0))
        r1 = run_resilience(instance, plan, duration=600.0, rng=7)
        r2 = run_resilience(instance, plan, duration=600.0, rng=7)
        for name in LOAD_FIELDS:
            assert np.array_equal(
                np.asarray(getattr(r1.degraded, name)),
                np.asarray(getattr(r2.degraded, name)),
            ), name
        assert r1.query_success_rate == r2.query_success_rate
        assert r1.outcome.partner_crashes == r2.outcome.partner_crashes
        assert r1.outcome.flood_messages_lost == r2.outcome.flood_messages_lost
        assert r1.outcome.recovery_times == r2.outcome.recovery_times
        assert r1.degraded.mean_results_per_query == r2.degraded.mean_results_per_query


class TestPairedWorkload:
    def test_loss_only_plan_keeps_query_count(self, instance):
        """Common random numbers: both runs execute the same workload."""
        report = run_resilience(
            instance, FaultPlan(message_loss=0.05), duration=600.0, rng=5
        )
        assert report.degraded.num_queries == report.baseline.num_queries
        assert report.degraded.num_joins == report.baseline.num_joins
        # Delivery thinning is the only difference, so results only drop.
        assert 0.0 < report.results_lost_fraction < 1.0
        assert report.outcome.truncated_floods > 0
        assert report.outcome.flood_messages_lost > 0


class TestRedundancyDominance:
    def test_k2_success_rate_strictly_dominates_k1(self, crash_reports):
        """Acceptance criterion: k=2 beats k=1 under the shared fault plan."""
        assert (
            crash_reports[2].query_success_rate
            > crash_reports[1].query_success_rate
        )

    def test_k2_availability_and_losses_dominate(self, crash_reports):
        r1, r2 = crash_reports[1], crash_reports[2]
        assert r2.cluster_availability > r1.cluster_availability
        assert r2.results_lost_fraction < r1.results_lost_fraction
        assert r2.orphaned_client_seconds < r1.orphaned_client_seconds

    def test_failover_machinery(self, crash_reports):
        # A lone super-peer has nobody to fail over to.
        assert crash_reports[1].failover_count == 0
        assert crash_reports[2].failover_count > 0
        # Both see crashes; only k=1 turns every crash into a blackout.
        o1, o2 = crash_reports[1].outcome, crash_reports[2].outcome
        assert o1.outages == o1.partner_crashes
        assert o2.outages < o2.partner_crashes

    def test_degraded_side_effects_recorded(self, crash_reports):
        for report in crash_reports.values():
            out = report.outcome
            assert out.queries_attempted > 0
            assert out.orphaned_queries > 0
            assert out.lost_updates > 0
            assert out.recovery_times
            assert report.mean_time_to_recover > 0
            assert report.longest_outage >= max(out.recovery_times)

    def test_report_rendering(self, crash_reports):
        text = render_resilience_report(crash_reports[2], title="t")
        assert "query success rate" in text
        assert "failovers absorbed" in text
        assert "super-peer (degraded)" in text
        assert "load inflation" in text


class TestSerialization:
    def test_report_round_trips_through_json(self, crash_reports):
        import json

        from repro.sim.resilience import ResilienceReport

        report = crash_reports[2]
        payload = json.loads(json.dumps(report.to_dict()))
        clone = ResilienceReport.from_dict(payload)
        assert clone.plan == report.plan
        assert clone.duration == report.duration
        assert clone.partners == report.partners
        assert clone.recovery == report.recovery is None
        assert clone.outcome.to_dict() == report.outcome.to_dict()
        for name in LOAD_FIELDS:
            assert np.array_equal(getattr(clone.degraded, name),
                                  getattr(report.degraded, name))
            assert np.array_equal(getattr(clone.baseline, name),
                                  getattr(report.baseline, name))
        # Derived metrics survive the trip exactly.
        assert clone.query_success_rate == report.query_success_rate
        assert clone.results_lost_fraction == report.results_lost_fraction
        assert clone.to_dict() == payload

    def test_recovery_policy_survives_round_trip(self, instance):
        from repro.sim.monitor import DetectorSpec
        from repro.sim.recovery import RecoveryPolicy
        from repro.sim.resilience import ResilienceReport

        policy = RecoveryPolicy(
            detector=DetectorSpec(heartbeat_interval=4.0, timeout_beats=2)
        )
        report = run_resilience(instance, CRASH_PLAN, duration=400.0, rng=5,
                                recovery=policy)
        clone = ResilienceReport.from_dict(report.to_dict())
        assert clone.recovery == policy
        assert clone.promotions == report.promotions
        assert clone.repair_cost == report.repair_cost
