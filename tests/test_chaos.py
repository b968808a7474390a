"""The seeded chaos harness (``repro.sim.chaos``)."""

import dataclasses

import pytest

from repro.sim.chaos import (
    ChaosSpec,
    check_invariants,
    generate_fault_plan,
    generate_recovery_policy,
    run_chaos,
    run_chaos_case,
)
from repro.sim.resilience import run_resilience
from repro.topology.builder import build_instance

SPEC = ChaosSpec(cases=3, base_seed=100, graph_size=150, cluster_size=10,
                 duration=200.0)


class TestGenerators:
    def test_plans_are_deterministic_per_seed(self):
        a = generate_fault_plan(5, num_clusters=20, duration=400.0)
        b = generate_fault_plan(5, num_clusters=20, duration=400.0)
        assert a == b
        assert a != generate_fault_plan(6, num_clusters=20, duration=400.0)

    def test_plans_are_never_null(self):
        for seed in range(40):
            assert not generate_fault_plan(
                seed, num_clusters=20, duration=400.0
            ).is_null

    def test_windows_close_before_the_run_ends(self):
        for seed in range(40):
            plan = generate_fault_plan(seed, num_clusters=20, duration=400.0)
            for window in plan.partitions:
                assert window.end <= 0.85 * 400.0
                for cluster in window.island:
                    assert 0 <= cluster < 20

    def test_retry_always_has_a_ceiling(self):
        for seed in range(20):
            plan = generate_fault_plan(seed, num_clusters=10, duration=300.0)
            assert plan.retry is not None
            assert plan.retry.ceiling <= 120.0

    def test_policies_always_keep_an_orphan_remedy(self):
        # rehome is always armed: that is what lets the harness assert
        # permanently_orphaned_clients == 0 for every generated policy.
        for seed in range(40):
            policy = generate_recovery_policy(seed)
            assert policy.rehome
        assert generate_recovery_policy(3) == generate_recovery_policy(3)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(cases=-1)
        with pytest.raises(ValueError):
            ChaosSpec(duration=0.0)
        with pytest.raises(ValueError):
            ChaosSpec(executor="mainframe")
        with pytest.raises(ValueError, match="cluster_size"):
            ChaosSpec(graph_size=5, cluster_size=10)
        with pytest.raises(ValueError, match="graph_size"):
            ChaosSpec(graph_size=-5)
        # cases=0 is a legal empty campaign, not an error.
        assert ChaosSpec(cases=0).seeds == ()

    def test_seeds_are_contiguous_from_base(self):
        assert ChaosSpec(cases=3, base_seed=7).seeds == (7, 8, 9)

    def test_round_trip(self):
        assert ChaosSpec.from_dict(SPEC.to_dict()) == SPEC


@pytest.fixture(scope="module")
def report():
    return run_chaos(SPEC, jobs=1)


class TestRunChaos:
    def test_all_invariants_hold(self, report):
        assert report.passed
        assert not report.failures
        assert len(report.cases) == SPEC.cases
        assert [c.seed for c in report.cases] == list(SPEC.seeds)

    def test_parallel_matches_serial(self, report):
        parallel = run_chaos(SPEC, jobs=2)
        assert ([c.to_dict() for c in parallel.cases]
                == [c.to_dict() for c in report.cases])

    def test_merged_manifest_covers_every_case(self, report):
        assert len(report.manifest.phases) == SPEC.cases
        assert report.manifest.extra["cases"] == SPEC.cases

    def test_report_is_json_ready(self, report):
        import json

        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert len(payload["cases"]) == SPEC.cases
        assert payload["spec"] == SPEC.to_dict()

    def test_report_payload_is_the_same_on_every_backend(self, report):
        # The lane count is a dispatch setting, not a measurement: it
        # stays on the report object and out of its payload.
        process = run_chaos(SPEC, jobs=2, executor="process")
        assert process.jobs == 2
        assert process.to_dict() == report.to_dict()
        assert "jobs" not in report.to_dict()

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            run_chaos(SPEC, jobs=0)


class TestInvariantChecks:
    """check_invariants must actually bite when an invariant is broken."""

    @pytest.fixture(scope="class")
    def case(self):
        seed = 100
        instance = build_instance(SPEC.configuration(), seed=seed)
        plan = generate_fault_plan(seed, num_clusters=instance.num_clusters,
                                   duration=SPEC.duration)
        policy = generate_recovery_policy(seed)
        report = run_resilience(instance, plan, duration=SPEC.duration,
                                rng=seed, recovery=policy)
        return instance, policy, report

    def test_honest_case_is_clean(self, case):
        instance, policy, report = case
        assert check_invariants(report.outcome, report.plan, instance,
                                policy) == []

    def test_conservation_violation_detected(self, case):
        instance, policy, report = case
        report.outcome.flood_messages_delivered += 1
        try:
            violations = check_invariants(report.outcome, report.plan,
                                          instance, policy)
        finally:
            report.outcome.flood_messages_delivered -= 1
        assert any("conservation" in v for v in violations)

    def test_orphan_violation_detected(self, case):
        instance, policy, report = case
        report.outcome.permanently_orphaned_clients = 2
        try:
            violations = check_invariants(report.outcome, report.plan,
                                          instance, policy)
        finally:
            report.outcome.permanently_orphaned_clients = 0
        assert any("orphaned" in v for v in violations)

    def test_overlay_violation_detected(self, case):
        instance, policy, report = case
        report.outcome.overlay_restored = False
        try:
            violations = check_invariants(report.outcome, report.plan,
                                          instance, policy)
        finally:
            report.outcome.overlay_restored = True
        assert any("overlay" in v for v in violations)

    def test_recovery_off_skips_recovery_invariants(self, case):
        instance, policy, report = case
        report.outcome.overlay_restored = False
        try:
            violations = check_invariants(report.outcome, report.plan,
                                          instance, None)
        finally:
            report.outcome.overlay_restored = True
        assert violations == []

    def test_case_runs_the_degraded_simulation_and_its_replay_only(
            self, monkeypatch):
        # No invariant reads a fault-free baseline, so a case simulates
        # twice, both times under its fault plan.
        from repro.sim import resilience

        plans = []
        real = resilience.simulate_instance

        def counted(*args, **kwargs):
            plans.append(kwargs.get("faults"))
            return real(*args, **kwargs)

        monkeypatch.setattr(resilience, "simulate_instance", counted)
        run_chaos_case(SPEC, 101)
        assert len(plans) == 2
        assert all(plan is not None and not plan.is_null for plan in plans)

    def test_replay_is_bit_identical(self):
        a = run_chaos_case(SPEC, 101)
        b = run_chaos_case(SPEC, 101)
        assert a.passed and a.digest == b.digest
        assert a.to_dict() == b.to_dict()
