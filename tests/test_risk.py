"""The risk-aware design subsystem (``repro.risk``).

The load-bearing contracts:

* scenario enumeration is exact — hand-computable unit sets produce
  exactly the ``{assignments : p >= threshold}`` set with product
  probabilities, and the covered mass is ``>= 1 - cutoff``;
* the budget guard raises :class:`ScenarioBudgetError` instead of
  silently truncating, and the design procedure degrades per-candidate
  (drop + audit note), never by aborting;
* CVaR-at-α is the tail-conditional mean with the boundary atom split,
  ``alpha=0`` degenerates to the mean, and CVaR >= mean always;
* blackout fault plans are validated, round-trip through dicts, and
  actually darken the named clusters in the simulator;
* the end-to-end procedure picks the cheapest design meeting the
  availability target, and its ranked JSON document is byte-identical
  across executor backends.
"""

from __future__ import annotations

import json

import pytest

from repro.config import Configuration
from repro.core.design import DesignConstraints, design_topology
from repro.risk import (
    RISK_METRICS,
    FailureUnit,
    RiskDesignOutcome,
    RiskSpec,
    ScenarioBudgetError,
    build_scenario_set,
    crash_failure_units,
    cvar,
    design_topology_risk,
    enumerate_scenarios,
    partition_failure_units,
    weighted_mean,
)
from repro.sim.faults import FaultPlan
from repro.sim.resilience import run_resilience
from repro.topology.builder import build_instance

CONSTRAINTS = DesignConstraints(
    num_users=120,
    desired_reach_peers=60,
    max_incoming_bps=200_000.0,
    max_outgoing_bps=200_000.0,
    max_processing_hz=20_000_000.0,
    max_connections=80,
)


def small_spec(**overrides) -> RiskSpec:
    kwargs = dict(cutoff=0.05, alpha=0.9, availability_target=0.9,
                  duration=60.0, seed=0, max_candidates=2,
                  mean_recovery=30.0)
    kwargs.update(overrides)
    return RiskSpec(**kwargs)


# --- blackout fault plans ----------------------------------------------------


class TestBlackoutPlan:
    def test_negative_cluster_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(blackout=(-1,))

    def test_duplicate_cluster_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            FaultPlan(blackout=(3, 3))

    def test_normalized_sorted(self):
        assert FaultPlan(blackout=(4, 1, 2)).blackout == (1, 2, 4)

    def test_is_null(self):
        assert FaultPlan().is_null
        assert not FaultPlan(blackout=(0,)).is_null

    def test_dict_round_trip(self):
        plan = FaultPlan(blackout=(0, 2))
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_describe_mentions_blackout(self):
        assert "blackout" in FaultPlan(blackout=(1,)).describe()

    def test_out_of_range_cluster_rejected_at_runtime(self):
        config = design_topology(
            CONSTRAINTS, trials=1, seed=0, max_sources=50
        ).config
        instance = build_instance(config, seed=0)
        bad = FaultPlan(blackout=(instance.num_clusters,))
        with pytest.raises(ValueError, match="only"):
            run_resilience(instance, bad, duration=10.0, rng=0)

    def test_blackout_darkens_clusters(self):
        config = design_topology(
            CONSTRAINTS, trials=1, seed=0, max_sources=50
        ).config
        instance = build_instance(config, seed=0)
        plan = FaultPlan(blackout=(0,))
        report = run_resilience(instance, plan, duration=60.0, rng=0)
        outcome = report.outcome
        assert outcome.outages >= 1
        # The cluster is dark for the whole run, so the downtime the
        # accounting attributes to it is the full duration.
        assert outcome.cluster_downtime[0] == pytest.approx(60.0)
        assert outcome.longest_outage == pytest.approx(60.0)
        assert report.query_success_rate < 1.0

    def test_blackout_run_is_deterministic(self):
        config = design_topology(
            CONSTRAINTS, trials=1, seed=0, max_sources=50
        ).config
        instance = build_instance(config, seed=0)
        plan = FaultPlan(blackout=(1,))
        a = run_resilience(instance, plan, duration=40.0, rng=3)
        b = run_resilience(instance, plan, duration=40.0, rng=3)
        assert a.to_dict() == b.to_dict()


# --- failure units -----------------------------------------------------------


class TestFailureUnits:
    def test_unit_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FailureUnit("meteor", "m", (0,), 0.1)
        with pytest.raises(ValueError, match="cluster"):
            FailureUnit("crash", "c", (), 0.1)
        with pytest.raises(ValueError, match="unique"):
            FailureUnit("crash", "c", (1, 1), 0.1)
        with pytest.raises(ValueError, match="probability"):
            FailureUnit("crash", "c", (0,), 1.5)
        with pytest.raises(ValueError, match="NaN"):
            FailureUnit("crash", "c", (0,), float("nan"))

    def test_unit_round_trip(self):
        unit = FailureUnit("partition", "cut-i0", (2, 5), 0.01)
        assert FailureUnit.from_dict(unit.to_dict()) == unit

    def test_crash_units_one_per_cluster(self):
        config = design_topology(
            CONSTRAINTS, trials=1, seed=0, max_sources=50
        ).config
        instance = build_instance(config, seed=0)
        units = crash_failure_units(instance)
        assert len(units) == instance.num_clusters
        assert all(0.0 <= u.probability <= 1.0 for u in units)
        assert all(u.clusters == (c,) for c, u in enumerate(units))

    def test_redundancy_lowers_dark_probability(self):
        config = design_topology(
            CONSTRAINTS, trials=1, seed=0, max_sources=50
        ).config
        plain = build_instance(config.with_changes(redundancy=False), seed=0)
        paired = build_instance(config.with_changes(redundancy=True), seed=0)
        p_plain = max(u.probability for u in crash_failure_units(plain))
        p_paired = max(u.probability for u in crash_failure_units(paired))
        assert p_paired < p_plain

    def test_partition_units_disjoint(self):
        config = design_topology(
            CONSTRAINTS, trials=1, seed=0, max_sources=50
        ).config
        instance = build_instance(
            config.with_changes(cluster_size=10), seed=0
        )
        units = partition_failure_units(
            instance, count=3, probability=0.02, island_size=2, seed=0
        )
        seen: set[int] = set()
        for unit in units:
            assert unit.probability == 0.02
            assert len(unit.clusters) == 2
            assert not seen & set(unit.clusters)
            seen.update(unit.clusters)

    def test_partition_units_need_a_mainland(self):
        config = design_topology(
            CONSTRAINTS, trials=1, seed=0, max_sources=50
        ).config
        instance = build_instance(config, seed=0)
        with pytest.raises(ValueError, match="mainland"):
            partition_failure_units(
                instance, count=instance.num_clusters,
                probability=0.1, island_size=1,
            )


# --- enumeration -------------------------------------------------------------


def two_units(p0: float = 0.3, p1: float = 0.2) -> list[FailureUnit]:
    return [
        FailureUnit("crash", "dark-c0", (0,), p0),
        FailureUnit("crash", "dark-c1", (1,), p1),
    ]


class TestEnumeration:
    def test_exact_hand_computed_set(self):
        # p(u0)=0.3, p(u1)=0.2: the four assignments weigh .56/.24/.14/.06.
        # cutoff 0.05 forces the grid down to t=0.03125 (at t=0.0625 the
        # .06 double failure is still excluded and the mass stalls at
        # .94), which admits all four (total mass 1.0).
        scen = enumerate_scenarios(two_units(), cutoff=0.05)
        assert scen.threshold == pytest.approx(0.03125)
        got = {s.failed: s.probability for s in scen.scenarios}
        assert got[()] == pytest.approx(0.56)
        assert got[("dark-c0",)] == pytest.approx(0.24)
        assert got[("dark-c1",)] == pytest.approx(0.14)
        assert got[("dark-c0", "dark-c1")] == pytest.approx(0.06)
        assert scen.covered_probability == pytest.approx(1.0)

    def test_loose_cutoff_stops_earlier_on_the_grid(self):
        # cutoff 0.4 needs mass >= 0.6: t=0.125 (mass .94) is the first
        # grid stop, which excludes only the double failure.
        scen = enumerate_scenarios(two_units(), cutoff=0.4)
        assert scen.threshold == pytest.approx(0.125)
        assert {s.failed for s in scen.scenarios} == {
            (), ("dark-c0",), ("dark-c1",)
        }
        assert scen.covered_probability == pytest.approx(0.94)

    def test_nominal_ranked_first(self):
        scen = enumerate_scenarios(two_units(), cutoff=0.05)
        assert scen.scenarios[0].is_nominal

    def test_scenario_fault_plan(self):
        units = [
            FailureUnit("crash", "dark-c0", (0,), 0.3),
            FailureUnit("partition", "cut-i0", (2, 3), 0.3),
        ]
        scen = enumerate_scenarios(units, cutoff=0.05)
        worst = [s for s in scen.scenarios if len(s.failed) == 2]
        assert worst, "double-failure scenario should be enumerated"
        plan = worst[0].fault_plan(duration=50.0)
        assert plan.blackout == (0,)
        assert len(plan.partitions) == 1
        assert plan.partitions[0].island == (2, 3)
        assert plan.partitions[0].end == 50.0

    def test_budget_error_not_truncation(self):
        with pytest.raises(ScenarioBudgetError, match="raise the cutoff"):
            enumerate_scenarios(two_units(), cutoff=0.05, max_scenarios=2)

    def test_duplicate_unit_names_rejected(self):
        units = [FailureUnit("crash", "same", (0,), 0.1),
                 FailureUnit("crash", "same", (1,), 0.1)]
        with pytest.raises(ValueError, match="unique"):
            enumerate_scenarios(units, cutoff=0.1)

    def test_scenario_round_trip(self):
        scen = enumerate_scenarios(two_units(), cutoff=0.05)
        for s in scen.scenarios:
            assert type(s).from_dict(s.to_dict()) == s


# --- risk statistics ---------------------------------------------------------


class TestRiskStatistics:
    def test_weighted_mean(self):
        assert weighted_mean([0.0, 10.0], [0.9, 0.1]) == pytest.approx(1.0)

    def test_cvar_exact_tail_atom(self):
        # alpha=0.9 over {0 w.p. .9, 10 w.p. .1}: the tail is exactly
        # the worst atom.
        assert cvar([0.0, 10.0], [0.9, 0.1], alpha=0.9) == pytest.approx(10.0)

    def test_cvar_splits_boundary_atom(self):
        # alpha=0.5: the 0.5 tail takes all of the worst atom (0.1) and
        # 0.4 of the benign one -> (10*.1 + 0*.4)/.5 = 2.
        assert cvar([0.0, 10.0], [0.9, 0.1], alpha=0.5) == pytest.approx(2.0)

    def test_cvar_alpha_zero_is_mean(self):
        values, weights = [1.0, 4.0, 7.0], [0.2, 0.3, 0.5]
        assert cvar(values, weights, alpha=0.0) == pytest.approx(
            weighted_mean(values, weights)
        )

    def test_cvar_never_below_mean(self):
        values = [5.0, 5.0, 5.0]
        weights = [0.4, 0.4, 0.2]
        for alpha in (0.0, 0.5, 0.9, 0.99):
            assert cvar(values, weights, alpha) >= weighted_mean(
                values, weights
            )


# --- RiskSpec ----------------------------------------------------------------


class TestRiskSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="cutoff"):
            RiskSpec(cutoff=0.0)
        with pytest.raises(ValueError, match="alpha"):
            RiskSpec(alpha=1.0)
        with pytest.raises(ValueError, match="availability_target"):
            RiskSpec(availability_target=0.0)
        with pytest.raises(ValueError, match="target_metric"):
            RiskSpec(target_metric="median")
        with pytest.raises(ValueError, match="duration"):
            RiskSpec(duration=float("nan"))
        with pytest.raises(ValueError, match="engine"):
            RiskSpec(engine="quantum")
        with pytest.raises(ValueError, match="executor"):
            RiskSpec(executor="mainframe")

    def test_round_trip(self):
        spec = small_spec(partition_units=1, partition_probability=0.02)
        assert RiskSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown fields \['cutof'\] at RiskSpec;"):
            RiskSpec.from_dict({"cutof": 0.1})


# --- the end-to-end procedure ------------------------------------------------


@pytest.fixture(scope="module")
def risk_outcome() -> RiskDesignOutcome:
    return design_topology(
        CONSTRAINTS, trials=1, max_sources=60, risk=small_spec()
    )


class TestDesignRisk:
    def test_design_topology_delegates(self, risk_outcome):
        assert isinstance(risk_outcome, RiskDesignOutcome)

    def test_chooses_cheapest_meeting_target(self, risk_outcome):
        assert risk_outcome.feasible
        chosen = risk_outcome.chosen
        assert chosen.meets_target
        cheaper = [a for a in risk_outcome.assessments
                   if a.cost_bps < chosen.cost_bps]
        assert all(not a.meets_target for a in cheaper)

    def test_redundancy_beats_single_superpeers_on_availability(
            self, risk_outcome):
        # The paper's qualitative claim, quantified: at 120 users / two
        # clusters the redundant design rides out the heavy scenarios
        # while the non-redundant one loses whole clusters.
        by_red = {a.config.redundancy: a for a in risk_outcome.assessments}
        assert by_red[True].expected_availability > \
            by_red[False].expected_availability
        assert risk_outcome.chosen.config.redundancy

    def test_cvar_at_least_mean_everywhere(self, risk_outcome):
        for a in risk_outcome.assessments:
            assert set(a.stats) == set(RISK_METRICS)
            for metric, stat in a.stats.items():
                assert stat["cvar"] >= stat["mean"], (a.label, metric)
            assert a.cvar_availability <= a.expected_availability

    def test_covered_mass_guarantee(self, risk_outcome):
        for a in risk_outcome.assessments:
            assert a.covered_probability >= 1.0 - small_spec().cutoff
            assert a.covered_probability <= 1.0 + 1e-9

    def test_nominal_scenario_reuses_baseline(self, risk_outcome):
        for a in risk_outcome.assessments:
            nominal = [s for s in a.scenarios if not s.failed]
            assert len(nominal) == 1
            assert nominal[0].availability == pytest.approx(1.0)
            assert nominal[0].results_lost == pytest.approx(0.0)

    def test_describe_mentions_selection(self, risk_outcome):
        text = risk_outcome.describe()
        assert "FEASIBLE" in text
        assert "chosen" in text
        assert "CVaR" in text

    def test_payload_is_json_document(self, risk_outcome):
        payload = risk_outcome.to_payload()
        assert payload["kind"] == "design-risk"
        assert payload["feasible"] is True
        assert payload["chosen"] == risk_outcome.chosen.label
        json.dumps(payload, sort_keys=True)  # must be serializable

    def test_payload_names_each_full_configuration(self, risk_outcome):
        designs = json.loads(json.dumps(risk_outcome.to_payload()))["designs"]
        assert len(designs) == len(risk_outcome.assessments)
        for design, assessment in zip(designs, risk_outcome.assessments):
            config = Configuration.from_dict(design["config"])
            assert config == assessment.config
            assert config.to_dict() == design["config"]

    def test_config_property_raises_when_infeasible(self):
        outcome = RiskDesignOutcome(
            constraints=CONSTRAINTS, spec=small_spec(),
            assessments=[], chosen=None,
        )
        with pytest.raises(ValueError, match="availability target"):
            outcome.config

    def test_budget_overrun_drops_candidate_with_note(self):
        # max_scenarios=1 admits only nominal-dominated candidates: the
        # redundant design covers 0.95 mass with its nominal scenario
        # alone, the non-redundant one cannot, so it is dropped with an
        # audit note instead of aborting the procedure.
        outcome = design_topology(
            CONSTRAINTS, trials=1, max_sources=60,
            risk=small_spec(max_scenarios=1),
        )
        assert len(outcome.assessments) == 1
        assert outcome.assessments[0].config.redundancy
        assert any("dropped" in note for note in outcome.trail)

    def test_all_candidates_over_budget_is_infeasible_not_fatal(self):
        outcome = design_topology(
            CONSTRAINTS, trials=1, max_sources=60,
            risk=small_spec(max_scenarios=1, cutoff=0.01),
        )
        assert not outcome.feasible
        assert outcome.assessments == []
        assert sum("dropped" in note for note in outcome.trail) == 2


@pytest.mark.slow
class TestExecutorEquivalence:
    def test_ranked_payload_identical_across_backends(self):
        spec = small_spec()
        serial = design_topology_risk(
            CONSTRAINTS, spec, trials=1, max_sources=60, executor="serial"
        )
        process = design_topology_risk(
            CONSTRAINTS, spec, trials=1, max_sources=60,
            executor="process", jobs=2,
        )
        assert json.dumps(serial.to_payload(), sort_keys=True) == \
            json.dumps(process.to_payload(), sort_keys=True)
