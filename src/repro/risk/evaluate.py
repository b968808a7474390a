"""Score (candidate design × failure scenario) cells on the fast engine.

The middle layer of the risk-aware design subsystem: given candidate
configurations and a :class:`RiskSpec`, build each candidate's weighted
scenario set (:mod:`repro.risk.scenarios`), fan every non-nominal cell
out through the executor layer as a self-contained task on the array
engine, and fold the per-scenario measurements into expected-value and
CVaR-at-α statistics per candidate.

Cells are independent by construction — each task carries its config,
seed, duration, and scenario, and results return in stable task order —
so the merged assessment is bit-identical across every executor backend
(the same contract ``run_sweep`` and ``run_resilience_spec`` honour).
The nominal (all-units-up) scenario is never dispatched: its degraded
run *is* the fault-free baseline, so the baseline cell's measurements
are reused at aggregation time.

Risk statistics are reported over **losses** (per-super-peer load,
results-lost fraction, unavailability), normalized over the covered
probability mass.  ``CVaR_α`` is the expected loss within the worst
``1 - α`` probability mass — always ``>= `` the mean, which the test
suite asserts for every reported metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..codec import Codec, encode
from ..config import Configuration
from ..exec import EXECUTOR_NAMES
from ..exec.base import Executor, Task, collect, run_campaign
from ..sim.faults import CrashSpec, FaultOutcome
from ..sim.network import ENGINES, SimulationReport, simulate_instance
from ..topology.builder import NetworkInstance, build_instance_cached
from .scenarios import (
    FailureScenario,
    ScenarioSet,
    crash_failure_units,
    enumerate_scenarios,
    partition_failure_units,
)

__all__ = [
    "RiskSpec",
    "ScenarioOutcome",
    "RiskAssessment",
    "build_scenario_set",
    "evaluate_designs",
    "weighted_mean",
    "cvar",
]

#: The loss metrics every assessment reports mean and CVaR for.
RISK_METRICS = ("superpeer_load_bps", "results_lost", "unavailability")

#: The availability readings a design may be held to.
TARGET_METRICS = ("expected", "cvar")


@dataclass(frozen=True)
class RiskSpec(Codec):
    """Everything the risk-aware design procedure needs beyond constraints.

    ``cutoff`` bounds the residual (un-enumerated) probability mass;
    ``alpha`` sets the CVaR tail; the chosen design must reach
    ``availability_target`` on the ``target_metric`` availability
    ("expected" = scenario-weighted mean, "cvar" = ``1 - CVaR_α`` of
    unavailability — the conservative tail reading).  Crash-unit weights
    come from the calibrated lifespan model via ``mean_recovery`` /
    ``lifespan_scale``; optional partition units add ``partition_units``
    disjoint islands cut with ``partition_probability`` each.
    """

    cutoff: float = 0.05
    alpha: float = 0.9
    availability_target: float = 0.98
    target_metric: str = "expected"
    mean_recovery: float = 120.0
    lifespan_scale: float = 1.0
    partition_units: int = 0
    partition_probability: float = 0.01
    partition_island_size: int = 2
    duration: float = 600.0
    seed: int | None = 0
    engine: str = "array"
    max_candidates: int = 6
    max_scenarios: int = 4096
    executor: str | None = None

    def __post_init__(self) -> None:
        cutoff = float(self.cutoff)
        if math.isnan(cutoff) or not 0.0 < cutoff < 1.0:
            raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
        alpha = float(self.alpha)
        if math.isnan(alpha) or not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        target = float(self.availability_target)
        if math.isnan(target) or not 0.0 < target <= 1.0:
            raise ValueError(
                f"availability_target must be in (0, 1], got {target}"
            )
        if self.target_metric not in TARGET_METRICS:
            raise ValueError(
                f"target_metric must be one of {TARGET_METRICS}, "
                f"got {self.target_metric!r}"
            )
        if not self.mean_recovery > 0:
            raise ValueError("mean_recovery must be positive")
        if not self.lifespan_scale > 0:
            raise ValueError("lifespan_scale must be positive")
        if self.partition_units < 0:
            raise ValueError("partition_units must be non-negative")
        p = float(self.partition_probability)
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            raise ValueError(
                f"partition_probability must be in [0, 1], got {p}"
            )
        if self.partition_island_size < 1:
            raise ValueError("partition_island_size must be >= 1")
        duration = float(self.duration)
        if math.isnan(duration) or duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.max_scenarios < 1:
            raise ValueError("max_scenarios must be >= 1")
        if self.executor is not None and self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES} or None, "
                f"got {self.executor!r}"
            )

    def crash_spec(self) -> CrashSpec:
        return CrashSpec(mean_recovery=self.mean_recovery,
                         lifespan_scale=self.lifespan_scale)


def build_scenario_set(instance: NetworkInstance, spec: RiskSpec) -> ScenarioSet:
    """The weighted failure scenarios of one candidate's instance."""
    units = crash_failure_units(instance, spec.crash_spec())
    if spec.partition_units:
        units += partition_failure_units(
            instance,
            count=spec.partition_units,
            probability=spec.partition_probability,
            island_size=spec.partition_island_size,
            seed=spec.seed,
        )
    return enumerate_scenarios(units, spec.cutoff,
                               max_scenarios=spec.max_scenarios)


# --- risk statistics ---------------------------------------------------------


def weighted_mean(values, weights) -> float:
    """Probability-weighted mean, normalized over the given weights."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if v.size == 0 or total <= 0:
        raise ValueError("weighted_mean needs >= 1 positively-weighted value")
    return float((v * w).sum() / total)


def cvar(values, weights, alpha: float) -> float:
    """Conditional value-at-risk: mean loss over the worst ``1 - alpha`` mass.

    Weights are normalized to a distribution; values are sorted worst
    (largest loss) first and consumed until ``1 - alpha`` probability is
    accounted, splitting the boundary atom.  ``alpha = 0`` degenerates
    to the plain weighted mean; by construction ``cvar >= mean`` (the
    result is clamped to the mean so floating-point round-off can never
    undercut the invariant).
    """
    if math.isnan(alpha) or not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if v.size == 0 or total <= 0:
        raise ValueError("cvar needs >= 1 positively-weighted value")
    w = w / total
    mean = float((v * w).sum())
    tail = 1.0 - alpha
    acc = 0.0
    num = 0.0
    for i in np.argsort(-v, kind="stable"):
        take = min(float(w[i]), tail - acc)
        if take <= 0.0:
            break
        num += float(v[i]) * take
        acc += take
    return max(num / max(acc, 1e-300), mean)


# --- the (design x scenario) cell worker -------------------------------------


@dataclass(frozen=True)
class RiskCell:
    """One self-contained evaluation task (picklable, seed included)."""

    label: str
    config: Configuration
    seed: int | None
    duration: float
    engine: str
    scenario: FailureScenario | None  # None = the fault-free baseline cell

    def run(self) -> dict:
        instance = build_instance_cached(self.config, seed=self.seed)
        if self.scenario is None:
            report = simulate_instance(
                instance, self.duration, rng=self.seed, engine=self.engine
            )
            return {
                "total_results": _total_results(report),
                "superpeer_load_bps": _peak_load(report, dark=()),
                "aggregate_bandwidth_bps": report.aggregate_load().total_bandwidth_bps,
            }
        plan = self.scenario.fault_plan(self.duration)
        outcome = FaultOutcome()
        report = simulate_instance(
            instance, self.duration, rng=self.seed, faults=plan,
            fault_metrics=outcome, engine=self.engine,
        )
        return {
            "total_results": _total_results(report),
            "superpeer_load_bps": _peak_load(
                report, dark=self.scenario.dark_clusters
            ),
            "availability": float(outcome.query_success_rate),
        }


def _total_results(report: SimulationReport) -> float:
    return float(report.mean_results_per_query * report.num_queries)


def _peak_load(report: SimulationReport, dark) -> float:
    """Worst per-super-peer bandwidth among clusters that are up.

    Dark clusters idle at ~0 load; excluding them makes the statistic
    read "what the busiest *serving* super-peer absorbs" — the quantity
    a capacity limit is written against.
    """
    load = report.superpeer_incoming_bps + report.superpeer_outgoing_bps
    if len(dark):
        mask = np.ones(load.size, dtype=bool)
        mask[np.asarray(dark, dtype=np.int64)] = False
        load = load[mask]
    if load.size == 0:
        return 0.0
    return float(load.max())


def _evaluate_cell(cell: RiskCell) -> tuple:
    """Executor entry point: run one cell under private collectors.

    Module-level so the process pool can pickle it by reference.
    """
    return collect(cell.label, cell.run)


# --- per-candidate aggregation -----------------------------------------------


@dataclass(frozen=True)
class ScenarioOutcome:
    """One candidate's measured behaviour in one scenario."""

    failed: tuple[str, ...]
    probability: float
    availability: float
    results_lost: float
    superpeer_load_bps: float

    @property
    def unavailability(self) -> float:
        return 1.0 - self.availability

    def to_dict(self) -> dict:
        return encode(self)


@dataclass(frozen=True)
class RiskAssessment:
    """One candidate design scored against the scenario distribution."""

    label: str
    config: Configuration
    cost_bps: float
    covered_probability: float
    residual_probability: float
    scenarios: tuple[ScenarioOutcome, ...]
    stats: dict
    alpha: float
    expected_availability: float
    cvar_availability: float
    availability_target: float
    meets_target: bool

    def to_dict(self) -> dict:
        """Deterministic JSON payload: measurement content only, no
        wall-clock or host fields, so two runs diff byte-for-byte."""
        return {
            "label": self.label,
            "config": encode(self.config),
            "cost_bps": self.cost_bps,
            "covered_probability": self.covered_probability,
            "residual_probability": self.residual_probability,
            "alpha": self.alpha,
            "expected_availability": self.expected_availability,
            "cvar_availability": self.cvar_availability,
            "availability_target": self.availability_target,
            "meets_target": self.meets_target,
            "stats": self.stats,
            "scenarios": encode(self.scenarios),
        }


def _assess(label: str, config: Configuration, spec: RiskSpec,
            sset: ScenarioSet, baseline: dict,
            cells: list[tuple[FailureScenario, dict]]) -> RiskAssessment:
    """Fold one candidate's cell results into a risk assessment."""
    by_key = {scenario.failed: payload for scenario, payload in cells}
    base_total = baseline["total_results"]
    outcomes = []
    for scenario in sset.scenarios:
        if scenario.is_nominal:
            outcomes.append(ScenarioOutcome(
                failed=scenario.failed,
                probability=scenario.probability,
                availability=1.0,
                results_lost=0.0,
                superpeer_load_bps=baseline["superpeer_load_bps"],
            ))
            continue
        payload = by_key[scenario.failed]
        if base_total > 0:
            lost = 1.0 - payload["total_results"] / base_total
        else:
            lost = 0.0
        outcomes.append(ScenarioOutcome(
            failed=scenario.failed,
            probability=scenario.probability,
            availability=payload["availability"],
            results_lost=min(1.0, max(0.0, lost)),
            superpeer_load_bps=payload["superpeer_load_bps"],
        ))
    weights = [o.probability for o in outcomes]
    losses = {
        "superpeer_load_bps": [o.superpeer_load_bps for o in outcomes],
        "results_lost": [o.results_lost for o in outcomes],
        "unavailability": [o.unavailability for o in outcomes],
    }
    stats = {
        name: {
            "mean": weighted_mean(values, weights),
            "cvar": cvar(values, weights, spec.alpha),
        }
        for name, values in losses.items()
    }
    expected_availability = 1.0 - stats["unavailability"]["mean"]
    cvar_availability = 1.0 - stats["unavailability"]["cvar"]
    achieved = (expected_availability if spec.target_metric == "expected"
                else cvar_availability)
    return RiskAssessment(
        label=label,
        config=config,
        cost_bps=baseline["aggregate_bandwidth_bps"],
        covered_probability=sset.covered_probability,
        residual_probability=sset.residual_probability,
        scenarios=tuple(outcomes),
        stats=stats,
        alpha=spec.alpha,
        expected_availability=expected_availability,
        cvar_availability=cvar_availability,
        availability_target=spec.availability_target,
        meets_target=achieved >= spec.availability_target,
    )


def evaluate_designs(
    candidates: list[tuple[str, Configuration]],
    spec: RiskSpec,
    jobs: int | None = None,
    journal=None,
    progress=None,
    *,
    executor: Executor | str | None = None,
) -> list[RiskAssessment]:
    """Score every candidate against its weighted scenario set.

    One campaign: a fault-free baseline cell per candidate plus one cell
    per non-nominal scenario, all dispatched together through
    :func:`repro.exec.base.run_campaign` with the usual journal/progress
    telemetry.  Results are folded per candidate in input order —
    bit-identical across backends.
    """
    if not candidates:
        return []
    scenario_sets = []
    cells: list[RiskCell] = []
    plan: list[dict] = []
    for label, config in candidates:
        instance = build_instance_cached(config, seed=spec.seed)
        sset = build_scenario_set(instance, spec)
        scenario_sets.append(sset)
        # The baseline cell (scenario None) first, then every live one.
        for scenario in [None, *(s for s in sset.scenarios
                                 if not s.is_nominal)]:
            cells.append(RiskCell(
                label=(f"{label}/baseline" if scenario is None
                       else f"{label}/{'+'.join(scenario.failed)}"),
                config=config, seed=spec.seed, duration=spec.duration,
                engine=spec.engine, scenario=scenario,
            ))
            plan.append({
                "design": label,
                "scenario": (None if scenario is None
                             else list(scenario.failed)),
                "probability": (None if scenario is None
                                else scenario.probability),
                "engine": spec.engine,
            })

    def _prewarm() -> None:
        for _, config in candidates:
            build_instance_cached(config, seed=spec.seed)

    payloads = run_campaign(
        _evaluate_cell,
        [Task(i, cell.label, cell) for i, cell in enumerate(cells)],
        name="design-risk",
        plan=plan,
        config=candidates[0][1],
        seed=spec.seed,
        header={"cutoff": spec.cutoff, "alpha": spec.alpha},
        prewarm=_prewarm,
        executor=executor if executor is not None else spec.executor,
        jobs=jobs, journal=journal, progress=progress,
    ).results
    assessments = []
    cursor = 0
    for (label, config), sset in zip(candidates, scenario_sets):
        baseline = payloads[cursor]
        cursor += 1
        live = [s for s in sset.scenarios if not s.is_nominal]
        paired = list(zip(live, payloads[cursor:cursor + len(live)]))
        cursor += len(live)
        assessments.append(
            _assess(label, config, spec, sset, baseline, paired)
        )
    return assessments
