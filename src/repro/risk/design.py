"""Risk-aware extension of the Figure 10 design procedure.

The paper's procedure returns the single cheapest configuration that
meets the per-node limits *in a fault-free network*.  This module keeps
the same search space — the TTL ladder, the descending cluster-size
ladder, the redundancy toggle — but changes the objective: screen the
space for fault-free-feasible candidates, score each against its
weighted failure-scenario distribution (:mod:`repro.risk.evaluate`),
and select the **cheapest design meeting the availability target**,
reporting expected value and CVaR-at-α of per-super-peer load,
results-lost, and unavailability for every candidate.

The ranked output is deterministic measurement content only (no
wall-clock, no host), so two runs under different executors diff
byte-for-byte — the contract the CI ``risk-design-smoke`` job enforces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..config import Configuration
from ..core.design import DesignConstraints, design_points
from ..exec.base import Executor
from ..topology.builder import build_instance_cached
from .evaluate import (
    RiskAssessment,
    RiskSpec,
    build_scenario_set,
    evaluate_designs,
)
from .scenarios import ScenarioBudgetError

__all__ = [
    "RiskDesignOutcome",
    "enumerate_candidates",
    "design_topology_risk",
]


def enumerate_candidates(
    constraints: DesignConstraints,
    spec: RiskSpec,
    *,
    trials: int = 2,
    max_sources: int | None = 200,
    max_ttl: int = 8,
    trail: list[str] | None = None,
) -> list[tuple[str, Configuration]]:
    """Fault-free-feasible candidates from the Figure 10 search space.

    Walks the same (TTL ascending, cluster size descending, redundancy)
    ladder as :func:`repro.core.design.design_topology`
    (:func:`~repro.core.design.design_points`) but *collects*
    up to ``spec.max_candidates`` configurations that attain the reach
    within the limits, instead of stopping at the first — the risk
    layer needs alternatives to trade cost against availability.  The
    fault-free optimum is always candidate 0.  When nothing is feasible
    the closest attempt is returned alone (the assessment will report it
    as missing the target).
    """
    candidates: list[tuple[str, Configuration]] = []
    fallback: tuple[str, Configuration] | None = None
    notes = trail if trail is not None else []
    points = (point for ttl in range(1, max_ttl + 1)
              for point in design_points(constraints, ttl, trials=trials,
                                         seed=spec.seed, max_sources=max_sources))
    for point in points:
        config = point.config
        if config is None or not point.reaches:
            continue
        label = (
            f"c{point.cluster_size}{'r' if config.redundancy else ''}"
            f"-ttl{point.ttl}-d{config.avg_outdegree:.0f}"
        )
        if not point.within_limits:
            if fallback is None:
                fallback = (label, config)
            continue
        notes.append(
            f"candidate {label}: fault-free feasible "
            f"(reach {point.summary.mean('reach_peers'):.0f})"
        )
        candidates.append((label, config))
        if len(candidates) >= spec.max_candidates:
            break

    if not candidates:
        if fallback is None:
            raise ValueError(
                "design space empty: no configuration attains the desired "
                "reach within the connection budget"
            )
        notes.append(
            f"no fault-free-feasible candidate; assessing closest attempt "
            f"{fallback[0]}"
        )
        candidates.append(fallback)
    return candidates


@dataclass
class RiskDesignOutcome:
    """Ranked risk assessments plus the selection the procedure made."""

    constraints: DesignConstraints
    spec: RiskSpec
    assessments: list[RiskAssessment]
    chosen: RiskAssessment | None
    trail: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.chosen is not None

    @property
    def config(self) -> Configuration:
        """The selected configuration (the cheapest meeting the target)."""
        if self.chosen is None:
            raise ValueError(
                "no design met the availability target; inspect "
                ".assessments for how close each candidate came"
            )
        return self.chosen.config

    def describe(self) -> str:
        spec = self.spec
        lines = [
            f"risk-aware design "
            f"{'FEASIBLE' if self.feasible else 'INFEASIBLE'}: "
            f"availability target {spec.availability_target:.4f} "
            f"({spec.target_metric}), cutoff {spec.cutoff:g}, "
            f"alpha {spec.alpha:g}",
        ]
        header = (
            f"{'design':<18} {'cost Mbps':>10} {'E[avail]':>9} "
            f"{'CVaR avail':>10} {'E[load]':>10} {'CVaR load':>10} "
            f"{'E[lost]':>8} {'CVaR lost':>9}  meets"
        )
        lines.append(header)
        for a in self.assessments:
            load = a.stats["superpeer_load_bps"]
            lost = a.stats["results_lost"]
            lines.append(
                f"{a.label:<18} {a.cost_bps / 1e6:>10.2f} "
                f"{a.expected_availability:>9.4f} "
                f"{a.cvar_availability:>10.4f} "
                f"{load['mean'] / 1e3:>9.1f}k {load['cvar'] / 1e3:>9.1f}k "
                f"{lost['mean']:>8.4f} {lost['cvar']:>9.4f}  "
                f"{'yes' if a.meets_target else 'no'}"
            )
        if self.chosen is not None:
            lines.append(
                f"chosen: {self.chosen.label} — cheapest design meeting the "
                f"target (covered mass "
                f"{self.chosen.covered_probability:.4f})"
            )
        else:
            lines.append("chosen: none — no candidate met the target")
        lines.extend(self.trail)
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """Deterministic JSON document (ranked designs, no wall-clock)."""
        return {
            "schema": 1,
            "kind": "design-risk",
            "constraints": asdict(self.constraints),
            "risk": self.spec.to_dict(),
            "designs": [a.to_dict() for a in self.assessments],
            "chosen": None if self.chosen is None else self.chosen.label,
            "feasible": self.feasible,
        }


def design_topology_risk(
    constraints: DesignConstraints,
    spec: RiskSpec,
    *,
    trials: int = 2,
    max_sources: int | None = 200,
    max_ttl: int = 8,
    jobs: int | None = None,
    journal=None,
    progress=None,
    executor: Executor | str | None = None,
) -> RiskDesignOutcome:
    """The risk-aware design procedure, end to end.

    Screen the Figure 10 space for fault-free-feasible candidates,
    score every (candidate × scenario) cell through the executor layer,
    then rank: designs meeting the availability target first, cheapest
    (fault-free aggregate bandwidth) first within each group, label as
    the deterministic tiebreak.  ``chosen`` is the first ranked design
    if it meets the target, else None.
    """
    trail: list[str] = []
    candidates = enumerate_candidates(
        constraints, spec, trials=trials, max_sources=max_sources,
        max_ttl=max_ttl, trail=trail,
    )
    # Scenario enumeration is only tractable when per-unit failure
    # probabilities are small: a candidate whose clusters are each dark
    # ~10% of the time spreads the probability mass over combinatorially
    # many states, and no bounded enumeration can cover 1 - cutoff of
    # it.  Such a candidate could never meet a tight availability target
    # anyway, so drop it from the ranking with an audit note rather than
    # abort the whole procedure.
    assessable: list[tuple[str, Configuration]] = []
    for label, config in candidates:
        instance = build_instance_cached(config, seed=spec.seed)
        try:
            build_scenario_set(instance, spec)
        except ScenarioBudgetError as exc:
            trail.append(f"candidate {label} dropped: {exc}")
            continue
        assessable.append((label, config))
    if not assessable:
        return RiskDesignOutcome(
            constraints=constraints, spec=spec, assessments=[],
            chosen=None, trail=trail,
        )
    assessments = evaluate_designs(
        assessable, spec, jobs=jobs, journal=journal, progress=progress,
        executor=executor,
    )
    ranked = sorted(
        assessments,
        key=lambda a: (not a.meets_target, a.cost_bps, a.label),
    )
    chosen = ranked[0] if ranked and ranked[0].meets_target else None
    return RiskDesignOutcome(
        constraints=constraints,
        spec=spec,
        assessments=ranked,
        chosen=chosen,
        trail=trail,
    )
