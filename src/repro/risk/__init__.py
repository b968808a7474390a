"""Risk-aware super-peer design under probabilistic failures.

TEAVAR-style pipeline on top of the existing layers: enumerate weighted
crash/partition failure scenarios from the calibrated lifespan model
(:mod:`repro.risk.scenarios`), score every (candidate design × scenario)
cell on the fast array engine through the executor layer
(:mod:`repro.risk.evaluate`), and extend the Figure 10 procedure to pick
the cheapest design meeting an availability target, reporting expected
value and CVaR-at-α of the loss metrics (:mod:`repro.risk.design`).
"""

from .design import RiskDesignOutcome, design_topology_risk
from .evaluate import (
    RISK_METRICS,
    RiskSpec,
    build_scenario_set,
    cvar,
    evaluate_designs,
    weighted_mean,
)
from .scenarios import (
    FailureUnit,
    ScenarioBudgetError,
    crash_failure_units,
    enumerate_scenarios,
    partition_failure_units,
)

__all__ = [
    "RISK_METRICS",
    "FailureUnit",
    "RiskDesignOutcome",
    "RiskSpec",
    "ScenarioBudgetError",
    "build_scenario_set",
    "crash_failure_units",
    "cvar",
    "design_topology_risk",
    "enumerate_scenarios",
    "evaluate_designs",
    "partition_failure_units",
    "weighted_mean",
]
