"""RISK — risk-aware design: fault-free vs scenario-weighted selection.

Beyond the paper: runs the Figure 10 procedure twice on the same
population — once fault-free (the paper's objective) and once against
the weighted failure-scenario distribution of the calibrated lifespan
model (``repro.risk``) — and emits the CVaR table the risk procedure
ranks designs by.  The contrast quantifies Section 5.3's qualitative
redundancy advice: the cheapest fault-free design and the cheapest
design meeting an availability target are generally *different*
configurations.
"""

from repro.core.design import DesignConstraints, design_topology
from repro.risk import RiskSpec

from conftest import run_once


def risk_constraints(num_users: int) -> DesignConstraints:
    return DesignConstraints(
        num_users=num_users,
        desired_reach_peers=num_users // 2,
        max_incoming_bps=200_000.0,
        max_outgoing_bps=200_000.0,
        max_processing_hz=20_000_000.0,
        max_connections=80,
    )


def test_risk_design(benchmark, emit):
    num_users = 600
    constraints = risk_constraints(num_users)
    spec = RiskSpec(
        cutoff=0.05, alpha=0.9, availability_target=0.9,
        duration=60.0, seed=0, max_candidates=3, mean_recovery=30.0,
    )

    def run():
        fault_free = design_topology(
            constraints, trials=1, seed=0, max_sources=60
        )
        risk_aware = design_topology(
            constraints, trials=1, max_sources=60, risk=spec
        )
        return fault_free, risk_aware

    fault_free, risk_aware = run_once(benchmark, run)

    assert fault_free.feasible
    assert risk_aware.feasible
    chosen = risk_aware.chosen
    assert chosen.meets_target
    for assessment in risk_aware.assessments:
        assert assessment.covered_probability >= 1.0 - spec.cutoff
        for metric, stat in assessment.stats.items():
            assert stat["cvar"] >= stat["mean"], metric

    text = (
        f"users={num_users}, desired reach={constraints.desired_reach_peers} "
        f"peers, availability target {spec.availability_target:g} "
        f"(cutoff {spec.cutoff:g}, alpha {spec.alpha:g})\n\n"
        f"fault-free procedure chose: {fault_free.config.describe()}\n\n"
        + risk_aware.describe()
    )
    emit("RISK_design", text)
