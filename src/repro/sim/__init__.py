"""Event-driven simulation substrate.

The paper's results come from mean-value analysis (``repro.core``).  This
subpackage adds a discrete-event simulator for the things MVA cannot
express — sampled (not expected) query outcomes, churn and cluster
availability, and the Section 5.3 adaptive local rules — and doubles as
an independent check of the analytical engine: on the same instance, the
simulator's long-run average loads must converge to the MVA's
expectations.

``simpy`` is not available in this environment, so ``engine`` implements
the event scheduler from scratch (binary heap, cancellable events).
"""

from .engine import Simulator, EventHandle, RepeatingEvent
from .network import SimulationReport, simulate_instance
from .churn import ChurnResult, simulate_cluster_churn
from .local import AdaptiveNetwork, AdaptiveLimits, AdaptiveHistory
from .faults import (
    CrashSpec,
    FaultOutcome,
    FaultPlan,
    PartitionWindow,
    RetryPolicy,
    SlowSpec,
)
from .resilience import (
    ResilienceReport,
    ResilienceResult,
    ResilienceSpec,
    run_resilience,
    run_resilience_spec,
)
from .monitor import DetectorSpec, FailureDetector
from .gossip import GossipDetector, GossipSpec, gossip_attribution
from .recovery import RecoveryPolicy, RecoveryRuntime, repair_attribution
from .chaos import (
    ChaosCaseError,
    ChaosReport,
    ChaosSpec,
    generate_fault_plan,
    run_chaos,
)

__all__ = [
    "Simulator",
    "EventHandle",
    "RepeatingEvent",
    "SimulationReport",
    "simulate_instance",
    "ChurnResult",
    "simulate_cluster_churn",
    "AdaptiveNetwork",
    "AdaptiveLimits",
    "AdaptiveHistory",
    "CrashSpec",
    "FaultOutcome",
    "FaultPlan",
    "PartitionWindow",
    "RetryPolicy",
    "SlowSpec",
    "ResilienceReport",
    "ResilienceResult",
    "ResilienceSpec",
    "run_resilience",
    "run_resilience_spec",
    "DetectorSpec",
    "FailureDetector",
    "GossipDetector",
    "GossipSpec",
    "gossip_attribution",
    "RecoveryPolicy",
    "RecoveryRuntime",
    "repair_attribution",
    "ChaosSpec",
    "ChaosCaseError",
    "ChaosReport",
    "generate_fault_plan",
    "run_chaos",
]
