"""repro: a reproduction of "Designing a Super-Peer Network".

Yang & Garcia-Molina, ICDE 2003.  The library implements the paper's full
analysis stack — topology generation (PLOD power-law and strongly
connected overlays), the Gnutella-derived cost model (Table 2), the
Appendix B query model, the mean-value load analysis of Section 4, the
rules of thumb, the global design procedure (Figure 10), the local
adaptive rules (Section 5.3) — plus an event-driven simulator that
validates the analysis and measures the churn/reliability behaviour of
k-redundant super-peers.

Quickstart
----------
>>> from repro import Configuration, evaluate_configuration
>>> summary = evaluate_configuration(Configuration(graph_size=2000), trials=2)
>>> summary.superpeer_load().total_bandwidth_bps > 0
True

For parameter sweeps — which is what every figure of the paper is —
use the experiment API instead of looping ``evaluate_configuration``
by hand: declare a :class:`~repro.api.SweepSpec` grid and hand it to
:func:`~repro.api.run_sweep`, which shards the points across worker
processes (``jobs=N``) and merges the metrics/manifest fragments.

See ``examples/`` for end-to-end walkthroughs and ``benchmarks/`` for the
scripts regenerating every table and figure of the paper.
"""

from .api import ExperimentSpec, SweepPoint, SweepResult, SweepSpec, run_sweep
from .exec import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from .config import (
    Configuration,
    GraphType,
    DEFAULT,
    GNUTELLA_2001,
    GNUTELLA_REDESIGNED,
    GNUTELLA_REDESIGNED_REDUNDANT,
    STRONG_BEST_CASE,
)
from .core.analysis import ConfigurationSummary, evaluate_configuration
from .core.design import DesignConstraints, DesignOutcome, design_topology
from .risk import (
    RiskAssessment,
    RiskDesignOutcome,
    RiskSpec,
    design_topology_risk,
)
from .core.epl import choose_ttl, epl_approximation, measure_epl, measure_reach
from .core.load import LoadReport, LoadVector, evaluate_instance
from .core.redundancy import (
    RedundancyComparison,
    compare_redundancy,
    virtual_superpeer_availability,
)
from .querymodel import (
    QueryModel,
    default_query_model,
    default_file_distribution,
    default_lifespan_distribution,
)
from .sim import (
    AdaptiveLimits,
    AdaptiveNetwork,
    ChaosReport,
    ChaosSpec,
    CrashSpec,
    DetectorSpec,
    FaultPlan,
    GossipSpec,
    PartitionWindow,
    RecoveryPolicy,
    ResilienceReport,
    ResilienceResult,
    ResilienceSpec,
    RetryPolicy,
    SlowSpec,
    gossip_attribution,
    repair_attribution,
    run_chaos,
    run_resilience,
    run_resilience_spec,
    simulate_cluster_churn,
    simulate_instance,
)
from .topology import (
    NetworkInstance,
    OverlayGraph,
    build_instance,
    plod_graph,
    strongly_connected_graph,
    synthesize_crawl,
)
from .core.capacity import LoadBudget, max_supported_cluster_size
from .core.selection import assign_roles, selection_gain
from .core.sensitivity import sensitivity_analysis, elasticity_table
from .querymodel.capacities import CapacityMix, default_capacity_mix, overload_fraction
from .io import load_instance, load_report, save_instance, save_report
from .obs import (
    MetricsRegistry,
    NULL_REGISTRY,
    RunManifest,
    TraceEvent,
    Tracer,
    disable_metrics,
    enable_metrics,
    get_registry,
    manifest_for,
    set_registry,
    use_registry,
)
from .search import ExpandingRingSearch, FloodingSearch, RandomWalkSearch
from .sim.latency import LatencyModel, measure_response_times
from .topology.builder import replace_overlay

__version__ = "1.0.0"

__all__ = [
    "ExperimentSpec",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "Configuration",
    "GraphType",
    "DEFAULT",
    "GNUTELLA_2001",
    "GNUTELLA_REDESIGNED",
    "GNUTELLA_REDESIGNED_REDUNDANT",
    "STRONG_BEST_CASE",
    "ConfigurationSummary",
    "evaluate_configuration",
    "DesignConstraints",
    "DesignOutcome",
    "design_topology",
    "RiskSpec",
    "RiskAssessment",
    "RiskDesignOutcome",
    "design_topology_risk",
    "choose_ttl",
    "epl_approximation",
    "measure_epl",
    "measure_reach",
    "LoadReport",
    "LoadVector",
    "evaluate_instance",
    "RedundancyComparison",
    "compare_redundancy",
    "virtual_superpeer_availability",
    "QueryModel",
    "default_query_model",
    "default_file_distribution",
    "default_lifespan_distribution",
    "AdaptiveLimits",
    "AdaptiveNetwork",
    "CrashSpec",
    "FaultPlan",
    "PartitionWindow",
    "ResilienceReport",
    "ResilienceResult",
    "ResilienceSpec",
    "run_resilience_spec",
    "RetryPolicy",
    "SlowSpec",
    "ChaosSpec",
    "ChaosReport",
    "DetectorSpec",
    "GossipSpec",
    "RecoveryPolicy",
    "gossip_attribution",
    "repair_attribution",
    "run_chaos",
    "run_resilience",
    "simulate_cluster_churn",
    "simulate_instance",
    "NetworkInstance",
    "OverlayGraph",
    "build_instance",
    "plod_graph",
    "strongly_connected_graph",
    "synthesize_crawl",
    "LoadBudget",
    "max_supported_cluster_size",
    "assign_roles",
    "selection_gain",
    "sensitivity_analysis",
    "elasticity_table",
    "CapacityMix",
    "default_capacity_mix",
    "overload_fraction",
    "save_instance",
    "load_instance",
    "save_report",
    "load_report",
    "FloodingSearch",
    "ExpandingRingSearch",
    "RandomWalkSearch",
    "LatencyModel",
    "measure_response_times",
    "replace_overlay",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "RunManifest",
    "TraceEvent",
    "Tracer",
    "disable_metrics",
    "enable_metrics",
    "get_registry",
    "manifest_for",
    "set_registry",
    "use_registry",
    "__version__",
]
