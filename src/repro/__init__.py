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

from .api import SweepSpec, run_sweep
from .config import Configuration, GraphType
from .core.analysis import evaluate_configuration
from .core.capacity import LoadBudget, max_supported_cluster_size
from .core.design import DesignConstraints, design_topology
from .core.epl import choose_ttl, epl_approximation, measure_epl, measure_reach
from .core.load import evaluate_instance
from .core.redundancy import compare_redundancy
from .core.selection import selection_gain
from .core.sensitivity import elasticity_table, sensitivity_analysis
from .io import load_instance, save_instance
from .obs.metrics import MetricsRegistry, use_registry
from .obs.trace import Tracer
from .querymodel.capacities import default_capacity_mix, overload_fraction
from .risk.evaluate import RiskSpec
from .search.expanding_ring import ExpandingRingSearch
from .search.flooding import FloodingSearch
from .search.random_walk import RandomWalkSearch
from .sim.churn import simulate_cluster_churn
from .sim.faults import CrashSpec, FaultPlan, RetryPolicy
from .sim.gossip import GossipSpec
from .sim.latency import measure_response_times
from .sim.local import AdaptiveLimits, AdaptiveNetwork
from .sim.monitor import DetectorSpec
from .sim.network import simulate_instance
from .sim.recovery import RecoveryPolicy
from .sim.resilience import run_resilience
from .topology.builder import build_instance

__version__ = "1.0.0"

#: Exactly the names that README.md, docs/, examples/ and the paper
#: benches import from ``repro`` (``tests/test_public_surface.py`` holds
#: the two lists equal); everything else is imported from its module.
__all__ = [
    "SweepSpec",
    "run_sweep",
    "Configuration",
    "GraphType",
    "evaluate_configuration",
    "LoadBudget",
    "max_supported_cluster_size",
    "DesignConstraints",
    "design_topology",
    "choose_ttl",
    "epl_approximation",
    "measure_epl",
    "measure_reach",
    "evaluate_instance",
    "compare_redundancy",
    "selection_gain",
    "elasticity_table",
    "sensitivity_analysis",
    "load_instance",
    "save_instance",
    "MetricsRegistry",
    "use_registry",
    "Tracer",
    "default_capacity_mix",
    "overload_fraction",
    "RiskSpec",
    "ExpandingRingSearch",
    "FloodingSearch",
    "RandomWalkSearch",
    "simulate_cluster_churn",
    "CrashSpec",
    "FaultPlan",
    "RetryPolicy",
    "GossipSpec",
    "measure_response_times",
    "AdaptiveLimits",
    "AdaptiveNetwork",
    "DetectorSpec",
    "simulate_instance",
    "RecoveryPolicy",
    "run_resilience",
    "build_instance",
]
