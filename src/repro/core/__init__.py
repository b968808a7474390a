"""The paper's primary contribution: cost model, load analysis, design rules."""

from .load import LoadVector, LoadReport, evaluate_instance
from .analysis import ConfigurationSummary, evaluate_configuration
from .routing import QueryPropagation, propagate_query
from .epl import measure_epl, epl_approximation, choose_ttl
from .design import DesignConstraints, DesignOutcome, design_topology
from .redundancy import RedundancyComparison, compare_redundancy, virtual_superpeer_availability

__all__ = [
    "LoadVector",
    "LoadReport",
    "evaluate_instance",
    "ConfigurationSummary",
    "evaluate_configuration",
    "QueryPropagation",
    "propagate_query",
    "measure_epl",
    "epl_approximation",
    "choose_ttl",
    "DesignConstraints",
    "DesignOutcome",
    "design_topology",
    "RedundancyComparison",
    "compare_redundancy",
    "virtual_superpeer_availability",
]
