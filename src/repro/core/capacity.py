"""Capacity planning: how many clients should a super-peer take on?

The paper's abstract asks "How many clients should a super-peer take on
to maximize efficiency?" and rule #1 answers qualitatively: clusters
should be "as large as possible while respecting individual limits",
because aggregate load falls with cluster size while individual load
rises.  This module turns that into a planner:

* :func:`max_supported_cluster_size` — the largest cluster size whose
  expected individual super-peer load stays within a budget (the
  largest fitting size of a ladder, refined by bisection);
* :func:`saturating_resource` — which of the three resources binds first;
* :func:`headroom` — per-resource utilization of a configuration against
  a budget, the quantity local rule I watches ("load frequently exceeds
  the limit" / "load remains far below the limit").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import Configuration
from .analysis import evaluate_configuration
from .design import DesignConstraints, candidate_cluster_sizes
from .load import LoadVector


@dataclass(frozen=True)
class LoadBudget:
    """Per-super-peer resource limits (the designer's constraint set),
    by default the Figure 10 limits of :class:`DesignConstraints`."""

    max_incoming_bps: float = DesignConstraints.max_incoming_bps
    max_outgoing_bps: float = DesignConstraints.max_outgoing_bps
    max_processing_hz: float = DesignConstraints.max_processing_hz

    def __post_init__(self) -> None:
        if min(self.max_incoming_bps, self.max_outgoing_bps, self.max_processing_hz) <= 0:
            raise ValueError("budget limits must be positive")

    def utilization(self, load: LoadVector) -> dict[str, float]:
        """Fractional usage of each resource (1.0 = at the limit)."""
        return {
            "incoming": load.incoming_bps / self.max_incoming_bps,
            "outgoing": load.outgoing_bps / self.max_outgoing_bps,
            "processing": load.processing_hz / self.max_processing_hz,
        }

    def fits(self, load: LoadVector) -> bool:
        return all(value <= 1.0 for value in self.utilization(load).values())


def headroom(
    config: Configuration,
    budget: LoadBudget,
    trials: int = 2,
    seed: int | None = 0,
    max_sources: int | None = 300,
) -> dict[str, float]:
    """Per-resource utilization of ``config``'s expected super-peer load."""
    summary = evaluate_configuration(
        config, trials=trials, seed=seed, max_sources=max_sources
    )
    return budget.utilization(summary.superpeer_load())


def saturating_resource(
    config: Configuration,
    budget: LoadBudget,
    trials: int = 2,
    seed: int | None = 0,
    max_sources: int | None = 300,
) -> tuple[str, float]:
    """The resource with the highest utilization, and its value."""
    usage = headroom(config, budget, trials, seed, max_sources)
    resource = max(usage, key=usage.get)
    return resource, usage[resource]


def max_supported_cluster_size(
    base: Configuration,
    budget: LoadBudget,
    trials: int = 2,
    seed: int | None = 0,
    max_sources: int | None = 300,
    max_connections: int | None = None,
) -> int:
    """Largest cluster size of ``base`` whose super-peer load fits ``budget``.

    Super-peer load is not monotone in cluster size.  On a strongly
    connected overlay it first falls, because a plain peer pays the
    multiplex cost of one open connection per other cluster (Fig. 6),
    then rises with the clients' queries, and near the whole-network
    cluster it can fall again as the flood collapses into one index
    (Fig. 5).  So the search first probes the ladder of sizes the
    Figure 10 procedure tries (halvings of the graph size plus a dense
    small end), takes the largest ladder size that fits, and bisects
    between it and the next larger ladder size, which misses.

    The result fits the budget; unless it is the graph size, the next
    size up misses, and no ladder size above it fits.  A budget that
    the whole-network cluster meets returns the graph size even when
    mid-range sizes miss: that second feasible region wins.  Returns 0
    only when no ladder size fits.
    """

    def fits(size: int) -> bool:
        if max_connections is not None:
            if base.avg_outdegree + (size - 1) > max_connections:
                return False
        config = base.with_changes(cluster_size=size)
        summary = evaluate_configuration(
            config, trials=trials, seed=seed, max_sources=max_sources
        )
        return budget.fits(summary.superpeer_load())

    high = base.graph_size + 1  # the smallest size known to miss
    for low in candidate_cluster_sizes(base.graph_size):
        if fits(low):
            break
        high = low
    else:
        return 0
    while high - low > 1:
        mid = (low + high) // 2
        if fits(mid):
            low = mid
        else:
            high = mid
    return low
