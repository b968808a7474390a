"""Quantitative machinery behind the four rules of thumb (Section 5.1).

1. Increasing cluster size decreases aggregate load but increases
   individual load — :func:`cluster_size_sweep` and :func:`find_knee`.
2. Super-peer redundancy is good — ``core.redundancy`` (re-exported
   comparisons are consumed by ``bench_rules_of_thumb``).
3. Maximize outdegree of super-peers — :func:`uniform_outdegree_gain`
   and :func:`lone_increaser_penalty`.
4. Minimize TTL — :func:`ttl_savings`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Configuration
from ..topology.builder import build_instance
from .analysis import ConfigurationSummary, evaluate_configuration
from .load import evaluate_instance


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    value: float
    summary: ConfigurationSummary


def cluster_size_sweep(
    base: Configuration,
    cluster_sizes: list[int],
    trials: int = 2,
    seed: int | None = 0,
    max_sources: int | None = 300,
) -> list[SweepPoint]:
    """Evaluate ``base`` at each cluster size (Figures 4-6 raw material)."""
    points = []
    for size in cluster_sizes:
        config = base.with_changes(cluster_size=size)
        summary = evaluate_configuration(
            config, trials=trials, seed=seed, max_sources=max_sources
        )
        points.append(SweepPoint(value=float(size), summary=summary))
    return points


def find_knee(values: np.ndarray, loads: np.ndarray) -> float:
    """Locate the knee of a decreasing load curve.

    The paper observes aggregate load "decreases dramatically at first ...
    then experiences a 'knee' ... after which it decreases gradually."  We
    use the standard maximum-distance-to-chord criterion on log-scaled
    axes (the sweeps are log-spaced): the knee is the point farthest from
    the straight line joining the curve's endpoints.
    """
    values = np.asarray(values, dtype=float)
    loads = np.asarray(loads, dtype=float)
    if values.shape != loads.shape or values.size < 3:
        raise ValueError("need at least three aligned sweep points")
    order = np.argsort(values)
    x = np.log(values[order])
    y = np.log(loads[order])
    # Normalize both axes so distance is scale-free.
    x_n = (x - x[0]) / (x[-1] - x[0]) if x[-1] != x[0] else x * 0
    y_n = (y - y[0]) / (y[-1] - y[0]) if y[-1] != y[0] else y * 0
    # Distance from each point to the chord from first to last point.
    chord = np.array([x_n[-1] - x_n[0], y_n[-1] - y_n[0]])
    chord_norm = np.hypot(*chord)
    rel = np.stack([x_n - x_n[0], y_n - y_n[0]], axis=1)
    distances = np.abs(rel[:, 0] * chord[1] - rel[:, 1] * chord[0]) / chord_norm
    return float(values[order][int(np.argmax(distances))])


@dataclass(frozen=True)
class OutdegreeTradeoff:
    """Rule #3 evidence: what happens when outdegree rises."""

    low_summary: ConfigurationSummary
    high_summary: ConfigurationSummary

    def aggregate_bandwidth_gain(self) -> float:
        """Relative aggregate-bandwidth saving of the high-outdegree system
        (positive = high outdegree is cheaper, the paper reports >31%)."""
        low = (
            self.low_summary.mean("aggregate_incoming_bps")
            + self.low_summary.mean("aggregate_outgoing_bps")
        )
        high = (
            self.high_summary.mean("aggregate_incoming_bps")
            + self.high_summary.mean("aggregate_outgoing_bps")
        )
        return 1.0 - high / low

    def epl_drop(self) -> tuple[float, float]:
        """(EPL at low outdegree, EPL at high outdegree)."""
        return self.low_summary.mean("epl"), self.high_summary.mean("epl")


def uniform_outdegree_gain(
    base: Configuration,
    low_outdegree: float = 3.1,
    high_outdegree: float = 10.0,
    trials: int = 2,
    seed: int | None = 0,
    max_sources: int | None = 300,
) -> OutdegreeTradeoff:
    """Everyone raises their outdegree together (rule #3's good case)."""
    low = evaluate_configuration(
        base.with_changes(avg_outdegree=low_outdegree),
        trials=trials, seed=seed, max_sources=max_sources,
    )
    high = evaluate_configuration(
        base.with_changes(avg_outdegree=high_outdegree),
        trials=trials, seed=seed, max_sources=max_sources,
    )
    return OutdegreeTradeoff(low_summary=low, high_summary=high)


@dataclass(frozen=True)
class LoneIncreaserResult:
    """Rule #3's warning case: one node raises its outdegree alone."""

    before_bps: float
    after_bps: float

    @property
    def relative_increase(self) -> float:
        """The paper's example: 4 -> 9 neighbours alone costs +303%."""
        return self.after_bps / self.before_bps - 1.0


def lone_increaser_penalty(
    config: Configuration,
    from_degree: int,
    to_degree: int,
    seed: int = 0,
    max_sources: int | None = 300,
) -> LoneIncreaserResult:
    """Measure the outgoing-bandwidth hit of one super-peer unilaterally
    raising its outdegree from ``from_degree`` to ``to_degree``.

    Builds one instance, finds a super-peer with ``from_degree``
    neighbours, rewires extra edges onto it, and re-evaluates that node's
    load with everything else unchanged.
    """
    if to_degree <= from_degree:
        raise ValueError("to_degree must exceed from_degree")
    instance = build_instance(config, seed=seed)
    graph = instance.graph
    degrees = graph.degrees
    candidates = np.nonzero(degrees == from_degree)[0]
    if candidates.size == 0:
        raise ValueError(f"no super-peer has outdegree {from_degree}")
    node = int(candidates[0])

    report = evaluate_instance(instance, max_sources=max_sources, rng=seed)
    before = float(report.superpeer_outgoing_bps[node])

    # Rewire: connect `node` to additional random non-neighbours.
    rng = np.random.default_rng(seed)
    existing = set(graph.neighbors(node).tolist()) | {node}
    pool = np.array([v for v in range(graph.num_nodes) if v not in existing])
    extra = rng.choice(pool, size=to_degree - from_degree, replace=False)
    edges = list(graph.edge_list()) + [(node, int(v)) for v in extra]
    from ..topology.graph import OverlayGraph  # local import avoids cycle at module load

    new_graph = OverlayGraph.from_edges(graph.num_nodes, edges)
    from dataclasses import replace

    new_instance = replace(instance, graph=new_graph)
    # cached_property values are instance-bound; `replace` creates a fresh
    # object so connection counts are recomputed for the new degrees.
    new_report = evaluate_instance(new_instance, max_sources=max_sources, rng=seed)
    after = float(new_report.superpeer_outgoing_bps[node])
    return LoneIncreaserResult(before_bps=before, after_bps=after)


@dataclass(frozen=True)
class TTLSavings:
    """Rule #4 evidence: excess TTL wastes resources on redundant queries."""

    high_ttl_summary: ConfigurationSummary
    low_ttl_summary: ConfigurationSummary

    def incoming_saving(self) -> float:
        """Relative aggregate incoming-bandwidth saving of the lower TTL
        (the paper reports 19% for outdegree 20, TTL 4 -> 3)."""
        high = self.high_ttl_summary.mean("aggregate_incoming_bps")
        low = self.low_ttl_summary.mean("aggregate_incoming_bps")
        return 1.0 - low / high

    def reach_preserved(self, tolerance: float = 0.01) -> bool:
        """True if the lower TTL still attains the higher TTL's reach."""
        high = self.high_ttl_summary.mean("reach_clusters")
        low = self.low_ttl_summary.mean("reach_clusters")
        return low >= (1.0 - tolerance) * high


def ttl_savings(
    base: Configuration,
    high_ttl: int,
    low_ttl: int,
    trials: int = 2,
    seed: int | None = 0,
    max_sources: int | None = 300,
) -> TTLSavings:
    """Compare aggregate loads at two TTLs (rule #4)."""
    if low_ttl >= high_ttl:
        raise ValueError("low_ttl must be below high_ttl")
    high = evaluate_configuration(
        base.with_changes(ttl=high_ttl), trials=trials, seed=seed, max_sources=max_sources
    )
    low = evaluate_configuration(
        base.with_changes(ttl=low_ttl), trials=trials, seed=seed, max_sources=max_sources
    )
    return TTLSavings(high_ttl_summary=high, low_ttl_summary=low)
