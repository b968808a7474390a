"""The global design procedure (Figure 10, Section 5.2).

Given a designer's constraints — maximum individual load along each
resource, a connection budget, optionally an aggregate budget — and the
network's properties (number of users, desired reach in peers), produce
an efficient configuration:

1. Select the desired reach r.
2. Set TTL = 1.
3. Decrease cluster size until the desired individual load is attained.
   - if bandwidth load cannot be attained, decrease r (nothing beats
     TTL = 1 for bandwidth);
   - if individual load is too high, apply super-peer redundancy and/or
     decrease r.
4. If the required average outdegree exceeds the connection budget,
   increment TTL and return to step 3.
5. Decrease the average outdegree if doing so affects neither the EPL
   nor the attained reach.

The procedure is a heuristic search, not an optimum proof; the paper
reports that "empirical evidence from analysis shows it usually returns a
topology for which improvements can not be made without violating the
given constraints."  Every decision taken is recorded in the returned
audit trail so the Section 5.2 walkthrough can be replayed step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..config import Configuration, GraphType
from .analysis import ConfigurationSummary, evaluate_configuration


@dataclass(frozen=True)
class DesignConstraints:
    """Designer inputs: per-node limits and network properties.

    The per-node limits default to the Figure 10 walkthrough's, which
    :class:`~repro.core.capacity.LoadBudget` reads too.
    """

    num_users: int
    desired_reach_peers: int
    max_incoming_bps: float = 100_000.0
    max_outgoing_bps: float = 100_000.0
    max_processing_hz: float = 10_000_000.0
    max_connections: int = 100
    max_aggregate_bandwidth_bps: float | None = None
    allow_redundancy: bool = True

    def __post_init__(self) -> None:
        if self.num_users < 2:
            raise ValueError(
                f"num_users must be >= 2 (a one-user network has nothing "
                f"to design), got {self.num_users}"
            )
        if not 2 <= self.desired_reach_peers <= self.num_users:
            raise ValueError(
                f"desired_reach_peers must be in [2, num_users], "
                f"got {self.desired_reach_peers}"
            )
        for name in ("max_incoming_bps", "max_outgoing_bps", "max_processing_hz"):
            value = float(getattr(self, name))
            # NaN slips through a plain `<= 0` check (every comparison
            # with NaN is False), so reject it by name first.
            if math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            # Normalize int inputs (e.g. from JSON spec files) so asdict
            # payloads do not depend on the caller's literal type.
            object.__setattr__(self, name, value)
        if self.max_connections < 2:
            raise ValueError(
                f"max_connections must be >= 2, got {self.max_connections}"
            )
        if self.max_aggregate_bandwidth_bps is not None:
            agg = float(self.max_aggregate_bandwidth_bps)
            if math.isnan(agg):
                raise ValueError("max_aggregate_bandwidth_bps must not be NaN")
            if agg <= 0:
                raise ValueError(
                    f"max_aggregate_bandwidth_bps must be positive (or None "
                    f"for no aggregate budget), got {agg}"
                )


@dataclass
class DesignStep:
    """One audit-trail entry of the procedure."""

    step: str
    detail: str
    config: Configuration | None = None

    def __str__(self) -> str:
        return f"[{self.step}] {self.detail}"


@dataclass
class DesignOutcome:
    """The procedure's result: a configuration plus its evidence."""

    config: Configuration
    summary: ConfigurationSummary
    constraints: DesignConstraints
    trail: list[DesignStep] = field(default_factory=list)
    feasible: bool = True

    def describe(self) -> str:
        lines = [f"design {'FEASIBLE' if self.feasible else 'INFEASIBLE'}: "
                 f"{self.config.describe()}"]
        lines.extend(str(step) for step in self.trail)
        return "\n".join(lines)


def required_outdegree(reach_superpeers: int, ttl: int) -> int:
    """Smallest integer outdegree d whose TTL-hop flood covers the reach.

    The expected reach is "bounded above by" the tree count
    ``1 + d + d(d-1) + d(d-1)^2 + ...`` (Section 5.2 uses d^2 + d for
    TTL = 2); cycles only lower it, so this is the optimistic minimum the
    procedure starts from before measuring.
    """
    if reach_superpeers < 1:
        raise ValueError("reach_superpeers must be >= 1")
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    if reach_superpeers == 1:
        return 1
    for d in range(1, reach_superpeers):
        covered = 1 + d * sum((d - 1) ** i for i in range(ttl)) if d > 1 else 1 + ttl
        if covered >= reach_superpeers:
            return d
    return reach_superpeers - 1


def _tree_reach(outdegree: float, ttl: int) -> float:
    """Tree upper bound on reach for a given outdegree and TTL."""
    if outdegree <= 1:
        return 1 + ttl
    return 1 + outdegree * sum((outdegree - 1) ** i for i in range(ttl))


def _within_limits(summary: ConfigurationSummary, constraints: DesignConstraints) -> bool:
    load = summary.superpeer_load()
    if load.incoming_bps > constraints.max_incoming_bps:
        return False
    if load.outgoing_bps > constraints.max_outgoing_bps:
        return False
    if load.processing_hz > constraints.max_processing_hz:
        return False
    if constraints.max_aggregate_bandwidth_bps is not None:
        agg = summary.aggregate_load()
        if agg.total_bandwidth_bps > constraints.max_aggregate_bandwidth_bps:
            return False
    return True


def candidate_cluster_sizes(num_users: int) -> list[int]:
    """Descending ladder of cluster sizes to try (largest feasible wins
    the aggregate-load race, rule #1)."""
    ladder: list[int] = []
    size = num_users
    while size >= 1:
        ladder.append(size)
        size = max(1, int(size // 2)) if size > 1 else 0
    # Densify the small end where the knee lives.
    for extra in (30, 20, 15, 10, 8, 5, 3, 2, 1):
        if extra <= num_users and extra not in ladder:
            ladder.append(extra)
    return sorted(set(ladder), reverse=True)


def design_topology(
    constraints: DesignConstraints,
    trials: int = 2,
    seed: int | None = 0,
    max_sources: int | None = 200,
    max_ttl: int = 8,
    risk=None,
):
    """Run the Figure 10 global design procedure.

    Returns the first (largest-cluster, smallest-TTL) configuration that
    meets every constraint while attaining the desired reach, with the
    audit trail of decisions; ``feasible=False`` (with the best attempt
    attached) if even the degenerate options violate the limits.

    Pass ``risk`` (a :class:`repro.risk.RiskSpec`) to optimize against
    the weighted failure-scenario distribution instead of the fault-free
    network: the call then delegates to
    :func:`repro.risk.design.design_topology_risk` and returns its
    :class:`~repro.risk.design.RiskDesignOutcome` — the cheapest
    candidate meeting the spec's availability target, with expected and
    CVaR-at-α statistics per candidate.
    """
    if risk is not None:
        # Deferred import: repro.risk builds on this module.
        from ..risk.design import design_topology_risk

        return design_topology_risk(
            constraints, risk, trials=trials,
            max_sources=max_sources, max_ttl=max_ttl,
        )
    trail: list[DesignStep] = []
    reach_peers = constraints.desired_reach_peers
    trail.append(DesignStep("1", f"desired reach = {reach_peers} peers"))

    best_attempt: tuple[Configuration, ConfigurationSummary] | None = None

    for ttl in range(1, max_ttl + 1):
        trail.append(DesignStep("2" if ttl == 1 else "4", f"try TTL = {ttl}"))
        for point in design_points(constraints, ttl, trials=trials, seed=seed,
                                   max_sources=max_sources):
            config, summary = point.config, point.summary
            if config is None:
                trail.append(DesignStep(
                    "3",
                    f"cluster {point.cluster_size}: needs outdegree "
                    f"{point.outdegree:.0f} (~{point.connections:.0f} "
                    f"connections) > budget {constraints.max_connections}",
                ))
                continue
            if not point.reaches:
                trail.append(DesignStep(
                    "3",
                    f"cluster {point.cluster_size}, TTL {ttl}: measured reach "
                    f"{summary.mean('reach_peers'):.0f} < target; need more "
                    "outdegree or TTL",
                ))
                continue
            if point.within_limits:
                trail.append(DesignStep(
                    "3",
                    f"cluster {point.cluster_size}"
                    f"{' + redundancy' if config.redundancy else ''}, "
                    f"outdegree {config.avg_outdegree:.0f}, TTL {ttl}: "
                    "all limits met",
                    config,
                ))
                config, summary = _shrink_outdegree(
                    config, summary, constraints, reach_peers, trail,
                    trials, seed, max_sources,
                )
                return DesignOutcome(
                    config=config,
                    summary=summary,
                    constraints=constraints,
                    trail=trail,
                    feasible=True,
                )
            best_attempt = (config, summary)
        trail.append(DesignStep(
            "4", f"no cluster size satisfies the limits at TTL = {ttl}"
        ))

    trail.append(DesignStep(
        "fail",
        "no configuration met the constraints; decrease the desired reach r",
    ))
    if best_attempt is None:
        raise ValueError(
            "design space empty: connection budget excludes every cluster size"
        )
    config, summary = best_attempt
    return DesignOutcome(
        config=config,
        summary=summary,
        constraints=constraints,
        trail=trail,
        feasible=False,
    )


@dataclass(frozen=True)
class DesignPoint:
    """One point of the Figure 10 search space at a TTL.

    ``config`` and ``summary`` are ``None`` when the cluster size's
    required outdegree busts the connection budget (nothing is
    evaluated).  Otherwise ``reaches`` says whether the measured reach is
    within 90% of the target and ``within_limits`` whether every
    per-node (and aggregate) limit holds.
    """

    ttl: int
    cluster_size: int
    outdegree: float
    connections: float
    config: Configuration | None = None
    summary: ConfigurationSummary | None = None
    reaches: bool = False
    within_limits: bool = False


def design_points(constraints: DesignConstraints, ttl: int, *, trials: int,
                  seed: int | None, max_sources: int | None):
    """Walk the Figure 10 search space at one TTL, in the procedure's order.

    Cluster sizes descend (the largest feasible wins the aggregate-load
    race, rule #1); at each, the required outdegree comes from the tree
    bound and the simpler non-redundant cluster is tried before
    redundancy.  A configuration is evaluated only when the consumer
    asks for its point, so a consumer that stops early pays for nothing
    more.
    """
    reach_peers = constraints.desired_reach_peers
    for cluster_size in candidate_cluster_sizes(constraints.num_users):
        reach_sp = max(1, math.ceil(reach_peers / cluster_size))
        num_clusters = max(1, round(constraints.num_users / cluster_size))
        if reach_sp > num_clusters:
            continue  # cannot reach more super-peers than exist
        if num_clusters == 1:
            outdeg = 1.0
        else:
            outdeg = float(min(required_outdegree(reach_sp, ttl), num_clusters - 1))
        connections = outdeg + (cluster_size - 1)
        if connections > constraints.max_connections:
            yield DesignPoint(ttl, cluster_size, outdeg, connections)
            continue
        redundancy_options = [False]
        if constraints.allow_redundancy and cluster_size >= 4:
            redundancy_options.append(True)
        for redundancy in redundancy_options:
            config = Configuration(
                graph_type=GraphType.POWER_LAW,
                graph_size=constraints.num_users,
                cluster_size=cluster_size,
                redundancy=redundancy,
                avg_outdegree=max(outdeg, 1.0),
                ttl=ttl,
            )
            summary = evaluate_configuration(
                config, trials=trials, seed=seed, max_sources=max_sources
            )
            reaches = summary.mean("reach_peers") >= 0.9 * reach_peers
            yield DesignPoint(
                ttl, cluster_size, outdeg, connections, config, summary,
                reaches, reaches and _within_limits(summary, constraints),
            )


def _shrink_outdegree(
    config: Configuration,
    summary: ConfigurationSummary,
    constraints: DesignConstraints,
    reach_peers: int,
    trail: list[DesignStep],
    trials: int,
    seed: int | None,
    max_sources: int | None,
):
    """Step 5: lower the outdegree while reach and EPL are unaffected."""
    current, current_summary = config, summary
    while current.avg_outdegree > 2:
        candidate = current.with_changes(avg_outdegree=current.avg_outdegree - 1)
        # Shrinking only helps if the tree bound still covers the reach.
        reach_sp = math.ceil(reach_peers / candidate.cluster_size)
        if _tree_reach(candidate.avg_outdegree, candidate.ttl) < reach_sp:
            break
        cand_summary = evaluate_configuration(
            candidate, trials=trials, seed=seed, max_sources=max_sources
        )
        if cand_summary.mean("reach_peers") < 0.9 * reach_peers:
            break
        if cand_summary.mean("epl") > current_summary.mean("epl") + 0.25:
            break
        trail.append(DesignStep(
            "5",
            f"outdegree {current.avg_outdegree:.0f} -> "
            f"{candidate.avg_outdegree:.0f} keeps reach and EPL",
            candidate,
        ))
        current, current_summary = candidate, cand_summary
    return current, current_summary
