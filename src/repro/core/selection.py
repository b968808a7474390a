"""Capacity-aware super-peer selection.

"The obvious conclusion is that an efficient system should take
advantage of this heterogeneity, assigning greater responsibility to
those who are more capable of handling it" (Section 1), and local rule
II's escape hatch: an under-provisioned super-peer should "'resign' to
become a client".

Given a load report (who must carry how much) and a capacity mix (who
*can* carry how much), this module assigns the super-peer roles either
blindly (``random`` — the pure-network premise) or capacity-aware
(``capacity`` — most capable peers take the super-peer slots) and
measures the overload fraction under each policy.  The gap between the
two is the quantitative payoff of role assignment, separate from the
topology win the rest of the library measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..querymodel.capacities import CapacityMix, default_capacity_mix
from ..stats.rng import derive_rng
from .load import LoadReport

STRATEGIES = ("random", "capacity")


@dataclass(frozen=True)
class RoleAssignmentResult:
    """Overload outcome of one role-assignment policy."""

    strategy: str
    overloaded_superpeers: float   # fraction of super-peer slots overloaded
    overloaded_clients: float      # fraction of client slots overloaded
    overloaded_total: float        # fraction of all peers overloaded

    def describe(self) -> str:
        return (
            f"{self.strategy}: {self.overloaded_total:.1%} of peers overloaded "
            f"({self.overloaded_superpeers:.1%} of super-peers, "
            f"{self.overloaded_clients:.1%} of clients)"
        )


def assign_roles(
    report: LoadReport,
    strategy: str = "capacity",
    mix: CapacityMix | None = None,
    rng=None,
    utilization_limit: float = 1.0,
) -> RoleAssignmentResult:
    """Assign super-peer roles under ``strategy`` and measure overloads.

    The report supplies the load each *role slot* carries (per-partner
    super-peer loads, per-client loads); the mix supplies each peer's
    link.  ``random`` shuffles peers into slots blindly; ``capacity``
    gives the super-peer slots to the peers with the fastest uplinks
    (upstream is the binding resource on 2001-era asymmetric links).
    Within each role group, slot loads are paired with peers randomly —
    the comparison isolates the role decision itself.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; one of {STRATEGIES}")
    if not 0.0 < utilization_limit <= 1.0:
        raise ValueError("utilization_limit must be in (0, 1]")
    mix = mix or default_capacity_mix()
    rng = derive_rng(rng, "selection", strategy)

    # The Figure 12 node set: k partner slots per cluster, then clients.
    num_sp = report.superpeer_incoming_bps.size * report.partners
    sp_in, cl_in = np.split(report.all_node_loads("incoming"), [num_sp])
    sp_out, cl_out = np.split(report.all_node_loads("outgoing"), [num_sp])
    num_peers = num_sp + cl_in.size

    down, up = mix.sample(rng, num_peers)
    if strategy == "capacity":
        # Fastest uplinks take the super-peer slots.
        order = np.argsort(-up, kind="stable")
    else:
        order = rng.permutation(num_peers)
    sp_peers = order[:num_sp]
    cl_peers = order[num_sp:]

    # Random pairing of slot loads to peers within each role group.
    rng.shuffle(sp_peers)
    rng.shuffle(cl_peers)

    sp_over = (sp_in > utilization_limit * down[sp_peers]) | (
        sp_out > utilization_limit * up[sp_peers]
    )
    cl_over = (cl_in > utilization_limit * down[cl_peers]) | (
        cl_out > utilization_limit * up[cl_peers]
    )
    total_over = (int(sp_over.sum()) + int(cl_over.sum())) / max(1, num_peers)
    return RoleAssignmentResult(
        strategy=strategy,
        overloaded_superpeers=float(sp_over.mean()) if num_sp else 0.0,
        overloaded_clients=float(cl_over.mean()) if cl_in.size else 0.0,
        overloaded_total=float(total_over),
    )


def selection_gain(
    report: LoadReport,
    mix: CapacityMix | None = None,
    rng=None,
    utilization_limit: float = 1.0,
) -> tuple[RoleAssignmentResult, RoleAssignmentResult]:
    """(random, capacity-aware) assignment outcomes on the same report."""
    random_result = assign_roles(
        report, "random", mix, rng, utilization_limit
    )
    capacity_result = assign_roles(
        report, "capacity", mix, rng, utilization_limit
    )
    return random_result, capacity_result
