"""Alternative search protocols over the super-peer overlay.

Section 2 of the paper: "Each of these search protocols can be applied
to super-peer networks, as the use of super-peers and the choice of
routing protocol are orthogonal issues," and Section 4.1 adds that
protocols like iterative deepening "may also be used on a super-peer
network, resulting in overall performance gain, but similar tradeoffs
between configurations."

This subpackage makes that concrete: the baseline Gnutella flood, the
*expanding ring* (iterative deepening), and *k-walker random walks* all
run over the same :class:`~repro.topology.builder.NetworkInstance` and
report comparable per-query costs (messages, bytes, results, response
hops), so the "overall performance gain, similar tradeoffs" claim can be
checked experimentally (``benchmarks/bench_ablation_search.py``).
"""

from .base import QueryCost
from .flooding import FloodingSearch
from .expanding_ring import ExpandingRingSearch
from .random_walk import RandomWalkSearch
from .routing_indices import RoutingIndicesSearch

__all__ = [
    "QueryCost",
    "FloodingSearch",
    "ExpandingRingSearch",
    "RandomWalkSearch",
    "RoutingIndicesSearch",
]
