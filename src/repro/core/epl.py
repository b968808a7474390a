"""Expected path length (EPL), reach, and TTL selection (rule #4, App. F).

The EPL is "the expected number of hops taken by a query response message
on its path back to the query source".  Under BFS propagation a responder
at depth d returns its Response over d hops, so:

* for a query with a given TTL, EPL is the response-weighted mean depth
  of the reached super-peers (the load engine reports this per source);
* for a *desired reach r* (Figure 9), EPL is the mean depth of the r
  nearest super-peers — the depth profile a TTL would have to cover to
  collect r responders.

Appendix F adds the closed-form approximation ``EPL ~= log_d(reach)`` for
average outdegree d (exact on a d-ary tree, a lower bound on graphs where
cycles lower the effective outdegree), and two practical details:
setting TTL = round(EPL) under-reaches because path lengths spread around
their mean, so the TTL must be the *ceiling*, checked by measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..stats.rng import derive_rng
from .routing import DEFAULT_BLOCK, flood_block

def _sample_sources(graph, num_sources: int | None, rng) -> np.ndarray:
    n = graph.num_nodes
    if num_sources is None or num_sources >= n:
        return np.arange(n, dtype=np.int64)
    rng = derive_rng(rng, "epl-sources")
    return np.sort(rng.choice(n, size=num_sources, replace=False))


def _floods(graph, ttl: int, num_sources: int | None, rng):
    """Floods from the sampled sources, ``DEFAULT_BLOCK`` per kernel call."""
    sources = _sample_sources(graph, num_sources, rng)
    for start in range(0, sources.size, DEFAULT_BLOCK):
        yield flood_block(graph, sources[start:start + DEFAULT_BLOCK], ttl)


def measure_epl(
    graph,
    reach: int,
    num_sources: int | None = 64,
    rng=None,
) -> float:
    """Experimental EPL for a desired reach (the Figure 9 measurement).

    For each sampled source, run an unbounded BFS, take the ``reach``
    nearest super-peers (the source itself included, at depth 0, matching
    the paper's reach definition of "nodes that process the query"), and
    average the depth of the responders among them.  Averaged over sources.
    """
    if reach < 2:
        raise ValueError("reach must cover at least the source and one responder")
    if reach > graph.num_nodes:
        raise ValueError(
            f"desired reach {reach} exceeds the {graph.num_nodes}-node overlay"
        )
    full_depth = graph.num_nodes - 1  # no BFS goes deeper: unbounded
    epls = []
    for fb in _floods(graph, full_depth, num_sources, rng):
        # Unreached nodes sort last; the source (the only depth 0) first.
        depths = np.sort(np.where(fb.reached, fb.depth, full_depth + 1), axis=1)
        # Sources in a component smaller than the reach are skipped.
        covered = fb.reach() >= reach
        epls.extend(depths[covered, 1:reach].mean(axis=1).tolist())
    if not epls:
        raise ValueError("no source could cover the desired reach")
    return float(np.mean(epls))


def measure_reach(
    graph,
    ttl: int,
    num_sources: int | None = 64,
    rng=None,
) -> float:
    """Mean number of super-peers processing a query at the given TTL."""
    reaches = [fb.reach() for fb in _floods(graph, ttl, num_sources, rng)]
    return float(np.mean(np.concatenate(reaches)))


def epl_approximation(avg_outdegree: float, reach: float) -> float:
    """Appendix F closed form: EPL ~= log_d(reach).

    Exact for a tree rooted at the source; a lower bound on general graphs
    because cycles reduce the effective outdegree.
    """
    if avg_outdegree <= 1.0:
        raise ValueError("approximation needs average outdegree > 1")
    if reach <= 1.0:
        raise ValueError("reach must exceed 1")
    return math.log(reach) / math.log(avg_outdegree)


@dataclass(frozen=True)
class TTLChoice:
    """A TTL recommendation with its supporting evidence."""

    ttl: int
    measured_epl: float
    measured_reach: float
    target_reach: int


def choose_ttl(
    graph,
    target_reach: int,
    num_sources: int | None = 64,
    rng=None,
    max_ttl: int = 16,
) -> TTLChoice:
    """Pick the minimal TTL whose measured reach attains ``target_reach``.

    Implements rule #4 with the Appendix F caveat: start from the ceiling
    of the measured EPL for the desired reach, then verify by measurement
    and increment while the realized reach falls short ("setting TTL too
    close to the EPL will cause the actual reach to be lower than the
    desired value").
    """
    if target_reach < 2:
        raise ValueError("target_reach must be >= 2")
    epl = measure_epl(graph, target_reach, num_sources, rng)
    ttl = max(1, math.ceil(epl))
    while ttl <= max_ttl:
        reach = measure_reach(graph, ttl, num_sources, rng)
        if reach >= target_reach:
            return TTLChoice(
                ttl=ttl, measured_epl=epl, measured_reach=reach, target_reach=target_reach
            )
        ttl += 1
    reach = measure_reach(graph, max_ttl, num_sources, rng)
    return TTLChoice(
        ttl=max_ttl, measured_epl=epl, measured_reach=reach, target_reach=target_reach
    )


def minimum_full_reach_ttl(
    graph, num_sources: int | None = 32, rng=None, max_ttl: int = 32
) -> int:
    """The smallest TTL that still reaches every super-peer (rule #4).

    "Once queries have reached every node, any additional query message
    will be redundant" — local rule III tells super-peers to monitor for
    this and shrink their TTL.
    """
    full = float(graph.num_nodes)
    for ttl in range(1, max_ttl + 1):
        if measure_reach(graph, ttl, num_sources, rng) >= full:
            return ttl
    return max_ttl
