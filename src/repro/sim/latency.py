"""Response-time simulation: putting numbers on the EPL claim.

The paper's model deliberately excludes absolute response time but notes
that "since each hop takes time, EPL is also a rough measure of the
average response time of a query", and the Section 5.2 comparison argues
"the average response time in the new topology is probably much better
than in the old, because EPL is much shorter."

This module quantifies that: it assigns every overlay hop a sampled
latency (lognormal, calibrated to wide-area RTTs), propagates a query
with hop-bounded earliest-arrival semantics (each super-peer forwards on
first receipt — the timed generalization of the paper's BFS), routes
responses back along the first-arrival predecessor path with fresh
per-hop delays, and reports the response-time distribution: time to
first result, median result, and the tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.routing import propagate_query
from ..querymodel.expectation import cluster_expectations
from ..stats.rng import derive_rng
from ..topology.builder import NetworkInstance

#: Default per-hop one-way latency model: lognormal with ~80 ms median
#: and a heavy tail, the classic wide-area overlay-hop shape.
DEFAULT_MEDIAN_LATENCY = 0.080
DEFAULT_SIGMA = 0.6


@dataclass(frozen=True)
class ResponseTimeSummary:
    """Response-time distribution over sampled queries (seconds)."""

    first_result_mean: float
    first_result_median: float
    median_result_mean: float
    last_result_mean: float
    p90_result_mean: float
    mean_epl: float
    num_queries: int

    def as_rows(self) -> list[tuple[str, float]]:
        return [
            ("time to first result (mean)", self.first_result_mean),
            ("time to first result (median)", self.first_result_median),
            ("time to median result (mean)", self.median_result_mean),
            ("time to 90% of results (mean)", self.p90_result_mean),
            ("time to last result (mean)", self.last_result_mean),
        ]


class LatencyModel:
    """Samples per-hop one-way delays."""

    def __init__(
        self,
        median_seconds: float = DEFAULT_MEDIAN_LATENCY,
        sigma: float = DEFAULT_SIGMA,
    ) -> None:
        if median_seconds <= 0:
            raise ValueError("median_seconds must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.mu = float(np.log(median_seconds))
        self.sigma = float(sigma)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size)


def _timed_propagation(
    graph, source: int, ttl: int, latency: LatencyModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(arrival_time, pred) for a hop-bounded earliest-arrival flood.

    Level-synchronous approximation consistent with the library's BFS
    routing: a node is reached at its BFS depth, and its arrival time is
    the minimum over its BFS-level-(d-1) neighbours of their arrival plus
    a fresh hop delay.  (True asynchronous flooding can reach a node over
    a longer-but-faster path; at the latency spreads modelled here the
    difference is second-order, and the BFS form matches the cost model.)
    """
    prop = propagate_query(graph, source, ttl)
    n = graph.num_nodes
    arrival = np.full(n, np.inf)
    arrival[source] = 0.0
    pred = prop.pred.copy()
    max_depth = prop.max_depth
    for depth in range(1, max_depth + 1):
        level = np.nonzero(prop.depth == depth)[0]
        if level.size == 0:
            continue
        for v in level.tolist():
            neighbors = graph.neighbors(int(v))
            parents = neighbors[prop.depth[neighbors] == depth - 1]
            delays = latency.sample(rng, parents.size)
            times = arrival[parents] + delays
            best = int(np.argmin(times))
            arrival[v] = float(times[best])
            pred[v] = int(parents[best])
    return arrival, pred


def measure_response_times(
    instance: NetworkInstance,
    num_queries: int = 32,
    latency: LatencyModel | None = None,
    rng=None,
    model=None,
) -> ResponseTimeSummary:
    """Sample query response-time distributions on one instance.

    For each sampled query (uniform source cluster), responders are the
    reached clusters that hold results (weighted by their response
    probability); each response returns along the arrival predecessor
    path with fresh per-hop delays.  Response *timestamps* are weighted
    by each responder's expected result count so "time to median result"
    means the median of the result mass, as a user experiences it.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    latency = latency or LatencyModel()
    rng = derive_rng(rng, "latency")
    graph = instance.graph
    exp = cluster_expectations(instance, model)
    ttl = instance.config.ttl

    firsts, medians, lasts, p90s, epls = [], [], [], [], []
    for _ in range(num_queries):
        source = int(rng.integers(0, graph.num_nodes))
        arrival, pred = _timed_propagation(graph, source, ttl, latency, rng)
        reached = np.isfinite(arrival)
        responders = np.nonzero(
            reached & (exp.prob_respond > 1e-6)
        )[0]
        responders = responders[responders != source]
        if responders.size == 0:
            continue
        times = []
        weights = []
        hop_counts = []
        for v in responders.tolist():
            # Return path: walk the predecessors, fresh delay per hop.
            hops = 0
            node = v
            while node != source:
                node = int(pred[node])
                hops += 1
            delay_back = float(latency.sample(rng, hops).sum())
            times.append(arrival[v] + delay_back)
            weights.append(float(exp.expected_results[v]) * float(exp.prob_respond[v]))
            hop_counts.append(hops)
        times = np.asarray(times)
        weights = np.asarray(weights)
        if weights.sum() <= 0:
            continue
        epls.append(float(np.average(hop_counts, weights=weights)))
        order = np.argsort(times)
        times = times[order]
        cdf = np.cumsum(weights[order]) / weights.sum()
        firsts.append(times[0])
        medians.append(float(times[np.searchsorted(cdf, 0.5)]))
        p90s.append(float(times[np.searchsorted(cdf, 0.9)]))
        lasts.append(times[-1])

    if not firsts:
        raise ValueError("no query produced responders; enlarge the instance")
    return ResponseTimeSummary(
        first_result_mean=float(np.mean(firsts)),
        first_result_median=float(np.median(firsts)),
        median_result_mean=float(np.mean(medians)),
        last_result_mean=float(np.mean(lasts)),
        p90_result_mean=float(np.mean(p90s)),
        mean_epl=float(np.mean(epls)),
        num_queries=len(firsts),
    )
