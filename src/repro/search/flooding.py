"""Baseline Gnutella flood (the paper's protocol), as a SearchProtocol.

Thin adapter over :mod:`repro.core.routing` so the protocol comparison
measures the same flood the load engine charges; response accounting is
reverse-path with per-hop forwarding (every hop re-transmits the
Response message).

``dead_clusters`` exposes the protocol to degraded operation (the
``sim.faults`` fault model): clusters marked dead neither relay nor
respond, so the flood truncates around them and the measured reach and
result count drop accordingly.
"""

from __future__ import annotations

import numpy as np

from ..core import costs
from ..core.routing import propagate_query
from ..obs.metrics import get_registry
from .base import QueryCost, SearchProtocol


class FloodingSearch(SearchProtocol):
    """BFS flood with the instance's configured TTL."""

    name = "flooding"

    def __init__(self, instance, model=None, ttl: int | None = None,
                 dead_clusters: np.ndarray | None = None):
        super().__init__(instance, model)
        self.ttl = ttl if ttl is not None else instance.config.ttl
        if self.ttl < 1:
            raise ValueError("ttl must be >= 1")
        if dead_clusters is not None:
            dead_clusters = np.asarray(dead_clusters, dtype=bool)
            if dead_clusters.shape != (instance.num_clusters,):
                raise ValueError("dead_clusters must have one entry per cluster")
        self.dead_clusters = dead_clusters

    def _propagate(self, source: int):
        return propagate_query(self.instance.graph, source, self.ttl,
                               blocked=self.dead_clusters)

    def query_cost(self, source: int) -> QueryCost:
        metrics = get_registry()
        prop = self._propagate(source)
        reached = prop.reached
        metrics.counter("search.flooding.queries").add()
        metrics.counter("search.flooding.query_messages").add(
            float(prop.transmissions.sum())
        )
        metrics.histogram("search.flooding.reach").observe(float(prop.reach))
        responders = reached.copy()
        responders[source] = False

        msgs, addr, res = self._response_triple(responders)
        own_results = float(self.expectations.expected_results[source])
        if self.dead_clusters is not None and self.dead_clusters[source]:
            own_results = 0.0  # a dead source serves nobody

        # Response forwarding: each responder's message is re-sent at
        # every hop of its reverse path, so the transmission count is the
        # depth-weighted sum of response weights.
        exp = self.expectations
        weights = np.where(responders, exp.prob_respond, 0.0)
        depth_weighted = float((prop.depth * weights)[reached].sum())
        addr_weighted = float(
            (prop.depth * np.where(responders, exp.expected_collections, 0.0))[reached].sum()
        )
        res_weighted = float(
            (prop.depth * np.where(responders, exp.expected_results, 0.0))[reached].sum()
        )
        response_bytes = costs.send_response(
            depth_weighted, addr_weighted, res_weighted, 0.0)[0]

        # A weighted mean of depths cannot exceed the deepest hop; the
        # clamp absorbs the rounding of two differently ordered sums.
        epl = min(depth_weighted / msgs, float(prop.max_depth)) if msgs > 0 else 0.0
        metrics.histogram("search.flooding.response_hops").observe(epl)
        return QueryCost(
            query_messages=float(prop.transmissions.sum()),
            response_messages=depth_weighted,
            query_bytes=costs.send_query(0.0, float(prop.transmissions.sum()))[0],
            response_bytes=response_bytes,
            expected_results=res + own_results,
            reach=float(prop.reach),
            mean_response_hops=epl,
        )
