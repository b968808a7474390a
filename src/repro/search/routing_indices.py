"""Routing-indices search (Crespo & Garcia-Molina, ICDCS 2002).

The paper cites routing indices directly ([4]) as a compatible protocol:
"reference [4] proposes ... routing indices for peer-to-peer systems"
and Section 2 classes it among the protocols that "can be applied to
super-peer networks".

A routing index gives each super-peer, per neighbour, an estimate of how
many documents are reachable *through* that neighbour within a horizon
of H hops (the "hop-count routing index", attenuated by the expected
per-hop fan-out).  A query is then forwarded selectively: each node
sends it only to its best-ranked neighbours, walking the overlay in
goodness order until the result target is met — far fewer messages than
a flood at the price of maintaining the index.

Implementation notes
--------------------
* The per-neighbour document counts are computed exactly from the
  instance (a hop-bounded BFS through each neighbour, excluding the
  indexing node), which corresponds to a converged, loss-free index —
  the protocol's best case, matching the mean-value spirit of the rest
  of the library.
* Search is simulated as best-first exploration: maintain a frontier of
  (goodness, node) candidates reachable from the visited set, expand the
  best, collect its expected results, stop at the target.  Response
  traffic returns along the discovered tree (hop count = tree depth).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core import costs
from ..topology.strong import CompleteGraph
from .base import QueryCost, SearchProtocol


class RoutingIndicesSearch(SearchProtocol):
    """Hop-count routing-indices search with a result target."""

    name = "routing-indices"

    def __init__(
        self,
        instance,
        model=None,
        horizon: int = 3,
        result_target: float = 50.0,
        max_visits: int | None = None,
    ):
        super().__init__(instance, model)
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if result_target <= 0:
            raise ValueError("result_target must be positive")
        self.horizon = horizon
        self.result_target = result_target
        graph = instance.graph
        if isinstance(graph, CompleteGraph):
            graph = graph.materialize()
        self._graph = graph
        self.max_visits = max_visits if max_visits is not None else graph.num_nodes
        self._index = self._build_index()

    # --- index construction ---------------------------------------------------

    def _build_index(self) -> dict[int, dict[int, float]]:
        """index[u][v] = attenuated documents reachable via neighbour v.

        Documents at hop h through v are attenuated by 1/h (the hop-count
        RI's diminishing value of distant documents).
        """
        graph = self._graph
        sizes = self.instance.index_sizes.astype(float)
        index: dict[int, dict[int, float]] = {}
        for u in range(graph.num_nodes):
            entries: dict[int, float] = {}
            for v in graph.neighbors(u).tolist():
                entries[int(v)] = self._reachable_through(u, int(v), sizes)
            index[u] = entries
        return index

    def _reachable_through(self, u: int, v: int, sizes: np.ndarray) -> float:
        """Attenuated document mass within the horizon via edge (u -> v)."""
        graph = self._graph
        # Hop-bounded BFS from v that never crosses u.
        depth = {v: 1}
        frontier = [v]
        total = sizes[v]  # hop 1, weight 1/1
        for hop in range(2, self.horizon + 1):
            next_frontier = []
            for node in frontier:
                for w in graph.neighbors(node).tolist():
                    if w == u or w in depth:
                        continue
                    depth[w] = hop
                    next_frontier.append(w)
                    total += sizes[w] / hop
            frontier = next_frontier
            if not frontier:
                break
        return float(total)

    def goodness(self, u: int, v: int) -> float:
        """The routing-index entry of edge (u, v)."""
        return self._index[u][v]

    # --- query evaluation --------------------------------------------------------

    def query_cost(self, source: int) -> QueryCost:
        exp = self.expectations
        graph = self._graph

        visited = {source}
        parent = {source: -1}
        depth = {source: 0}
        results = float(exp.expected_results[source])
        query_messages = 0.0
        resp_msgs = resp_addr = resp_res = resp_hops = 0.0

        # Best-first frontier: (-goodness, tiebreak, candidate, via-parent).
        heap: list[tuple[float, int, int, int]] = []
        counter = 0
        for v in graph.neighbors(source).tolist():
            heapq.heappush(heap, (-self.goodness(source, int(v)), counter, int(v), source))
            counter += 1

        while heap and results < self.result_target and len(visited) < self.max_visits:
            _, _, node, via = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            parent[node] = via
            depth[node] = depth[via] + 1
            query_messages += 1.0
            p = float(exp.prob_respond[node])
            hops = depth[node]
            results += float(exp.expected_results[node])
            resp_msgs += p * hops
            resp_addr += float(exp.expected_collections[node]) * hops
            resp_res += float(exp.expected_results[node]) * hops
            resp_hops += p * hops
            for w in graph.neighbors(node).tolist():
                if w not in visited:
                    heapq.heappush(heap, (-self.goodness(node, int(w)), counter, int(w), node))
                    counter += 1

        originated = sum(
            float(exp.prob_respond[v]) for v in visited if v != source
        )
        epl = resp_hops / originated if originated > 0 else 0.0
        return QueryCost(
            query_messages=query_messages,
            response_messages=resp_msgs,
            query_bytes=costs.send_query(0.0, query_messages)[0],
            response_bytes=costs.send_response(resp_msgs, resp_addr, resp_res, 0.0)[0],
            expected_results=results,
            reach=float(len(visited)),
            mean_response_hops=epl,
        )
