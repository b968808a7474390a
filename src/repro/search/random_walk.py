"""k-walker random-walk search (Lv et al. / Adamic et al. family).

Instead of flooding, the source launches ``num_walkers`` walkers; each
takes up to ``max_steps`` uniform-random steps over the overlay,
querying every super-peer it lands on.  Walkers stop early once the
collective expected results meet the target (modelling the protocol's
"checking back with the source" termination).

Random walks cannot be folded into a closed form on an arbitrary graph,
so the cost is estimated by Monte Carlo over seeded walks; responses
travel back along the walker's path (hop count = step index), matching
the reverse-path convention of the rest of the library.
"""

from __future__ import annotations

import numpy as np

from ..core import costs
from ..stats.rng import derive_rng
from ..topology.strong import CompleteGraph
from .base import QueryCost, SearchProtocol, average_costs


class RandomWalkSearch(SearchProtocol):
    """k parallel random walkers with a result-target stop rule."""

    name = "random-walk"

    def __init__(
        self,
        instance,
        model=None,
        num_walkers: int = 16,
        max_steps: int = 128,
        result_target: float = 50.0,
        check_interval: int = 4,
        rng=None,
        num_samples: int = 8,
    ):
        super().__init__(instance, model)
        if num_walkers < 1 or max_steps < 1:
            raise ValueError("num_walkers and max_steps must be >= 1")
        if result_target <= 0:
            raise ValueError("result_target must be positive")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.num_walkers = num_walkers
        self.max_steps = max_steps
        self.result_target = result_target
        self.check_interval = check_interval
        self.num_samples = num_samples
        self._rng = derive_rng(rng, "random-walk")
        graph = instance.graph
        if isinstance(graph, CompleteGraph):
            graph = graph.materialize()
        self._graph = graph

    def _one_walk_sample(self, source: int) -> QueryCost:
        """One Monte Carlo realization of the k-walker search."""
        graph = self._graph
        exp = self.expectations
        rng = self._rng

        positions = np.full(self.num_walkers, source, dtype=np.int64)
        visited = {source}
        results = float(exp.expected_results[source])
        resp_msgs = resp_addr = resp_res = resp_hops = 0.0
        query_messages = 0.0
        steps_taken = 0

        for step in range(1, self.max_steps + 1):
            # Every live walker takes one step.
            for w in range(self.num_walkers):
                neighbors = graph.neighbors(int(positions[w]))
                if neighbors.size == 0:
                    continue
                positions[w] = int(neighbors[rng.integers(0, neighbors.size)])
                query_messages += 1.0
                node = int(positions[w])
                if node not in visited:
                    visited.add(node)
                    results += float(exp.expected_results[node])
                    p = float(exp.prob_respond[node])
                    resp_msgs += p * step  # forwarded back along the walk
                    resp_addr += float(exp.expected_collections[node]) * step
                    resp_res += float(exp.expected_results[node]) * step
                    resp_hops += p * step
            steps_taken = step
            if step % self.check_interval == 0 and results >= self.result_target:
                break

        originated = sum(
            float(exp.prob_respond[node]) for node in visited if node != source
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

    def query_cost(self, source: int) -> QueryCost:
        samples = [self._one_walk_sample(source) for _ in range(self.num_samples)]
        return average_costs(samples)
