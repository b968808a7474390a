"""Expanding ring (iterative deepening) search.

The classic Gnutella improvement from Yang & Garcia-Molina's "Improving
search in peer-to-peer networks" family, which the paper cites as a
compatible protocol: flood with a small TTL first; only if the result
target is not met, re-flood with the next, larger TTL from the policy.

Under the Appendix B query model the number of results from a reach is
concentrated around its expectation, so the stop rule is modelled on
expected results per ring (the mean-value analogue of the protocol's
"enough results?" check); the cost of a query is the sum of the floods
actually issued.  The win over one-shot flooding comes from the common
case stopping at a cheap small ring.
"""

from __future__ import annotations

from ..obs.metrics import get_registry
from .base import QUERY_BYTES, QueryCost, SearchProtocol
from .flooding import FloodingSearch


class ExpandingRingSearch(SearchProtocol):
    """Iterative deepening over a TTL policy with a result target."""

    name = "expanding-ring"

    def __init__(
        self,
        instance,
        model=None,
        policy: tuple[int, ...] = (1, 2, 4, 7),
        result_target: float = 50.0,
        dead_clusters=None,
    ):
        super().__init__(instance, model)
        if not policy or any(t < 1 for t in policy):
            raise ValueError("policy must contain TTLs >= 1")
        if list(policy) != sorted(set(policy)):
            raise ValueError("policy TTLs must be strictly increasing")
        if result_target <= 0:
            raise ValueError("result_target must be positive")
        self.policy = tuple(policy)
        self.result_target = result_target
        # Dead relays truncate every ring (see FloodingSearch); a ring
        # that comes back short of the target escalates to the next TTL,
        # so faults surface as extra query traffic, not just lost reach.
        self.dead_clusters = dead_clusters

    def query_cost(self, source: int) -> QueryCost:
        metrics = get_registry()
        metrics.counter("search.expanding_ring.queries").add()
        floods = []
        final = None
        for ttl in self.policy:
            ring = FloodingSearch(self.instance, self.model, ttl=ttl,
                                  dead_clusters=self.dead_clusters)
            cost = ring.query_cost(source)
            floods.append(cost)
            final = cost
            if cost.expected_results >= self.result_target:
                break
        metrics.counter("search.expanding_ring.rings_issued").add(len(floods))
        if len(floods) > 1:
            metrics.counter("search.expanding_ring.escalations").add(len(floods) - 1)
            # Every ring before the last was pure overhead: its responses
            # are subsumed by the final (superset) ring, so its query
            # traffic is the price of guessing the TTL too small.
            metrics.counter("search.expanding_ring.wasted_query_messages").add(
                sum(c.query_messages for c in floods[:-1])
            )
        metrics.histogram("search.expanding_ring.rings_per_query").observe(
            float(len(floods))
        )
        # Query traffic is paid for every ring issued; the user keeps the
        # final ring's result set (earlier rings' responses are subsumed —
        # the re-flood reaches a superset — so response traffic is charged
        # per ring as the protocol actually transmits it).
        query_messages = sum(c.query_messages for c in floods)
        response_messages = sum(c.response_messages for c in floods)
        response_bytes = sum(c.response_bytes for c in floods)
        return QueryCost(
            query_messages=query_messages,
            response_messages=response_messages,
            query_bytes=query_messages * QUERY_BYTES,
            response_bytes=response_bytes,
            expected_results=final.expected_results,
            reach=final.reach,
            mean_response_hops=final.mean_response_hops,
        )

    def rings_needed(self, source: int) -> int:
        """How many rings the policy issues at this source."""
        for i, ttl in enumerate(self.policy):
            ring = FloodingSearch(self.instance, self.model, ttl=ttl,
                                  dead_clusters=self.dead_clusters)
            if ring.query_cost(source).expected_results >= self.result_target:
                return i + 1
        return len(self.policy)
