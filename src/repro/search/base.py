"""Common interface for search protocols over a network instance."""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..querymodel.distributions import QueryModel, default_query_model
from ..querymodel.expectation import ClusterExpectations, cluster_expectations
from ..stats.rng import derive_rng
from ..topology.builder import NetworkInstance


@dataclass(frozen=True)
class QueryCost:
    """Expected per-query cost and outcome of one protocol at one source."""

    query_messages: float      # query transmissions over the overlay
    response_messages: float   # Response messages (origin + forwards)
    query_bytes: float         # bytes moved by query messages
    response_bytes: float      # bytes moved by Response traffic
    expected_results: float
    reach: float               # super-peers that process the query
    mean_response_hops: float  # EPL of the responses

    @property
    def total_messages(self) -> float:
        return self.query_messages + self.response_messages

    @property
    def total_bytes(self) -> float:
        return self.query_bytes + self.response_bytes

    def efficiency(self) -> float:
        """Results per kilobyte moved (the comparison figure of merit)."""
        if self.total_bytes == 0:
            return 0.0
        return self.expected_results / (self.total_bytes / 1024.0)


def average_costs(costs: list[QueryCost]) -> QueryCost:
    """Source-averaged QueryCost."""
    if not costs:
        raise ValueError("no costs to average")
    def mean(attr: str) -> float:
        return float(np.mean([getattr(c, attr) for c in costs]))
    return QueryCost(
        query_messages=mean("query_messages"),
        response_messages=mean("response_messages"),
        query_bytes=mean("query_bytes"),
        response_bytes=mean("response_bytes"),
        expected_results=mean("expected_results"),
        reach=mean("reach"),
        mean_response_hops=mean("mean_response_hops"),
    )


class SearchProtocol(abc.ABC):
    """A query-routing strategy evaluated over a network instance."""

    name: str = "abstract"

    def __init__(self, instance: NetworkInstance, model: QueryModel | None = None):
        self.instance = instance
        self.model = model or default_query_model()
        self.expectations: ClusterExpectations = cluster_expectations(
            instance, self.model
        )

    @abc.abstractmethod
    def query_cost(self, source: int) -> QueryCost:
        """Expected per-query cost for a query sourced at cluster ``source``."""

    def evaluate(
        self,
        num_sources: int | None = 64,
        rng: np.random.Generator | int | None = None,
    ) -> QueryCost:
        """Source-averaged expected query cost."""
        n = self.instance.num_clusters
        if num_sources is None or num_sources >= n:
            sources = range(n)
        else:
            sampler = derive_rng(rng, "search-sources")
            sources = sampler.choice(n, size=num_sources, replace=False).tolist()
        return average_costs([self.query_cost(int(s)) for s in sources])

    def _response_triple(self, mask: np.ndarray) -> tuple[float, float, float]:
        """(messages, addresses, results) originated by the masked clusters."""
        exp = self.expectations
        return (
            float(exp.prob_respond[mask].sum()),
            float(exp.expected_collections[mask].sum()),
            float(exp.expected_results[mask].sum()),
        )
