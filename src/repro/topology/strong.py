"""Strongly connected (complete) overlay topology.

The paper studies strongly connected networks "as a best-case scenario for
the number of results (reach covers every node, so all possible results
will be returned), and for bandwidth efficiency (no Response messages will
be forwarded ...)" — i.e. the complete graph on the super-peers, queried
with TTL = 1.

A complete graph on n nodes has n(n-1)/2 edges; materializing that for the
paper's 10,000-super-peer sweeps would cost hundreds of megabytes, and the
load analysis never needs the explicit adjacency (every structural
quantity of K_n is closed-form).  :class:`CompleteGraph` therefore
implements the :class:`~repro.topology.graph.OverlayGraph` interface
lazily; the routing and load modules recognize it and use closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import OverlayGraph

#: Above this size, materializing explicit adjacency is refused.
_MATERIALIZE_LIMIT = 4096


@dataclass(frozen=True)
class CompleteGraph:
    """The complete graph K_n, stored implicitly.

    Duck-types the :class:`OverlayGraph` query interface.  Methods that
    require explicit adjacency arrays are available below
    ``_MATERIALIZE_LIMIT`` nodes (plenty for tests) and raise for the
    large instances where the analytic path must be used instead.
    """

    num_nodes: int

    def __post_init__(self) -> None:
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")

    # --- closed-form structure ------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self.num_nodes * (self.num_nodes - 1) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.full(self.num_nodes, max(0, self.num_nodes - 1), dtype=np.int64)

    def degree(self, node: int) -> int:
        self._check_node(node)
        return max(0, self.num_nodes - 1)

    def average_outdegree(self) -> float:
        if self.num_nodes == 0:
            return 0.0
        return float(self.num_nodes - 1)

    def neighbors(self, node: int) -> np.ndarray:
        self._check_node(node)
        ids = np.arange(self.num_nodes, dtype=np.int64)
        return ids[ids != node]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return u != v

    def edge_list(self):
        for u in range(self.num_nodes):
            for v in range(u + 1, self.num_nodes):
                yield (u, v)

    def is_connected(self) -> bool:
        return True

    def connected_components(self) -> list[np.ndarray]:
        if self.num_nodes == 0:
            return []
        return [np.arange(self.num_nodes, dtype=np.int64)]

    def validate(self) -> None:
        """A CompleteGraph is structurally valid by construction."""

    # --- explicit materialization (small graphs / tests only) -----------------

    def materialize(self) -> OverlayGraph:
        """Return the explicit CSR OverlayGraph (small n only), built once."""
        self._check_size()
        return self._materialized

    @cached_property
    def _materialized(self) -> OverlayGraph:
        return OverlayGraph.from_edges(self.num_nodes, self.edge_list())

    def directed_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        self._check_size()
        return self.materialize().directed_edge_arrays()

    @property
    def indptr(self) -> np.ndarray:
        self._check_size()
        return self.materialize().indptr

    @property
    def indices(self) -> np.ndarray:
        self._check_size()
        return self.materialize().indices

    def to_networkx(self):
        self._check_size()
        return self.materialize().to_networkx()

    # --- internals -------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")

    def _check_size(self) -> None:
        if self.num_nodes > _MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize K_{self.num_nodes}; the analysis "
                "uses the closed-form path for large complete graphs"
            )


def strongly_connected_graph(num_nodes: int) -> CompleteGraph:
    """The strongly connected overlay: every super-peer neighbours every other."""
    return CompleteGraph(num_nodes=num_nodes)
