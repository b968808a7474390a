"""Compressed-sparse-row overlay graph.

The load analysis runs breadth-first traversals from many sources over the
super-peer overlay (Section 4.1, step 2).  A CSR adjacency structure keeps
those traversals vectorizable with numpy; :class:`OverlayGraph` is the one
graph representation used throughout the library, with conversions to and
from :mod:`networkx` for interoperability and for tests.

Graphs are simple and undirected: no self-loops, no parallel edges.  An
edge is an open connection between two super-peers; a node's *outdegree*
(the paper's term) is its number of neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class OverlayGraph:
    """An undirected simple graph in CSR form.

    Attributes
    ----------
    num_nodes:
        Number of super-peers (clusters) in the overlay.
    indptr, indices:
        CSR adjacency: neighbours of node ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``.  Every undirected edge is
        stored twice, once per direction.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray

    # --- constructors --------------------------------------------------------

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[tuple[int, int]]) -> "OverlayGraph":
        """Build a graph from an iterable of undirected edges.

        Self-loops are rejected; duplicate edges are collapsed.
        """
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        edge_array = np.asarray(list(edges), dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if edge_array.size:
            if edge_array.min() < 0 or edge_array.max() >= num_nodes:
                raise ValueError("edge endpoint out of range")
            if np.any(edge_array[:, 0] == edge_array[:, 1]):
                raise ValueError("self-loops are not allowed")
        # Canonicalize and deduplicate.
        lo = np.minimum(edge_array[:, 0], edge_array[:, 1])
        hi = np.maximum(edge_array[:, 0], edge_array[:, 1])
        canonical = np.unique(lo * num_nodes + hi) if edge_array.size else np.array([], dtype=np.int64)
        lo = canonical // num_nodes
        hi = canonical % num_nodes
        heads = np.concatenate([lo, hi])
        tails = np.concatenate([hi, lo])
        order = np.argsort(heads, kind="stable")
        heads = heads[order]
        tails = tails[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.add.at(indptr, heads + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(num_nodes=num_nodes, indptr=indptr, indices=tails.astype(np.int64))

    @classmethod
    def from_networkx(cls, graph: "nx.Graph") -> "OverlayGraph":
        """Convert a networkx graph whose nodes are 0..n-1."""
        num_nodes = graph.number_of_nodes()
        mapping_needed = set(graph.nodes) != set(range(num_nodes))
        if mapping_needed:
            relabel = {node: i for i, node in enumerate(sorted(graph.nodes))}
            edges = ((relabel[u], relabel[v]) for u, v in graph.edges)
        else:
            edges = graph.edges
        return cls.from_edges(num_nodes, edges)

    def to_networkx(self) -> "nx.Graph":
        """Materialize as a networkx Graph (tests, algorithms, plotting)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_edges_from(self.edge_list())
        return graph

    # --- queries -------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    @property
    def degrees(self) -> np.ndarray:
        """Outdegree of every node (paper terminology for neighbour count)."""
        return np.diff(self.indptr)

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def average_outdegree(self) -> float:
        """Mean outdegree; 0.0 for an empty graph."""
        if self.num_nodes == 0:
            return 0.0
        return float(self.indices.size / self.num_nodes)

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour ids of ``node`` (a CSR slice; do not mutate)."""
        return self.indices[self.indptr[node]: self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    def edge_list(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge once as (u, v) with u < v."""
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    def directed_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) arrays listing every directed edge once.

        ``tails[i] -> heads[i]``; used by the flooding accountant to count
        query receipts in bulk.
        """
        tails = np.repeat(np.arange(self.num_nodes), self.degrees)
        return tails, self.indices

    # --- derived graphs ------------------------------------------------------

    def augment(self, extra_edges: Iterable[tuple[int, int]]) -> "OverlayGraph":
        """A new graph with ``extra_edges`` added (duplicates collapse).

        The overlay object itself stays immutable; mid-simulation rewiring
        (partition healing) swaps in an augmented copy and swaps the
        original back when the repair links are torn down.
        """
        edges = list(self.edge_list())
        edges.extend((int(u), int(v)) for u, v in extra_edges)
        return OverlayGraph.from_edges(self.num_nodes, edges)

    def subgraph_components(self, mask: np.ndarray) -> list[np.ndarray]:
        """Connected components of the node-induced subgraph on ``mask``.

        Nodes outside ``mask`` are ignored entirely (as are edges into
        them).  Returned largest-first (a stable sort, so equal sizes keep
        their lowest-member order); with an all-True mask these are
        :meth:`connected_components`, and partition healing uses it to
        find the fragments each side of a cut shatters into.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_nodes,):
            raise ValueError("mask must have one entry per node")
        label = np.full(self.num_nodes, -1, dtype=np.int64)
        label[~mask] = -2  # never visit
        components: list[np.ndarray] = []
        for start in np.nonzero(mask)[0]:
            if label[start] != -1:
                continue
            comp_id = len(components)
            frontier = np.array([start], dtype=np.int64)
            label[start] = comp_id
            members = [frontier]
            while frontier.size:
                spans = [self.neighbors(int(v)) for v in frontier]
                candidates = np.unique(np.concatenate(spans)) if spans else np.array([], dtype=np.int64)
                frontier = candidates[label[candidates] == -1]
                label[frontier] = comp_id
                if frontier.size:
                    members.append(frontier)
            components.append(np.concatenate(members))
        components.sort(key=len, reverse=True)
        return components

    # --- structure checks ----------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError if the CSR structure is not a simple graph."""
        if self.indptr.shape != (self.num_nodes + 1,):
            raise ValueError("indptr has wrong shape")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.num_nodes:
                raise ValueError("neighbour id out of range")
        for node in range(self.num_nodes):
            neigh = self.neighbors(node)
            if np.any(neigh == node):
                raise ValueError(f"self-loop at node {node}")
            if np.unique(neigh).size != neigh.size:
                raise ValueError(f"parallel edges at node {node}")
        # Symmetry: each directed edge must have its reverse.
        tails, heads = self.directed_edge_arrays()
        forward = set(zip(tails.tolist(), heads.tolist()))
        if any((v, u) not in forward for u, v in forward):
            raise ValueError("adjacency is not symmetric")

    def connected_components(self) -> list[np.ndarray]:
        """Connected components as arrays of node ids (largest first)."""
        return self.subgraph_components(np.ones(self.num_nodes, dtype=bool))

    def is_connected(self) -> bool:
        if self.num_nodes <= 1:
            return True
        return len(self.connected_components()) == 1
