"""Query propagation: BFS flooding with TTL and reverse-path responses.

Section 4.1, step 2: "We use a breadth-first traversal over the network to
determine which nodes receive the query, where the source of the traversal
is the query source S, and the depth is equal to the TTL of the query
message.  Any response message will then travel along the reverse path of
the query, meaning it will travel up the predecessor graph of the
breadth-first traversal until it reaches the source S."

Flooding semantics (baseline Gnutella search, Section 3.1):

* the source sends the query to **all** of its neighbours;
* a node receiving the query for the first time at depth d forwards it to
  all neighbours except the sender, provided d < TTL;
* duplicate receipts are received (incurring receive cost) and dropped.

:class:`QueryPropagation` captures one traversal — depths, predecessors,
per-node query transmissions and receipts — and provides the reverse-path
accumulator used to charge Response forwarding costs on every node along
each responder's path back to the source.  :func:`propagate_query` is the
scalar oracle (and the event engine's per-query path, with dead relays).

:func:`flood_block` runs a block of sources at once and is the flood
kernel of both engines: the mean-value analysis (``core.load``) and the
fault-free array simulator (``sim.fastcore``).  Row ``i`` of its
:class:`FloodBlock` is bit-identical to ``propagate_query(sources[i])``;
:func:`fold_to_sources` is the matching batched reverse-path accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.graph import OverlayGraph
from ..topology.strong import CompleteGraph

#: Sources per :func:`flood_block` call in both engines: large enough to
#: amortize numpy call overhead, small enough that the (block, nodes, 3)
#: response buffers stay cache- and memory-friendly at 50k-node scale.
DEFAULT_BLOCK = 64


@dataclass(frozen=True)
class QueryPropagation:
    """One query's breadth-first flood from ``source`` with the given TTL."""

    source: int
    ttl: int
    depth: np.ndarray          # (n,) BFS depth; -1 if not reached
    pred: np.ndarray           # (n,) BFS predecessor (first sender); -1 at source/unreached
    transmissions: np.ndarray  # (n,) query messages sent by each node
    receipts: np.ndarray       # (n,) query messages received by each node

    # --- reach ----------------------------------------------------------------

    @property
    def reached(self) -> np.ndarray:
        """Mask of nodes that process the query (source included)."""
        return self.depth >= 0

    @property
    def reach(self) -> int:
        """Number of nodes that process the query (the paper's *reach*)."""
        return int(np.count_nonzero(self.reached))

    @property
    def max_depth(self) -> int:
        return int(self.depth.max(initial=0))

    def total_query_messages(self) -> float:
        """Total query transmissions (equals total receipts by conservation)."""
        return float(self.transmissions.sum())

    # --- reverse-path accumulation ---------------------------------------------

    def accumulate_to_source(self, weights: np.ndarray) -> np.ndarray:
        """Sum ``weights`` up the predecessor forest toward the source.

        Returns ``forwarded`` where ``forwarded[v]`` is the total weight
        originating in the predecessor subtree rooted at ``v`` (``v``'s own
        weight included).  Interpreting ``weights[v]`` as the expected
        Response messages (or result records, or addresses) originated by
        ``v``, then for every node ``v != source``:

        * ``forwarded[v]`` is what ``v`` *sends* toward its predecessor;
        * ``forwarded[v] - weights[v]`` is what ``v`` *receives* from its
          subtree children.

        At the source, ``forwarded[source] - weights[source]`` is the total
        weight arriving over the overlay.  Weights at unreached nodes must
        be zero (they never respond).
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != self.depth.shape:
            raise ValueError("weights must have one entry per node")
        if np.any(weights[~self.reached] != 0.0):
            raise ValueError("unreached nodes cannot carry response weight")
        forwarded = weights.astype(float).copy()
        # Fold levels bottom-up: children at depth d add into their
        # predecessor at depth d-1.  np.add.at handles shared predecessors.
        for d in range(self.max_depth, 0, -1):
            level = np.nonzero(self.depth == d)[0]
            if level.size:
                np.add.at(forwarded, self.pred[level], forwarded[level])
        return forwarded

    def response_path_lengths(self) -> np.ndarray:
        """Hop count of each reached node's response path (its BFS depth)."""
        return self.depth[self.reached]


@dataclass(frozen=True)
class FloodBlock:
    """A block of BFS floods over one overlay, one row per source.

    Row ``i`` is exactly ``propagate_query(graph, sources[i], ttl)``:
    same depths, same first-sender predecessors (the minimum-id frontier
    neighbor — frontiers are ascending, so "first writer" is "lowest
    sender"), same per-node transmissions and receipts.
    """

    sources: np.ndarray        # (b,)
    ttl: int
    depth: np.ndarray          # (b, n) BFS depth; -1 if not reached
    pred: np.ndarray           # (b, n) first-sender predecessor; -1 at source/unreached
    transmissions: np.ndarray  # (b, n) query messages sent by each node
    receipts: np.ndarray       # (b, n) query messages received by each node

    @property
    def reached(self) -> np.ndarray:
        return self.depth >= 0

    def reach(self) -> np.ndarray:
        """Clusters reached per source (the paper's *reach*), (b,)."""
        return np.count_nonzero(self.reached, axis=1)

    def row(self, i: int) -> QueryPropagation:
        """Row ``i`` as the scalar kernel's :class:`QueryPropagation`."""
        return QueryPropagation(
            source=int(self.sources[i]), ttl=self.ttl,
            depth=self.depth[i], pred=self.pred[i],
            transmissions=self.transmissions[i], receipts=self.receipts[i],
        )


def _out_edges(
    graph: OverlayGraph, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(counts, heads): each node's out-degree and the heads of all its
    out-edges, node by node in CSR order."""
    starts = graph.indptr[nodes]
    counts = graph.indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    # Gather CSR slices without a Python loop: offsets[j] walks each
    # node's adjacency range consecutively.
    offsets = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
    return counts, graph.indices[offsets]


def flood_block(graph, sources, ttl: int) -> FloodBlock:
    """Batched BFS floods from ``sources``, equivalent to per-source
    :func:`propagate_query`.

    Frontier-sparse: the block's frontier is a sorted array of flat keys
    ``row * n + node``, and each hop gathers from the CSR only the
    out-edges of those ``(row, node)`` pairs.  Every gathered edge not
    pointing back to its sender's predecessor is one receipt at its head.
    Heads not yet reached in their row join the next depth, and their
    predecessor is the minimum-id sender among the edges reaching them —
    the scalar kernel's first writer, since its frontiers are ascending.
    """
    if isinstance(graph, CompleteGraph):
        graph = graph.materialize()
    n = graph.num_nodes
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise IndexError(f"sources out of range [0, {n})")
    b = sources.size
    rows = np.arange(b, dtype=np.int64)

    depth = np.full(b * n, -1, dtype=np.int64)
    pred = np.full(b * n, -1, dtype=np.int64)
    receipts = np.zeros(b * n)
    frontier = rows * n + sources  # ascending: one key per row
    depth[frontier] = 0
    for d in range(ttl):
        nodes = frontier % n
        counts, heads = _out_edges(graph, nodes)
        if heads.size == 0:
            break
        keys = np.repeat(frontier - nodes, counts) + heads
        # Every frontier node forwards (d < ttl) to all but its sender.
        live = heads != np.repeat(pred[frontier], counts)
        np.add.at(receipts, keys[live], 1.0)
        fresh = depth[keys] == -1
        keys, senders = keys[fresh], np.repeat(nodes, counts)[fresh]
        if keys.size == 0:
            break
        depth[keys] = d + 1
        pred[keys] = n  # above every node id, so the minimum is a sender
        np.minimum.at(pred, keys, senders)
        frontier = np.flatnonzero(depth == d + 1)
    depth = depth.reshape(b, n)
    pred = pred.reshape(b, n)

    degrees = graph.degrees.astype(np.float64)
    forwarder = (depth >= 0) & (depth < ttl)
    transmissions = np.where(forwarder, degrees[np.newaxis, :] - 1.0, 0.0)
    transmissions[rows, sources] = degrees[sources]
    return FloodBlock(
        sources=sources, ttl=int(ttl), depth=depth, pred=pred,
        transmissions=transmissions, receipts=receipts.reshape(b, n),
    )


def _complete_block(n: int, sources, ttl: int) -> FloodBlock:
    """Closed-form :class:`FloodBlock` on K_n (mirrors
    :func:`complete_graph_propagation`)."""
    sources = np.asarray(sources, dtype=np.int64)
    b = sources.size
    rows = np.arange(b)
    depth = np.ones((b, n), dtype=np.int64)
    depth[rows, sources] = 0
    pred = np.broadcast_to(sources[:, np.newaxis], (b, n)).copy()
    pred[rows, sources] = -1
    transmissions = np.zeros((b, n))
    receipts = np.zeros((b, n))
    if n > 1:
        transmissions[rows, sources] = n - 1.0
        receipts[:] = 1.0
        receipts[rows, sources] = 0.0
        if ttl >= 2 and n > 2:
            transmissions[:] = n - 2.0
            transmissions[rows, sources] = n - 1.0
            receipts[:] = n - 1.0
            receipts[rows, sources] = 0.0
    return FloodBlock(
        sources=sources, ttl=int(ttl), depth=depth, pred=pred,
        transmissions=transmissions, receipts=receipts,
    )


def fold_to_sources(depth: np.ndarray, pred: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """Batched :meth:`QueryPropagation.accumulate_to_source`.

    ``depth`` and ``pred`` are a :class:`FloodBlock`'s ``(b, n)`` arrays;
    ``weights`` is ``(b, n, c)`` — ``c`` response channels per node, zero
    at unreached nodes.  Returns the ``(b, n, c)`` predecessor-subtree
    sums: levels fold bottom-up, each row into its own predecessors, in
    the scalar accumulator's order (row by row it is bit-identical).
    """
    b, n = depth.shape
    # Channel-major, so each channel folds with the 1-D ``add.at`` path.
    forwarded = np.ascontiguousarray(weights.reshape(b * n, weights.shape[-1]).T)
    flat_pred = (pred + np.arange(b)[:, np.newaxis] * n).reshape(-1)
    flat_depth = depth.reshape(-1)
    for d in range(int(depth.max(initial=0)), 0, -1):
        level = np.flatnonzero(flat_depth == d)
        parents = flat_pred[level]
        for channel in forwarded:
            np.add.at(channel, parents, channel[level])
    return forwarded.T.reshape(weights.shape)


def propagate_query(
    graph, source: int, ttl: int, blocked: np.ndarray | None = None
) -> QueryPropagation:
    """Breadth-first flood of a query from ``source`` with the given TTL.

    Works on :class:`OverlayGraph` and on small :class:`CompleteGraph`
    instances (which it materializes); the load engine uses closed forms
    for large complete graphs instead of calling this.

    ``blocked`` (optional boolean mask, one entry per node) marks dead
    relays: a blocked node never receives, processes, or forwards the
    query, so floods are truncated around it.  Messages *to* a blocked
    node are still transmitted (the sender cannot know the target is
    down) but are never received.  A blocked source yields an empty
    propagation (nothing is reached, nothing is sent).
    """
    if isinstance(graph, CompleteGraph):
        graph = graph.materialize()
    n = graph.num_nodes
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    if blocked is not None:
        blocked = np.asarray(blocked, dtype=bool)
        if blocked.shape != (n,):
            raise ValueError("blocked must have one entry per node")

    depth = np.full(n, -1, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    if blocked is not None and blocked[source]:
        empty = np.zeros(n, dtype=np.float64)
        return QueryPropagation(
            source=source, ttl=ttl, depth=depth, pred=pred,
            transmissions=empty, receipts=empty.copy(),
        )
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    for d in range(ttl):
        counts, targets = _out_edges(graph, frontier)
        senders = np.repeat(frontier, counts)
        fresh = depth[targets] == -1
        if blocked is not None and targets.size:
            fresh &= ~blocked[targets]
        targets = targets[fresh]
        senders = senders[fresh]
        if targets.size == 0:
            break
        # First writer wins: the predecessor is the first sender to deliver
        # the query, matching the BFS predecessor-graph approximation.
        unique_targets, first_index = np.unique(targets, return_index=True)
        depth[unique_targets] = d + 1
        pred[unique_targets] = senders[first_index]
        frontier = unique_targets

    degrees = graph.degrees
    reached = depth >= 0
    # Forwarders re-send to every neighbour except the first sender; the
    # source has no sender and fans out to all its neighbours.
    forwarder = reached & (depth < ttl)
    transmissions = np.zeros(n, dtype=np.float64)
    transmissions[forwarder] = degrees[forwarder] - 1
    if forwarder[source]:
        transmissions[source] = degrees[source]

    # Receipts: every directed edge (v -> u) with v a forwarder delivers a
    # copy to u, except the edge back to v's own predecessor.
    tails, heads = graph.directed_edge_arrays()
    live = forwarder[tails] & (pred[tails] != heads)
    if blocked is not None:
        live &= ~blocked[heads]
    receipts = np.bincount(heads[live], minlength=n).astype(np.float64)

    return QueryPropagation(
        source=source,
        ttl=ttl,
        depth=depth,
        pred=pred,
        transmissions=transmissions,
        receipts=receipts,
    )


def complete_graph_propagation(num_nodes: int, source: int, ttl: int) -> QueryPropagation:
    """Closed-form propagation on K_n (any size, no adjacency needed).

    With TTL = 1 the source sends n-1 queries and every other node receives
    exactly one.  With TTL >= 2, every non-source node additionally
    forwards to its n-2 non-predecessor neighbours, so each non-source node
    receives 1 + (n-2) copies (all duplicates dropped) and the source
    receives 0 extra (every node's predecessor is the source itself, and
    flooding skips the predecessor).
    """
    if not 0 <= source < num_nodes:
        raise IndexError(f"source {source} out of range [0, {num_nodes})")
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    n = num_nodes
    depth = np.ones(n, dtype=np.int64)
    depth[source] = 0
    pred = np.full(n, source, dtype=np.int64)
    pred[source] = -1
    transmissions = np.zeros(n, dtype=np.float64)
    receipts = np.zeros(n, dtype=np.float64)
    if n > 1:
        transmissions[source] = n - 1
        receipts[:] = 1.0
        receipts[source] = 0.0
        if ttl >= 2 and n > 2:
            # Depth-1 nodes forward to everyone but the source.
            non_source = np.arange(n) != source
            transmissions[non_source] = n - 2
            receipts[non_source] += n - 2
    return QueryPropagation(
        source=source,
        ttl=ttl,
        depth=depth,
        pred=pred,
        transmissions=transmissions,
        receipts=receipts,
    )
