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

:func:`flood_block` is the one flood kernel: it runs a block of sources at
once, and every caller — the mean-value analysis (``core.load``), both
simulators, the fault layer's lossy floods (through its ``deliver`` hook),
EPL measurement and the search protocols — goes through it.  Fault-free,
it subtracts the back edges to predecessors once per block, not per edge.
:func:`fold_to_sources` is the one reverse-path accumulator, charging
Response forwarding costs on every node along each responder's path back
to the source (optionally severed per hop).

:class:`QueryPropagation` is one row of a :class:`FloodBlock`;
:func:`propagate_query` is the one-source call (with optional dead
relays) the event engine makes per query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.strong import CompleteGraph

#: Sources per :func:`flood_block` call in both engines: large enough to
#: amortize numpy call overhead, small enough that the (3, block, nodes)
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

    @classmethod
    def empty(cls, n: int, source: int, ttl: int) -> "QueryPropagation":
        """The flood of a dead source: nothing is reached, nothing is sent."""
        unreached = np.full(n, -1, dtype=np.int64)
        return cls(source=source, ttl=ttl, depth=unreached,
                   pred=unreached.copy(), transmissions=np.zeros(n),
                   receipts=np.zeros(n))

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
        return fold_to_sources(
            self.depth[np.newaxis], self.pred[np.newaxis],
            weights[np.newaxis, np.newaxis],
        )[0, 0]

    def response_path_lengths(self) -> np.ndarray:
        """Hop count of each reached node's response path (its BFS depth)."""
        return self.depth[self.reached]


@dataclass(frozen=True)
class FloodBlock:
    """A block of BFS floods over one overlay, one row per source.

    Each row is independent of the others: the flood from ``sources[i]``
    with first-sender predecessors (the minimum-id frontier neighbor —
    frontiers are ascending, so "first writer" is "lowest sender") and
    per-node transmissions and receipts.
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
        """Row ``i`` as a one-source :class:`QueryPropagation` (views)."""
        return QueryPropagation(
            source=int(self.sources[i]), ttl=self.ttl,
            depth=self.depth[i], pred=self.pred[i],
            transmissions=self.transmissions[i], receipts=self.receipts[i],
        )


def flood_block(graph, sources, ttl: int, deliver=None) -> FloodBlock:
    """Batched BFS floods from ``sources``, one :class:`FloodBlock` row each.

    Frontier-sparse: the block's frontier is a sorted array of flat keys
    ``row * n + node``, and each hop gathers from the CSR only the
    out-edges of those ``(row, node)`` pairs.  Every gathered edge is one
    receipt at its head, the edge back to the sender's predecessor too:
    that head is already reached, so it never joins the next depth.  Once
    per block, each non-source forwarder's one back edge (the overlay is
    simple) is subtracted from its predecessor's receipts; all counts are
    integer-valued floats, so this is exact.  Heads not yet reached in
    their row join the next depth, and their predecessor is the minimum-id
    sender among the edges reaching them — the first writer, since
    frontiers are ascending.

    ``deliver(senders, heads) -> bool mask``, when given, is called once
    per hop on that hop's non-back edges (frontier-ascending, CSR order)
    and decides which of them arrive: receipts and new frontier nodes
    count only delivered edges, while every forwarder still pays its
    ``deg - 1`` transmissions (``deg`` at the source; exact because the
    overlay is simple, so one out-edge leads back to the predecessor).
    It models dead relays and per-hop loss.  Without it, K_n takes the
    closed form.
    """
    n = graph.num_nodes
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise IndexError(f"sources out of range [0, {n})")
    if isinstance(graph, CompleteGraph):
        if deliver is None:
            return _complete_block(n, sources, ttl)
        graph = graph.materialize()
    b = sources.size
    rows = np.arange(b, dtype=np.int64)
    indptr = graph.indptr
    degrees = indptr[1:] - indptr[:-1]

    depth = np.full(b * n, -1, dtype=np.int64)
    pred = depth.copy()
    receipts = np.zeros(b * n)
    frontier = rows * n + sources  # ascending: one key per row
    depth[frontier] = 0
    for d in range(ttl):
        # One row: keys are node ids, so no row arithmetic is needed.
        nodes = frontier if b == 1 else frontier % n
        counts = degrees[nodes]
        ends = counts.cumsum()
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            break
        # The frontier's CSR slices, consecutively.  (Array methods, not
        # np.* wrappers: per-call overhead dominates one-row floods.)
        heads = graph.indices[np.arange(total, dtype=np.int64)
                              + (indptr[nodes] - ends + counts).repeat(counts)]
        keys = heads if b == 1 else (frontier - nodes).repeat(counts) + heads
        senders = nodes.repeat(counts)
        if deliver is not None:
            # Every frontier node forwards (d < ttl) to all but its sender.
            live = (heads != pred[frontier].repeat(counts)).nonzero()[0]
            live = live[deliver(senders[live], heads[live])]
            keys, senders = keys[live], senders[live]
        np.add.at(receipts, keys, 1.0)
        # A back edge lands on a reached node, so it is never fresh.
        fresh = (depth[keys] == -1).nonzero()[0]
        if fresh.size == 0:
            break
        keys, senders = keys[fresh], senders[fresh]
        depth[keys] = d + 1
        pred[keys] = n  # above every node id, so the minimum is a sender
        np.minimum.at(pred, keys, senders)
        frontier = (depth == d + 1).nonzero()[0]
    if deliver is None:
        # Receipts above include each non-source forwarder's back edge to
        # its predecessor: take those out, one per forwarder.
        back = ((depth > 0) & (depth < ttl)).nonzero()[0]
        np.add.at(receipts, back - back % n + pred[back], -1.0)
    depth = depth.reshape(b, n)
    pred = pred.reshape(b, n)

    forwarder = (depth >= 0) & (depth < ttl)
    transmissions = np.where(forwarder, degrees[np.newaxis, :] - 1.0, 0.0)
    transmissions[rows, sources] = degrees[sources]
    return FloodBlock(
        sources=sources, ttl=int(ttl), depth=depth, pred=pred,
        transmissions=transmissions, receipts=receipts.reshape(b, n),
    )


def _complete_block(n: int, sources, ttl: int) -> FloodBlock:
    """Closed-form :class:`FloodBlock` on K_n (no adjacency needed).

    With TTL = 1 the source sends n-1 queries and every other node
    receives exactly one.  With TTL >= 2, every non-source node also
    forwards to its n-2 non-predecessor neighbours, so each receives
    1 + (n-2) copies (all duplicates dropped) and the source receives no
    more (every node's predecessor is the source itself).
    """
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
                    weights: np.ndarray,
                    edge_pass: np.ndarray | None = None) -> np.ndarray:
    """Batched :meth:`QueryPropagation.accumulate_to_source`.

    ``depth`` and ``pred`` are a :class:`FloodBlock`'s ``(b, n)`` arrays;
    ``weights`` is channel-major ``(c, b, n)`` — ``c`` response channels
    per node, zero at unreached nodes.  Returns the ``(c, b, n)``
    predecessor-subtree sums: levels fold bottom-up, each row into its own
    predecessors, one ``add.at`` per level and channel.

    ``edge_pass`` (optional ``(b, n)`` bool) severs the hop from each
    False node to its predecessor: the node still *sends* its subtree sum
    (it is in the result) but nothing of it arrives above.  What a node
    receives from its children is then its result minus its own weight.
    """
    b, n = depth.shape
    # A flat copy per channel, so each folds with the 1-D ``add.at`` path
    # and the caller's weights are never written.
    forwarded = weights.reshape(weights.shape[0], b * n).copy()
    flat_pred = (pred + np.arange(b)[:, np.newaxis] * n).reshape(-1)
    flat_depth = depth.reshape(-1)
    if edge_pass is not None:
        flat_depth = np.where(edge_pass.reshape(-1), flat_depth, -1)
    for d in range(int(depth.max(initial=0)), 0, -1):
        level = (flat_depth == d).nonzero()[0]
        parents = flat_pred[level]
        for channel in forwarded:
            np.add.at(channel, parents, channel[level])
    return forwarded.reshape(weights.shape)


def propagate_query(
    graph, source: int, ttl: int, blocked: np.ndarray | None = None
) -> QueryPropagation:
    """Breadth-first flood of a query from ``source``: a one-row
    :func:`flood_block`.

    ``blocked`` (optional boolean mask, one entry per node) marks dead
    relays: a blocked node never receives, processes, or forwards the
    query, so floods are truncated around it.  Messages *to* a blocked
    node are still transmitted (the sender cannot know the target is
    down) but are never received.  A blocked source yields an empty
    propagation (nothing is reached, nothing is sent).
    """
    n = graph.num_nodes
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    deliver = None
    if blocked is not None:
        blocked = np.asarray(blocked, dtype=bool)
        if blocked.shape != (n,):
            raise ValueError("blocked must have one entry per node")
        if blocked[source]:
            return QueryPropagation.empty(n, source, ttl)

        def deliver(senders, heads):
            return ~blocked[heads]
    return flood_block(graph, [source], ttl, deliver).row(0)
