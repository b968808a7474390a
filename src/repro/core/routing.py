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
EPL measurement and the search protocols — goes through it.  It keeps the
BFS tree (depths, predecessors and the per-hop frontiers as ``levels``);
fault-free, per-node transmissions and receipts are derived from that
tree only when a caller reads them.  :func:`fold_to_sources` is the one
reverse-path accumulator, charging Response forwarding costs on every
node along each responder's path back to the source (optionally severed
per hop), one level at a time.

:class:`QueryPropagation` is one row of a :class:`FloodBlock`;
:func:`propagate_query` is the one-source call (with optional dead
relays) the event engine makes per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..topology.strong import CompleteGraph

#: Sources per :func:`flood_block` call in both engines: large enough to
#: amortize numpy call overhead, small enough that the one (3, block,
#: nodes) Response buffer a block is charged with stays cache- and
#: memory-friendly at 50k-node scale.
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
    #: Reached node ids by BFS depth, ascending, one array per depth
    #: (read off ``depth`` when not given).
    levels: tuple = field(default=None, repr=False, compare=False)
    #: Reached node ids other than the source, ascending: one reverse-path
    #: hop each (read once here for the response edges and gossip).
    others: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.levels is None:
            object.__setattr__(self, "levels", _depth_levels(self.depth))
        nodes = np.nonzero(self.depth >= 0)[0]
        object.__setattr__(self, "others", nodes[nodes != self.source])

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
            self.levels, self.pred[np.newaxis],
            weights[np.newaxis, np.newaxis].copy(),
        )[0, 0]


@dataclass(frozen=True)
class FloodBlock:
    """A block of BFS floods over one overlay, one row per source.

    Each row is independent of the others: the flood from ``sources[i]``
    with first-sender predecessors (the minimum-id frontier neighbor —
    frontiers are ascending, so "first writer" is "lowest sender").
    ``levels[d]`` holds the flat keys ``row * n + node`` of every node at
    depth ``d``, ascending: the kernel's hop-``d`` frontier.

    ``transmissions`` and ``receipts`` are read off the tree each time a
    caller asks for them.  A forwarder (``depth < ttl``) sends ``deg - 1``
    copies, ``deg`` at the source; a node receives one copy from each
    forwarding neighbour except its forwarding children, which do not
    send back to it.  A ``deliver``-hooked flood counts its receipts per
    delivered edge instead (``delivered``), and K_n takes its closed form.
    """

    sources: np.ndarray        # (b,)
    ttl: int
    depth: np.ndarray          # (b, n) BFS depth; -1 if not reached
    pred: np.ndarray           # (b, n) first-sender predecessor; -1 at source/unreached
    levels: tuple              # per depth 0..max, ascending flat keys row*n+node
    degrees: np.ndarray        # (n,) overlay degrees
    graph: object = field(repr=False)  # the overlay flooded
    delivered: np.ndarray | None = field(default=None, repr=False)  # (b, n) counted receipts

    @property
    def reached(self) -> np.ndarray:
        return self.depth >= 0

    def reach(self) -> np.ndarray:
        """Clusters reached per source (the paper's *reach*), (b,)."""
        return np.count_nonzero(self.reached, axis=1)

    @property
    def transmissions(self) -> np.ndarray:
        """(b, n) query messages sent by each node."""
        forwarder = self.reached & (self.depth < self.ttl)
        transmissions = np.where(forwarder, self.degrees - 1.0, 0.0)
        transmissions[np.arange(self.sources.size), self.sources] = \
            self.degrees[self.sources]
        return transmissions

    @property
    def receipts(self) -> np.ndarray:
        """(b, n) query messages received by each node."""
        if self.delivered is not None:
            return self.delivered
        b, n = self.depth.shape
        if isinstance(self.graph, CompleteGraph):
            return _complete_receipts(b, n, self.sources, self.ttl)
        # Every out-edge of a forwarder (the levels below the TTL, the b
        # sources first) carries a copy, except the one from each
        # non-source forwarder back to its predecessor.
        keys = np.concatenate(self.levels[:self.ttl])
        back = self.pred.reshape(-1)[keys[b:]]
        nodes = keys if b == 1 else keys % n
        counts = self.degrees[nodes]
        heads = _out_heads(self.graph, nodes, counts)
        if b > 1:
            bases = keys - nodes
            heads = heads + bases.repeat(counts)
            back = back + bases[b:]
        received = (np.bincount(heads, minlength=b * n)
                    - np.bincount(back, minlength=b * n))
        return received.astype(float).reshape(b, n)

    def row(self, i: int) -> QueryPropagation:
        """Row ``i`` as a one-source :class:`QueryPropagation`."""
        return QueryPropagation(
            source=int(self.sources[i]), ttl=self.ttl,
            depth=self.depth[i], pred=self.pred[i],
            transmissions=self.transmissions[i], receipts=self.receipts[i],
            # One row's keys are its node ids.
            levels=self.levels if self.sources.size == 1 else None,
        )


def _out_heads(graph, nodes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The CSR out-neighbours of ``nodes`` (``counts`` their degrees),
    each node's slice in turn.  Array methods, not ``np.*`` wrappers:
    per-call overhead dominates one-row floods."""
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    return graph.indices[np.arange(total, dtype=np.int64)
                         + (graph.indptr[nodes] - ends + counts).repeat(counts)]


def _depth_levels(depth: np.ndarray) -> tuple[np.ndarray, ...]:
    """Flat keys of ``depth``'s entries at each depth 0..max, ascending."""
    flat = depth.reshape(-1)
    return tuple([(flat == d).nonzero()[0]
                  for d in range(int(flat.max(initial=0)) + 1)])


def flood_block(graph, sources, ttl: int, deliver=None) -> FloodBlock:
    """Batched BFS floods from ``sources``, one :class:`FloodBlock` row each.

    Frontier-sparse: the block's frontier is a sorted array of flat keys
    ``row * n + node``, and each hop gathers from the CSR only the
    out-edges of those ``(row, node)`` pairs.  Heads not yet reached in
    their row join the next depth, and their predecessor is the minimum-id
    sender among the edges reaching them — the first writer, since
    frontiers are ascending.  The edge back to a sender's predecessor
    lands on a reached node, so it never joins the next depth.  Each
    frontier is kept as the block's ``levels``; fault-free, nothing is
    counted per edge, since sends and receipts follow from the tree.

    ``deliver(senders, heads) -> bool mask``, when given, is called once
    per hop on that hop's non-back edges (frontier-ascending, CSR order)
    and decides which of them arrive: receipts (counted per delivered
    edge) and new frontier nodes count only delivered edges, while every
    forwarder still pays its ``deg - 1`` transmissions (``deg`` at the
    source; exact because the overlay is simple, so one out-edge leads
    back to the predecessor).  It models dead relays and per-hop loss.
    Without it, K_n takes the closed form.
    """
    n = graph.num_nodes
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise IndexError(f"sources out of range [0, {n})")
    if isinstance(graph, CompleteGraph):
        if deliver is None:
            return _complete_block(graph, sources, ttl)
        graph = graph.materialize()
    b = sources.size
    indptr = graph.indptr
    degrees = indptr[1:] - indptr[:-1]

    depth = np.full(b * n, -1, dtype=np.int64)
    pred = depth.copy()
    receipts = None if deliver is None else np.zeros(b * n)
    frontier = np.arange(b, dtype=np.int64) * n + sources  # one key per row
    depth[frontier] = 0
    levels = [frontier]
    for d in range(ttl):
        # One row: keys are node ids, so no row arithmetic is needed.
        nodes = frontier if b == 1 else frontier % n
        counts = degrees[nodes]
        heads = _out_heads(graph, nodes, counts)
        if heads.size == 0:
            break
        keys = heads if b == 1 else (frontier - nodes).repeat(counts) + heads
        senders = nodes.repeat(counts)
        if deliver is not None:
            # Every frontier node forwards (d < ttl) to all but its sender.
            live = (heads != pred[frontier].repeat(counts)).nonzero()[0]
            live = live[deliver(senders[live], heads[live])]
            keys, senders = keys[live], senders[live]
            np.add.at(receipts, keys, 1.0)
        fresh = (depth[keys] == -1).nonzero()[0]
        if fresh.size == 0:
            break
        keys, senders = keys[fresh], senders[fresh]
        depth[keys] = d + 1
        pred[keys] = n  # above every node id, so the minimum is a sender
        np.minimum.at(pred, keys, senders)
        frontier = (depth == d + 1).nonzero()[0]
        levels.append(frontier)
    return FloodBlock(
        sources=sources, ttl=int(ttl), depth=depth.reshape(b, n),
        pred=pred.reshape(b, n), levels=tuple(levels), degrees=degrees,
        graph=graph,
        delivered=None if receipts is None else receipts.reshape(b, n),
    )


def _complete_block(graph: CompleteGraph, sources, ttl: int) -> FloodBlock:
    """Closed-form :class:`FloodBlock` on K_n (no adjacency needed): every
    node but the source sits at depth 1, with the source as predecessor."""
    n = graph.num_nodes
    b = sources.size
    rows = np.arange(b)
    depth = np.ones((b, n), dtype=np.int64)
    depth[rows, sources] = 0
    pred = np.broadcast_to(sources[:, np.newaxis], (b, n)).copy()
    pred[rows, sources] = -1
    return FloodBlock(sources=sources, ttl=int(ttl), depth=depth, pred=pred,
                      levels=_depth_levels(depth), degrees=graph.degrees,
                      graph=graph)


def _complete_receipts(b: int, n: int, sources, ttl: int) -> np.ndarray:
    """Receipts of a K_n block.

    With TTL = 1 the source sends n-1 queries and every other node
    receives exactly one.  With TTL >= 2, every non-source node also
    forwards to its n-2 non-predecessor neighbours, so each receives
    1 + (n-2) copies (all duplicates dropped) and the source receives no
    more (every node's predecessor is the source itself).
    """
    receipts = np.zeros((b, n))
    if n > 1:
        receipts[:] = n - 1.0 if ttl >= 2 and n > 2 else 1.0
        receipts[np.arange(b), sources] = 0.0
    return receipts


def fold_to_sources(levels, pred: np.ndarray, weights: np.ndarray,
                    edge_pass: np.ndarray | None = None) -> np.ndarray:
    """Batched :meth:`QueryPropagation.accumulate_to_source`, in place.

    ``levels`` and ``pred`` are a :class:`FloodBlock`'s per-depth flat
    keys and ``(b, n)`` predecessors; ``weights`` is a C-contiguous,
    channel-major ``(c, b, n)`` array — ``c`` response channels per
    node, zero at unreached nodes.  It is folded into the
    predecessor-subtree sums and returned: deepest level first, each
    level's keys into their own rows' predecessors, one ``add.at`` per
    level and channel.  Only reached keys are read or written.

    ``edge_pass`` (optional ``(b, n)`` bool) severs the hop from each
    False node to its predecessor: the node still *sends* its subtree sum
    (it is in the result) but nothing of it arrives above.  What a node
    receives from its children is then its result minus its own weight.
    """
    if not weights.flags.c_contiguous:
        raise ValueError("weights are folded in place: pass a C-contiguous array")
    b, n = pred.shape
    flat = weights.reshape(weights.shape[0], b * n)
    flat_pred = pred.reshape(-1)
    passes = None if edge_pass is None else edge_pass.reshape(-1)
    for level in levels[:0:-1]:
        if passes is not None:
            level = level[passes[level]]
        parents = flat_pred[level]
        if b > 1:
            parents = parents + (level - level % n)
        for channel in flat:
            np.add.at(channel, parents, channel[level])
    return weights


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
