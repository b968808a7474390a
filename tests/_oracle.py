"""Scalar reference implementations the flood kernel is checked against.

The library has one flood (``repro.core.routing.flood_block``) and one
reverse-path fold (``repro.core.routing.fold_to_sources``).  These are
the independent, one-source, loop-per-hop formulations they replaced,
kept here so the tests can pin the kernel bit for bit:

* :func:`scalar_flood` — BFS with ``np.unique`` first-writer
  predecessors and receipts recomputed from ``directed_edge_arrays``,
  with optional dead relays (``blocked``);
* :func:`scalar_sampled_flood` — the fault layer's per-hop sampled BFS,
  drawing one uniform per non-back edge in the same order, so the RNG
  stream it leaves behind is part of the contract;
* :func:`scalar_fold` — the level-by-level reverse-path fold with
  separate ``sent`` / ``received`` accumulators and per-hop severing;
* :func:`level_gossip_flood` — the gossip piggyback one tree level at a
  time, charging and merging per level with 2-D ``ufunc.at`` scatters,
  against which :meth:`repro.sim.gossip.GossipDetector.on_flood` (two
  passes per flood) is pinned;
* :func:`two_draw_matches` — the event engine's per-query match draw as
  one Binomial call for the clients, then one for the partners, against
  which ``repro.sim.network._exact_matches`` (one call over every peer)
  is pinned, RNG stream included.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.core import costs
from repro.core.routing import QueryPropagation
from repro.sim.gossip import _STATE_MASK
from repro.topology.strong import CompleteGraph


def _out_edges(graph, nodes):
    counts = graph.indptr[nodes + 1] - graph.indptr[nodes]
    heads = [graph.indices[graph.indptr[v]:graph.indptr[v + 1]] for v in nodes]
    return counts, (np.concatenate(heads) if heads else np.zeros(0, np.int64))


def scalar_flood(graph, source: int, ttl: int, blocked=None) -> QueryPropagation:
    """One BFS flood from ``source``; ``blocked`` nodes neither receive
    nor forward (a blocked source floods nothing)."""
    if isinstance(graph, CompleteGraph):
        graph = graph.materialize()
    n = graph.num_nodes
    depth = np.full(n, -1, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    if blocked is not None and blocked[source]:
        return QueryPropagation(source=source, ttl=ttl, depth=depth, pred=pred,
                                transmissions=np.zeros(n), receipts=np.zeros(n))
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    for d in range(ttl):
        counts, targets = _out_edges(graph, frontier)
        senders = np.repeat(frontier, counts)
        fresh = depth[targets] == -1
        if blocked is not None and targets.size:
            fresh &= ~blocked[targets]
        targets, senders = targets[fresh], senders[fresh]
        if targets.size == 0:
            break
        # First writer wins: the first sender to deliver is the predecessor.
        unique_targets, first_index = np.unique(targets, return_index=True)
        depth[unique_targets] = d + 1
        pred[unique_targets] = senders[first_index]
        frontier = unique_targets

    degrees = graph.degrees
    forwarder = (depth >= 0) & (depth < ttl)
    transmissions = np.zeros(n)
    transmissions[forwarder] = degrees[forwarder] - 1
    if forwarder[source]:
        transmissions[source] = degrees[source]
    # Every edge out of a forwarder delivers a copy, except the one back
    # to the forwarder's own predecessor (and any into a dead relay).
    tails, heads = graph.directed_edge_arrays()
    live = forwarder[tails] & (pred[tails] != heads)
    if blocked is not None:
        live &= ~blocked[heads]
    receipts = np.bincount(heads[live], minlength=n).astype(np.float64)
    return QueryPropagation(source=source, ttl=ttl, depth=depth, pred=pred,
                            transmissions=transmissions, receipts=receipts)


def scalar_sampled_flood(graph, source: int, ttl: int, runtime, now: float):
    """(propagation, attempted, delivered) of one flood under a fault runtime."""
    if isinstance(graph, CompleteGraph):
        graph = graph.materialize()
    n = graph.num_nodes
    alive = runtime.alive_mask()
    rng = runtime.rng
    loss = runtime.plan.message_loss
    slow = runtime.slow_drop
    depth = np.full(n, -1, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    transmissions = np.zeros(n)
    receipts = np.zeros(n)
    attempted = delivered = 0
    if alive[source]:
        depth[source] = 0
        frontier = np.array([source], dtype=np.int64)
        for d in range(ttl):
            counts, targets = _out_edges(graph, frontier)
            senders = np.repeat(frontier, counts)
            if targets.size == 0:
                break
            keep = pred[senders] != targets  # skip the hop back to pred
            senders, targets = senders[keep], targets[keep]
            m = senders.size
            if m == 0:
                break
            np.add.at(transmissions, senders, 1.0)
            attempted += m
            ok = alive[targets]
            cut = runtime.edge_cut(senders, targets, now)
            if cut is not None:
                ok &= ~cut
            if loss > 0.0 or runtime._has_slow:
                ok &= rng.random(m) < (1.0 - loss) * (1.0 - slow[senders])
            delivered += int(np.count_nonzero(ok))
            hit_targets, hit_senders = targets[ok], senders[ok]
            np.add.at(receipts, hit_targets, 1.0)
            fresh = depth[hit_targets] == -1
            hit_targets, hit_senders = hit_targets[fresh], hit_senders[fresh]
            if hit_targets.size == 0:
                break
            unique_targets, first_index = np.unique(hit_targets, return_index=True)
            depth[unique_targets] = d + 1
            pred[unique_targets] = hit_senders[first_index]
            frontier = unique_targets
    prop = QueryPropagation(source=source, ttl=ttl, depth=depth, pred=pred,
                            transmissions=transmissions, receipts=receipts)
    return prop, attempted, delivered


def scalar_fold(prop: QueryPropagation, weights, edge_pass=None):
    """(sent, received) of ``weights`` folded up ``prop``'s predecessor
    tree; hops from nodes with ``edge_pass`` False deliver nothing."""
    n = prop.depth.size
    if edge_pass is None:
        edge_pass = np.ones(n, dtype=bool)
    sent = np.asarray(weights, dtype=float).copy()
    received = np.zeros(n)
    for d in range(prop.max_depth, 0, -1):
        level = np.nonzero(prop.depth == d)[0]
        passing = level[edge_pass[level]]
        if passing.size == 0:
            continue
        preds = prop.pred[passing]
        np.add.at(received, preds, sent[passing])
        np.add.at(sent, preds, sent[passing])
    return sent, received


def level_gossip_flood(detector, prop: QueryPropagation, edge_pass) -> None:
    """Digests down ``prop``'s flood tree and up its surviving response
    edges, one level at a time, on ``detector`` in place."""
    if detector._quiet:
        return
    nodes = np.nonzero(prop.reached)[0]
    nodes = nodes[nodes != prop.source]
    if nodes.size == 0:
        return
    preds = prop.pred[nodes]
    depths = prop.depth[nodes]
    for d in np.unique(depths):
        at = depths == d
        _merge_rows(detector, preds[at], nodes[at])
    passing = edge_pass[nodes]
    for d in np.unique(depths[passing])[::-1]:
        at = passing & (depths == d)
        _merge_rows(detector, nodes[at], preds[at])


def _merge_rows(det, senders, receivers) -> None:
    """One level's digest transfers: charge per edge, merge per row."""
    if senders.size == 0:
        return
    sizes = (constants.GOSSIP_DIGEST_BASE
             + constants.GOSSIP_RUMOR_SIZE * det._active[senders]) / det.k
    send_u = costs.SEND_UPDATE_UNITS / det.k
    recv_u = (costs.RECV_UPDATE_UNITS + costs.PROCESS_UPDATE_UNITS) / det.k
    if det.st is not None:
        np.add.at(det.st.sp_out, senders, sizes)
        np.add.at(det.st.sp_proc, senders, send_u)
        np.add.at(det.st.sp_in, receivers, sizes)
        np.add.at(det.st.sp_proc, receivers, recv_u)
    np.add.at(det._gos_out, senders, sizes)
    np.add.at(det._gos_units, senders, send_u)
    np.add.at(det._gos_in, receivers, sizes)
    np.add.at(det._gos_units, receivers, recv_u)
    np.maximum.at(det.view, receivers, det.view[senders])
    uniq = np.unique(receivers)
    det._active[uniq] = np.count_nonzero(det.view[uniq] & _STATE_MASK, axis=1)
    det.rumors_sent += int(senders.size)
    det._m_rumors.add(float(senders.size))


def two_draw_matches(rng, client_files, partner_files, cluster_of_client,
                     n: int, f_j: float):
    """Per-cluster result and responder counts ``(N_T, K_T)`` of one query:
    each file matches with probability ``f_j``, the clients drawn first
    and the ``(n, k)`` partners second, clients summed by their current
    cluster."""
    client = (rng.binomial(client_files, f_j) if f_j > 0
              else np.zeros_like(client_files))
    partner = (rng.binomial(partner_files, f_j) if f_j > 0
               else np.zeros_like(partner_files))
    client_sum = np.bincount(cluster_of_client, weights=client,
                             minlength=n).astype(np.int64)
    client_hits = np.bincount(cluster_of_client, weights=client > 0,
                              minlength=n).astype(np.int64)
    return (client_sum + partner.sum(axis=1),
            client_hits + (partner > 0).sum(axis=1))
