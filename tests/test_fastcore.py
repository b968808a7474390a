"""Property tests for the one flood kernel every caller shares.

``repro.core.routing.flood_block`` (re-exported by ``repro.sim.fastcore``)
claims to be *bit-identical*, per source, to the scalar reference BFS in
``tests/_oracle.py``.  These tests pin that claim and the kernel's
structural invariants on hypothesis-generated graphs:

* **bit-identity** — every field (depth, pred, transmissions, receipts)
  equals the scalar BFS's, for every source, and for any block of
  sources: shuffled, duplicated, empty, or isolated; with dead relays
  (``propagate_query(blocked=)``, the kernel's ``deliver`` hook) too;
* **K_n dispatch** — the closed form the kernel takes on a
  ``CompleteGraph`` equals the BFS over the materialized graph;
* **batched reverse-path fold** — ``fold_to_sources`` equals the scalar
  level-by-level fold row by row, bit for bit, with and without severed
  hops;
* **block charges** — ``charge_block``, the one flood-charge routine of
  the MVA and the array engine, equals a per-source scalar accounting
  (scalar BFS, scalar fold, the Table 2 cost functions) in both
  Response modes;
* **per-event charges** — each ``network._charge_*`` routine (joins,
  updates, client submit and delivery), called once with index arrays
  as the array engine does, equals one scalar call per element in the
  same order as the event engine does: bit for bit when no node repeats,
  to rounding when nodes repeat;
* **message conservation per hop** — the transmissions sent by depth-d
  forwarders equal the receipts their edges deliver, recomputed
  independently from the raw edge arrays;
* **TTL monotone coupling** — a TTL-1 flood is a prefix of the TTL
  flood: nested reached sets, identical depths/preds on the smaller
  set, monotone message totals;
* **frontier bound** — per-depth frontier sizes partition the reached
  set, so no frontier can exceed the reachable-set size.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import Configuration, GraphType
from repro.core import costs
from repro.core.load import _Accumulator, charge_block
from repro.core.routing import fold_to_sources, propagate_query
from repro.querymodel.distributions import default_query_model
from repro.sim import network
from repro.sim.fastcore import flood_block
from repro.topology.builder import build_instance
from repro.topology.graph import OverlayGraph
from repro.topology.strong import CompleteGraph

from _oracle import scalar_flood, scalar_fold


@st.composite
def _graphs(draw, isolated: int = 0):
    """Small random simple graphs, connected or not (the kernel must not
    assume connectivity), plus ``isolated`` trailing degree-0 nodes."""
    n = draw(st.integers(min_value=2, max_value=24))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True,
                          max_size=min(len(possible), 60)))
    return OverlayGraph.from_edges(n + isolated, edges)


@st.composite
def _source_blocks(draw):
    """A graph with one guaranteed degree-0 node and an arbitrary block
    of sources over it: any order, repeats allowed, possibly empty."""
    graph = draw(_graphs(isolated=1))
    sources = draw(st.lists(
        st.integers(min_value=0, max_value=graph.num_nodes - 1), max_size=40,
    ))
    return graph, np.array(sources, dtype=np.int64)


def _assert_rows_match_scalar(fb, graph, sources, ttl):
    assert fb.depth.shape == (sources.size, graph.num_nodes)
    for i, s in enumerate(sources):
        _assert_same_flood(fb.row(i), scalar_flood(graph, int(s), ttl))


def _assert_same_flood(prop, expected):
    assert np.array_equal(prop.depth, expected.depth)
    assert np.array_equal(prop.pred, expected.pred)
    assert np.array_equal(prop.transmissions, expected.transmissions)
    assert np.array_equal(prop.receipts, expected.receipts)


_TTLS = st.integers(min_value=1, max_value=5)


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(), ttl=_TTLS)
def test_bit_identity_vs_scalar_kernel(graph, ttl):
    """flood_block row i == the scalar BFS from sources[i] on every field."""
    sources = np.arange(graph.num_nodes)
    _assert_rows_match_scalar(flood_block(graph, sources, ttl), graph, sources, ttl)


@settings(max_examples=60, deadline=None)
@given(block=_source_blocks(), ttl=_TTLS)
def test_bit_identity_on_arbitrary_source_blocks(block, ttl):
    """Row order, repeated sources, an empty block and degree-0 sources
    never change a row: the kernel's minimum-sender rule depends only on
    each row's own frontier."""
    graph, sources = block
    for batch in (sources, sources[::-1], np.append(sources, graph.num_nodes - 1)):
        _assert_rows_match_scalar(flood_block(graph, batch, ttl), graph, batch, ttl)


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(isolated=1), ttl=_TTLS, seed=st.integers(0, 2**32 - 1))
def test_blocked_rows_match_scalar_kernel(graph, ttl, seed):
    """propagate_query(blocked=) — a one-row kernel call with
    ``deliver = ~blocked[heads]`` — equals the scalar BFS around the same
    dead relays, from every source; a dead source floods nothing."""
    blocked = np.random.default_rng(seed).random(graph.num_nodes) < 0.3
    for s in range(graph.num_nodes):
        prop = propagate_query(graph, s, ttl, blocked=blocked)
        _assert_same_flood(prop, scalar_flood(graph, s, ttl, blocked=blocked))
        if blocked[s]:
            assert prop.reach == 0 and prop.transmissions.sum() == 0


@settings(max_examples=60, deadline=None)
@given(block=_source_blocks(), ttl=_TTLS, seed=st.integers(0, 2**32 - 1))
def test_batched_fold_matches_scalar_accumulator(block, ttl, seed):
    """fold_to_sources channel c, row i == the scalar fold, and
    accumulate_to_source (its one-channel wrapper) agrees."""
    graph, sources = block
    fb = flood_block(graph, sources, ttl)
    rng = np.random.default_rng(seed)
    weights = rng.random((3,) + fb.depth.shape) * fb.reached
    folded = fold_to_sources(fb.depth, fb.pred, weights)
    assert folded.shape == weights.shape
    for i in range(sources.size):
        prop = fb.row(i)
        for c in range(3):
            sent, _ = scalar_fold(prop, weights[c, i])
            assert np.array_equal(folded[c, i], sent)
            assert np.array_equal(prop.accumulate_to_source(weights[c, i]),
                                  sent)


@settings(max_examples=60, deadline=None)
@given(block=_source_blocks(), ttl=_TTLS, seed=st.integers(0, 2**32 - 1))
def test_masked_fold_matches_scalar_lossy_fold(block, ttl, seed):
    """With ``edge_pass``, severed hops keep their subtree sum at the
    sender; ``received = sent - weights`` is exact for integer weights."""
    graph, sources = block
    fb = flood_block(graph, sources, ttl)
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 5, (3,) + fb.depth.shape) * fb.reached
    edge_pass = rng.random(fb.depth.shape) < 0.7
    folded = fold_to_sources(fb.depth, fb.pred, weights.astype(float), edge_pass)
    for i in range(sources.size):
        for c in range(3):
            sent, received = scalar_fold(fb.row(i), weights[c, i], edge_pass[i])
            assert np.array_equal(folded[c, i], sent)
            assert np.array_equal(folded[c, i] - weights[c, i], received)


def _scalar_charges(graph, sources, ttl, w, origin, m_sp, direct):
    """(q_out, q_in, q_proc) of a block, one source at a time."""
    n = graph.num_nodes
    q_out, q_in, q_proc = np.zeros(n), np.zeros(n), np.zeros(n)
    for s, rate in zip(sources, w):
        prop = scalar_flood(graph, int(s), ttl)
        send_bytes, send_units = costs.send_query(m_sp, prop.transmissions)
        recv_bytes, recv_units = costs.recv_query(m_sp, prop.receipts)
        probe_units = costs.process_query(prop.reached * origin[2], prop.reached)
        q_out += rate * send_bytes
        q_in += rate * recv_bytes
        q_proc += rate * (send_units + recv_units + probe_units)
        out, inc = np.zeros((3, n)), np.zeros((3, n))
        for c in range(3):
            weights = np.where(prop.reached, origin[c], 0.0)
            weights[s] = 0.0
            if direct:
                out[c], inc[c, s] = weights, weights.sum()
            else:
                out[c], inc[c] = scalar_fold(prop, weights)
                out[c, s] = 0.0
        if direct:
            hs_bytes, hs_units = costs.handshake(m_sp, rate * (out[0] + inc[0]))
            q_out += hs_bytes
            q_in += hs_bytes
            q_proc += hs_units
        out_bytes, out_units = costs.send_response(*out, m_sp)
        in_bytes, in_units = costs.recv_response(*inc, m_sp)
        q_out += rate * out_bytes
        q_in += rate * in_bytes
        q_proc += rate * (out_units + in_units)
    return q_out, q_in, q_proc


@settings(max_examples=60, deadline=None)
@given(block=_source_blocks(), ttl=_TTLS, seed=st.integers(0, 2**32 - 1),
       direct=st.booleans())
def test_charge_block_matches_scalar_accounting(block, ttl, seed, direct):
    """charge_block over a block == the per-source scalar accounting of
    query sends, receipts, index probes and Responses, at any rates."""
    graph, sources = block
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    w = rng.random(sources.size) * 10.0
    origin = rng.random((3, n)) * [[1.0], [4.0], [50.0]]
    m_sp = rng.integers(1, 12, n).astype(float)
    acc = _Accumulator(n, 0)
    charge_block(flood_block(graph, sources, ttl), w, origin, m_sp, acc, direct)
    expected = _scalar_charges(graph, sources, ttl, w, origin, m_sp, direct)
    for got, want in zip((acc.q_out, acc.q_in, acc.q_proc), expected):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


_METERS = ("sp_in", "sp_out", "sp_proc", "cl_in", "cl_out", "cl_proc")
_CHARGES = ("submit", "delivery", "client_join", "partner_join",
            "client_update", "partner_update")


@st.composite
def _charge_calls(draw):
    """(instance, routine, per-event argument arrays, trailing shared
    arguments, distinct) over a small random instance.  ``distinct``
    calls touch every client and every cluster at most once; the others
    draw indices with repeats."""
    instance = build_instance(Configuration(
        graph_type=draw(st.sampled_from([GraphType.STRONG, GraphType.POWER_LAW])),
        graph_size=draw(st.integers(min_value=20, max_value=80)),
        cluster_size=draw(st.integers(min_value=3, max_value=10)),
        redundancy=draw(st.booleans()), avg_outdegree=3.1,
    ), seed=draw(st.integers(0, 2**16)))
    name = draw(st.sampled_from(_CHARGES))
    distinct = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = instance.num_clusters
    with_clients = np.nonzero(instance.clients)[0]
    size = draw(st.integers(min_value=1, max_value=30))
    if distinct:
        pool = with_clients if name in ("submit", "delivery", "client_join",
                                         "client_update") else np.arange(n)
        cluster = rng.permutation(pool)[:size]
    else:
        cluster = rng.choice(with_clients, size)
    client = instance.client_ptr[cluster] + rng.integers(
        0, np.maximum(instance.clients[cluster], 1))

    def files():
        return rng.integers(0, 2000, cluster.size)

    partners = int(rng.integers(1, instance.partners + 1))
    kv = rng.integers(1, instance.partners + 1, n).astype(float)
    arrays, shared = {
        "submit": ((cluster, client), (kv,)),
        "delivery": ((cluster, client, *(rng.integers(0, 50, (3, cluster.size))
                                         .astype(float))), (kv,)),
        "client_join": ((cluster, client, files(), files()), (partners,)),
        "partner_join": ((cluster, files(), files()), ()),
        "client_update": ((cluster, client), (partners,)),
        "partner_update": ((cluster,), (partners,)),
    }[name]
    return instance, name, arrays, shared, distinct


@settings(max_examples=80, deadline=None)
@given(call=_charge_calls())
def test_array_charge_equals_scalar_charges(call):
    """One ``_charge_*`` call over index arrays (the array engine) equals
    one scalar call per element in order (the event engine), into fresh
    meters: bit-equal when no node repeats, to rounding otherwise (the
    per-node order of addends differs)."""
    instance, name, arrays, shared, distinct = call
    charge = getattr(network, f"_charge_{name}")
    model = default_query_model()
    batched = network._State(instance, model, np.random.default_rng(0))
    scalar = network._State(instance, model, np.random.default_rng(0))
    charge(batched, *arrays, *shared)
    for i in range(arrays[0].size):
        charge(scalar, *(a[i].item() for a in arrays), *shared)
    for meter in _METERS:
        got, want = getattr(batched, meter), getattr(scalar, meter)
        if distinct:
            assert np.array_equal(got, want), meter
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                       err_msg=meter)


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(), ttl=_TTLS)
def test_message_conservation_per_hop(graph, ttl):
    """Depth-d transmissions equal the receipts their edges deliver.

    Recomputed straight from the directed edge arrays: a forwarder at
    depth d re-sends over every out-edge except the one back to its
    predecessor, and each such copy is received at the head.  Nothing is
    created or lost at any hop, and only reached nodes ever receive.
    """
    sources = np.arange(graph.num_nodes)
    fb = flood_block(graph, sources, ttl)
    tails, heads = graph.directed_edge_arrays()
    for i in range(sources.size):
        depth, pred = fb.depth[i], fb.pred[i]
        reached = depth >= 0
        assert np.all(fb.receipts[i][~reached] == 0)
        forwarder = reached & (depth < ttl)
        live = forwarder[tails] & (pred[tails] != heads)
        max_d = int(depth.max(initial=0))
        sent_by_depth = np.bincount(
            depth[reached], weights=fb.transmissions[i][reached],
            minlength=max_d + 1,
        )
        recv_from_depth = np.bincount(
            depth[tails[live]], minlength=max_d + 1,
        ).astype(float)
        assert np.array_equal(sent_by_depth, recv_from_depth)
        assert fb.transmissions[i].sum() == fb.receipts[i].sum()


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(), ttl=st.integers(min_value=2, max_value=5))
def test_ttl_monotone_coupling(graph, ttl):
    """The TTL-1 flood is a prefix of the TTL flood from every source."""
    sources = np.arange(graph.num_nodes)
    hi = flood_block(graph, sources, ttl)
    lo = flood_block(graph, sources, ttl - 1)
    reach_lo = lo.reached
    # Nested reached sets, identical BFS structure on the common part.
    assert np.all(hi.reached[reach_lo])
    assert np.array_equal(lo.depth[reach_lo], hi.depth[reach_lo])
    assert np.array_equal(lo.pred[reach_lo], hi.pred[reach_lo])
    # More TTL can only add traffic and reach.
    assert np.all(hi.transmissions.sum(axis=1) >= lo.transmissions.sum(axis=1))
    assert np.all(hi.reach() >= lo.reach())


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(), ttl=_TTLS)
def test_frontier_bounded_by_reachable_set(graph, ttl):
    """Per-depth frontiers partition the reached set: each frontier is at
    most the reachable-set size and together they exhaust it exactly."""
    sources = np.arange(graph.num_nodes)
    fb = flood_block(graph, sources, ttl)
    reach = fb.reach()
    for i in range(sources.size):
        depth = fb.depth[i]
        frontier_sizes = np.bincount(depth[depth >= 0])
        assert frontier_sizes.sum() == reach[i]
        assert np.all(frontier_sizes <= reach[i])
        # Depths never exceed the TTL and the source owns depth zero.
        assert depth.max(initial=0) <= ttl
        assert frontier_sizes[0] == 1


def test_complete_block_matches_closed_form():
    """The kernel's K_n closed form equals the BFS over the materialized
    K_n, every field, from every source."""
    for n in (1, 2, 3, 5):
        sources = np.arange(n)
        complete = CompleteGraph(num_nodes=n)
        for ttl in (1, 2, 3):
            _assert_rows_match_scalar(flood_block(complete, sources, ttl),
                                      complete, sources, ttl)
