"""Property tests for the one flood kernel every caller shares.

``repro.core.routing.flood_block`` (re-exported by ``repro.sim.fastcore``)
claims to be *bit-identical*, per source, to the scalar reference BFS in
``tests/_oracle.py``.  These tests pin that claim and the kernel's
structural invariants on hypothesis-generated graphs:

* **bit-identity** — every field (depth, pred, transmissions, receipts)
  equals the scalar BFS's, for every source, and for any block of
  sources: shuffled, duplicated, empty, or isolated; with dead relays
  (``propagate_query(blocked=)``, the kernel's ``deliver`` hook) too;
* **receipt paths** — delivering every edge through ``deliver`` equals
  the fault-free path field for field; delivering none reaches only the
  sources;
* **K_n dispatch** — the closed form the kernel takes on a
  ``CompleteGraph`` equals the BFS over the materialized graph;
* **batched reverse-path fold** — ``fold_to_sources`` equals the scalar
  level-by-level fold row by row, bit for bit, with and without severed
  hops;
* **block charges** — ``charge_block``, the one flood-charge routine of
  the MVA and the array engine, equals a per-source scalar accounting
  (scalar BFS, scalar fold, the Table 2 cost functions) in both
  Response modes;
* **tree-derived flows** — a block's ``levels`` are its per-depth key
  sets, its derived per-row sends and receipts equal the scalar BFS's
  per-edge counts, and ``charge_block``'s rate-weighted sends, receipts
  and probes equal the row sums of those per-row flows, on random
  overlays and on K_n;
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
  set, so no frontier can exceed the reachable-set size;
* **one-draw matches** — the event engine's per-query match draw over
  every peer at once (``network._exact_matches``) equals one draw for the
  clients then one for the partners, counts and RNG stream alike;
* **chunked delivery** — the array engine's submit and delivery passes
  give the same report and results histogram, bit for bit, whatever
  their chunk length (one slice included), and their traced memory peak
  stays within a fixed number of query-length arrays;
* **sliced binomial draws** — ``Generator.binomial`` over arrays gives
  the same values and leaves the same stream drawn whole or in
  consecutive slices, the property the sliced delivery draws rely on.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Configuration, GraphType
from repro.core import costs
from repro.core.load import _Accumulator, charge_block
from repro.core.routing import fold_to_sources, propagate_query
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.querymodel.distributions import default_query_model
from repro.sim import fastcore, network
from repro.sim.fastcore import flood_block
from repro.sim.schedule import generate_workload
from repro.topology.builder import build_instance
from repro.topology.graph import OverlayGraph
from repro.topology.strong import CompleteGraph

from _oracle import scalar_flood, scalar_fold, two_draw_matches


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
@given(block=_source_blocks(), ttl=_TTLS)
def test_deliver_hook_extremes_match_the_fault_free_path(block, ttl):
    """Both receipt paths agree: delivering every edge equals the
    fault-free kernel (which counts receipts over all gathered edges and
    takes out the back edges once per block) field for field, and
    delivering none reaches only the sources, which still send to every
    neighbor."""
    graph, sources = block
    fb = flood_block(graph, sources, ttl)
    every = flood_block(graph, sources, ttl,
                        lambda senders, heads: np.ones(heads.size, dtype=bool))
    for name in ("sources", "depth", "pred", "transmissions", "receipts"):
        want, got = getattr(fb, name), getattr(every, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name

    none = flood_block(graph, sources, ttl,
                       lambda senders, heads: np.zeros(heads.size, dtype=bool))
    rows = np.arange(sources.size)
    at_sources = np.zeros((sources.size, graph.num_nodes), dtype=bool)
    at_sources[rows, sources] = True
    assert np.array_equal(none.reached, at_sources)
    assert np.all(none.pred == -1)
    assert np.all(none.receipts == 0.0)
    degrees = np.diff(graph.indptr).astype(float)
    assert np.array_equal(none.transmissions,
                          np.where(at_sources, degrees[sources][:, np.newaxis], 0.0))


@settings(max_examples=60, deadline=None)
@given(block=_source_blocks(), ttl=_TTLS, seed=st.integers(0, 2**32 - 1))
def test_batched_fold_matches_scalar_accumulator(block, ttl, seed):
    """fold_to_sources channel c, row i == the scalar fold, and
    accumulate_to_source (its one-channel wrapper) agrees."""
    graph, sources = block
    fb = flood_block(graph, sources, ttl)
    rng = np.random.default_rng(seed)
    weights = rng.random((3,) + fb.depth.shape) * fb.reached
    folded = fold_to_sources(fb.levels, fb.pred, weights.copy())
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
    folded = fold_to_sources(fb.levels, fb.pred, weights.astype(float), edge_pass)
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


class _FlowTotals:
    """Stands in for the accumulator: keeps the rate-weighted flow totals
    ``charge_block`` prices."""

    def add_flood(self, price, fb, w, totals, flows, at_source,
                  response_flow):
        self.totals = totals


@st.composite
def _weighted_blocks(draw):
    """A random overlay (with an isolated node) or K_n, and a source
    block over it with per-row rates."""
    if draw(st.booleans()):
        graph, sources = draw(_source_blocks())
    else:
        graph = CompleteGraph(num_nodes=draw(st.integers(1, 6)))
        sources = np.array(draw(st.lists(
            st.integers(0, graph.num_nodes - 1), max_size=8)), dtype=np.int64)
    return graph, sources, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(block=_weighted_blocks(), ttl=_TTLS)
def test_tree_derived_flows_match_per_edge_counts(block, ttl):
    """The flows read off the BFS tree equal the per-edge counts.

    ``levels`` are the ascending per-depth key sets; each row's derived
    sends and receipts equal the scalar BFS's (which counts receipts
    edge by edge), dtypes included; and ``charge_block``'s rate-weighted
    sends, receipts and probes equal ``w @`` those per-row flows (to
    rtol 1e-12, and receipts exactly where they are zero).  Blocks
    with a degree-0 source, repeated sources and no sources are checked
    alongside the drawn one.
    """
    graph, sources, seed = block
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    batches = (sources, np.append(sources, n - 1),
               np.concatenate([sources, sources]), sources[:0])
    for batch in batches:
        fb = flood_block(graph, batch, ttl)
        flat = fb.depth.reshape(-1)
        want = [(flat == d).nonzero()[0]
                for d in range(int(flat.max(initial=0)) + 1)]
        assert len(fb.levels) == len(want)
        for got, keys in zip(fb.levels, want):
            assert got.dtype == np.int64 and np.array_equal(got, keys)
        for i, s in enumerate(batch):
            prop, expected = fb.row(i), scalar_flood(graph, int(s), ttl)
            for name in ("transmissions", "receipts"):
                got, ref = getattr(prop, name), getattr(expected, name)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), name

        w = rng.random(batch.size) * 10.0
        origin = rng.random((3, n))
        recorder = _FlowTotals()
        _, _, sends = charge_block(fb, w, origin, np.ones(n), recorder)
        tx, rx, probes = recorder.totals[:3]
        assert sends is tx
        np.testing.assert_allclose(tx, w @ fb.transmissions, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(probes, w @ fb.reached, rtol=1e-12, atol=0.0)
        # A node that receives nothing gets exactly 0.0, and no receipt
        # rate is negative.
        want = w @ fb.receipts
        none = want == 0
        assert np.array_equal(rx[none], want[none]) and (rx >= 0).all()
        np.testing.assert_allclose(rx[~none], want[~none], rtol=1e-12, atol=0.0)


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


_MATCH_INSTANCES = tuple(
    build_instance(Configuration(graph_size=60, cluster_size=6,
                                 redundancy=redundant), seed=3)
    for redundant in (False, True)
)


@st.composite
def _match_cases(draw):
    """An instance with drawn client and partner collections (zeros
    included), a match probability, some re-homed clients and a seed."""
    inst = draw(st.sampled_from(_MATCH_INSTANCES))
    n, k, c = inst.num_clusters, inst.partners, inst.total_clients
    files = st.integers(0, 40)
    inst = dataclasses.replace(
        inst,
        client_files=np.array(draw(st.lists(files, min_size=c, max_size=c)),
                              dtype=np.int64),
        partner_files=np.array(draw(st.lists(files, min_size=n * k,
                                             max_size=n * k)),
                               dtype=np.int64).reshape(n, k))
    moves = draw(st.lists(st.tuples(st.integers(0, c - 1),
                                    st.integers(0, n - 1)), max_size=8))
    return (inst, draw(st.sampled_from((0.0, 1e-6, 0.3, 0.9))), moves,
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(case=_match_cases())
def test_one_draw_matches_equal_the_two_draw_reference(case):
    """``_exact_matches`` draws every peer in one Binomial call, clients
    then partners: the same counts, dtypes and RNG stream as one call per
    peer kind."""
    inst, f_j, moves, seed = case
    state = network._State(inst, SimpleNamespace(f=np.array([f_j])),
                           np.random.default_rng(seed))
    for client, cluster in moves:  # what recovery's re-homing writes
        state.cluster_of_client[client] = cluster
    rng = np.random.default_rng(seed)
    want = two_draw_matches(rng, state.client_files.copy(),
                            state.partner_files.copy(),
                            state.cluster_of_client.copy(), state.n, f_j)
    got = network._exact_matches(state, None, 0, 0)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    assert state.rng.bit_generator.state == rng.bit_generator.state


# --- chunked submit and delivery passes ----------------------------------------


def _array_run(instance, duration):
    registry = MetricsRegistry()
    with use_registry(registry):
        report = network.simulate_instance(instance, duration=duration, rng=5,
                                           engine="array")
    hist = registry.histogram("sim.results_per_query")
    return report, (hist.count, float.hex(hist.total), hist.min, hist.max,
                    list(hist._buckets.items()))


def _report_bits(report):
    return {
        f.name: (value.dtype.str, value.tobytes())
        if isinstance(value := getattr(report, f.name), np.ndarray) else value
        for f in dataclasses.fields(report)
    }


@pytest.mark.parametrize("redundancy", [False, True])
def test_delivery_chunk_length_changes_no_bits(monkeypatch, redundancy):
    instance = build_instance(
        Configuration(graph_size=300, cluster_size=10, redundancy=redundancy),
        seed=2,
    )
    report, hist = _array_run(instance, 1800.0)
    assert report.num_queries > 3000  # several slices of 1000
    # The histogram's exact sum of the results is the run's total.
    assert report.mean_results_per_query == float.fromhex(hist[1]) / report.num_queries
    for chunk in (7, 1000, 1 << 20):  # 1 << 20: one whole-run slice
        monkeypatch.setattr(fastcore, "_QUERY_CHUNK", chunk)
        other, other_hist = _array_run(instance, 1800.0)
        assert _report_bits(other) == _report_bits(report)
        assert other_hist == hist


@st.composite
def _binomial_inputs(draw):
    size = draw(st.integers(0, 300))
    # Small and large counts take different samplers; zeros draw nothing.
    n = draw(st.lists(st.one_of(st.just(0), st.integers(0, 40),
                                st.integers(0, 10**6)),
                      min_size=size, max_size=size))
    p = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    return (np.array(n, dtype=np.int64), np.array(p),
            draw(st.integers(1, size + 1)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(case=_binomial_inputs())
def test_sliced_binomial_draws_equal_one_draw(case):
    """The array engine draws its deliveries a slice at a time into one
    array; that is one whole draw, values and stream alike."""
    n, p, length, seed = case
    whole_rng, sliced_rng = (np.random.default_rng(seed) for _ in range(2))
    whole = whole_rng.binomial(n, p)
    sliced = np.empty(n.size, dtype=np.int64)
    for lo in range(0, n.size, length):
        sliced[lo:lo + length] = sliced_rng.binomial(n[lo:lo + length],
                                                     p[lo:lo + length])
    assert whole.dtype == sliced.dtype
    assert np.array_equal(whole, sliced)
    assert whole_rng.bit_generator.state == sliced_rng.bit_generator.state


#: Traced peak of a fault-free array run, in query-length float arrays.
#: With each phase's temporaries freed when its helper returns and two
#: query-length draws, the two configurations below measure about 4.1
#: and 3.3; keeping every phase's temporaries to the end of the run
#: measured 7.3 and 7.6, and one pass over whole query arrays 23.
MAX_QUERY_ARRAYS = 6

#: (configuration, instance seed, duration, run seed): a 2,000-peer
#: default overlay and the 10,000-peer power law of the benchmark's
#: ``sim_array`` workload.
MEMORY_CASES = {
    "default_2k": (Configuration(graph_size=2000, cluster_size=10), 3,
                   7200.0, 3),
    "power_law_10k": (Configuration(graph_type=GraphType.POWER_LAW,
                                    graph_size=10000, cluster_size=10,
                                    avg_outdegree=3.1, ttl=7), 0, 3600.0, 0),
}


@pytest.mark.parametrize("case", sorted(MEMORY_CASES))
def test_array_run_memory_is_a_few_query_arrays(case):
    config, instance_seed, duration, seed = MEMORY_CASES[case]
    instance = build_instance(config, seed=instance_seed)
    schedule = generate_workload(instance, duration, seed)
    Q = schedule.num_queries
    assert Q >= 4 * fastcore._QUERY_CHUNK
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        network.simulate_instance(instance, duration=duration, rng=seed,
                                  engine="array", schedule=schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < MAX_QUERY_ARRAYS * Q * 8
