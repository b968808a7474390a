"""Property-based tests for the gossip view lattice and the flood
piggyback.

The membership view merge must be a join-semilattice operation — that is
the whole correctness argument for "rumors may arrive in any order, any
number of times, over any path, and every view still converges".
Hypothesis drives the packed-entry arrays directly.  It also pins the
two-pass flood piggyback (``GossipDetector.on_flood``) bit for bit to
the level-by-level reference in ``tests/_oracle.py``.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import level_gossip_flood
from repro.core.routing import propagate_query
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import NULL_TRACER
from repro.sim.gossip import (
    _STATE_MASK,
    ALIVE,
    DEAD,
    SUSPECT,
    GossipDetector,
    entry_inc,
    entry_state,
    merge_views,
    pack_entry,
)
from repro.sim.monitor import DetectorSpec
from repro.topology.graph import OverlayGraph

entries = st.builds(
    pack_entry,
    st.integers(min_value=0, max_value=2**40),
    st.sampled_from((ALIVE, SUSPECT, DEAD)),
)


def views(size: int = 8):
    return st.lists(entries, min_size=size, max_size=size).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )


class TestMergeSemilattice:
    @given(views(), views())
    @settings(max_examples=200, deadline=None)
    def test_commutative(self, a, b):
        np.testing.assert_array_equal(merge_views(a, b), merge_views(b, a))

    @given(views())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, a):
        np.testing.assert_array_equal(merge_views(a, a), a)

    @given(views(), views(), views())
    @settings(max_examples=200, deadline=None)
    def test_associative(self, a, b, c):
        np.testing.assert_array_equal(
            merge_views(merge_views(a, b), c),
            merge_views(a, merge_views(b, c)),
        )

    @given(views(), views())
    @settings(max_examples=200, deadline=None)
    def test_incarnation_monotone(self, a, b):
        # Merging never loses incarnation progress: the joined view's
        # incarnations dominate both inputs', and where an input already
        # holds the winning incarnation its claim is never weakened.
        merged = merge_views(a, b)
        assert (entry_inc(merged) >= entry_inc(a)).all()
        assert (entry_inc(merged) >= entry_inc(b)).all()
        for source in (a, b):
            at = (entry_inc(merged) == entry_inc(source))
            assert (entry_state(merged)[at] >= entry_state(source)[at]).all()

    @given(views(), views())
    @settings(max_examples=200, deadline=None)
    def test_fresh_alive_beats_stale_rumors(self, a, b):
        # The refutation rule: an ALIVE claim at a strictly higher
        # incarnation out-versions every SUSPECT/DEAD rumor below it.
        refuted = pack_entry(entry_inc(np.maximum(a, b)) + 1, ALIVE)
        merged = merge_views(merge_views(a, b), refuted)
        assert (entry_state(merged) == ALIVE).all()

    @given(st.lists(views(), min_size=1, max_size=6), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_any_rumor_order_converges(self, rumor_sets, rnd):
        # Fold the same rumor sets in two shuffled orders (with a
        # duplicated delivery thrown in): both folds must converge to
        # the same view — the property piggybacking relies on.
        def fold(sets):
            acc = np.zeros_like(sets[0])
            for s in sets:
                acc = merge_views(acc, s)
            return acc

        once = fold(rumor_sets)
        shuffled = list(rumor_sets) + [rnd.choice(rumor_sets)]
        rnd.shuffle(shuffled)
        np.testing.assert_array_equal(once, fold(shuffled))


@st.composite
def _flood_cases(draw):
    """An overlay (random, or a star whose hub parents every leaf), a
    flood over it, a response-edge mask, and a detector's starting state."""
    n = draw(st.integers(min_value=1, max_value=18))
    if draw(st.booleans()):
        edges = [(0, i) for i in range(1, n)]
    else:
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.lists(st.sampled_from(possible), unique=True,
                              max_size=min(len(possible), 40))) if possible else []
    graph = OverlayGraph.from_edges(n, edges)
    prop = propagate_query(graph, draw(st.integers(0, n - 1)),
                           draw(st.integers(1, 4)))
    edge_pass = draw(st.one_of(
        st.just(np.ones(n, dtype=bool)), st.just(np.zeros(n, dtype=bool)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    ))
    k = draw(st.sampled_from((1, 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    # Half the cases seed views the flood's nodes already agree on (all
    # rows, or only the reached ones), which on_flood charges but does
    # not merge; sparse random views almost never agree.
    views = draw(st.sampled_from(("sparse", "agreed", "sparse", "reached")))
    quiet = views == "sparse" and draw(st.booleans())
    return SimpleNamespace(graph=graph, prop=prop, edge_pass=edge_pass, k=k,
                           seed=seed, quiet=quiet, views=views,
                           charged=draw(st.booleans()))


def _detector(case):
    """A detector on ``case.graph`` with seeded views and meters, under
    its own registry (so its rumor counter is private)."""
    n, k = case.graph.num_nodes, case.k
    rng = np.random.default_rng(case.seed)
    runtime = SimpleNamespace(n=n, k=k, tracer=NULL_TRACER,
                              instance=SimpleNamespace(graph=case.graph))
    state = None
    if case.charged:
        state = SimpleNamespace(sp_in=rng.random(n), sp_out=rng.random(n),
                                sp_proc=rng.random(n))
    registry = MetricsRegistry()
    with use_registry(registry):
        det = GossipDetector(DetectorSpec(mode="gossip"), state, runtime,
                             None, None)
    det._quiet = case.quiet
    # Sparse views: most entries ALIVE at incarnation 0, so digest sizes
    # differ from node to node and merges change some rows, not all.
    packed = pack_entry(rng.integers(0, 4, size=(n, n * k)),
                        rng.integers(0, 3, size=(n, n * k)))
    det.view = np.where(rng.random((n, n * k)) < 0.3, packed, 0)
    if case.views == "agreed":
        det.view[:] = det.view[0]
    elif case.views == "reached":
        det.view[case.prop.reached] = det.view[case.prop.source]
    det._active = np.count_nonzero(det.view & _STATE_MASK, axis=1)
    for name in ("_gos_in", "_gos_out", "_gos_units"):
        setattr(det, name, rng.random(n))
    return det, registry


class TestTwoPassPiggyback:
    """``on_flood`` against the per-level reference, bit for bit."""

    @given(_flood_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_level_by_level_reference(self, case):
        fast, fast_registry = _detector(case)
        ref, ref_registry = _detector(case)
        seeded = fast.view.copy()
        fast.on_flood(case.prop, case.edge_pass)
        level_gossip_flood(ref, case.prop, case.edge_pass)
        if case.views != "sparse":
            assert np.array_equal(fast.view, seeded)
        for name in ("view", "_active", "_gos_in", "_gos_out", "_gos_units"):
            assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes(), name
        if case.charged:
            for name in ("sp_in", "sp_out", "sp_proc"):
                assert (getattr(fast.st, name).tobytes()
                        == getattr(ref.st, name).tobytes()), name
        assert fast.rumors_sent == ref.rumors_sent
        assert (fast_registry.counter("sim.gossip_rumors").value
                == ref_registry.counter("sim.gossip_rumors").value)
