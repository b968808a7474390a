"""Discrete-event engine tests."""

import numpy as np
import pytest

from repro.config import Configuration, GraphType
from repro.core.routing import propagate_query
from repro.sim import network
from repro.sim.engine import Simulator
from repro.topology.builder import build_instance


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(1.0, fired.append, 2)
        sim.schedule(1.0, fired.append, 3)
        sim.run()
        assert fired == [1, 2, 3]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_run_until_stops_and_sets_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run_until(5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_max_events_bound(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4
        assert sim.pending == 6

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


class TestHeapCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        # More than half the heap was dead weight: a compaction pass
        # dropped the cancellations seen so far (later ones stay lazy).
        assert sim.compactions >= 1
        assert len(sim._heap) < 100
        assert sim.pending == 50
        sim.run()
        assert sim.events_processed == 50

    def test_small_heaps_are_not_compacted(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        assert sim.compactions == 0
        assert sim.pending == 0
        sim.run()
        assert sim.events_processed == 0

    def test_pending_tracks_lazy_cancellations(self):
        sim = Simulator()
        keep = sim.schedule(5.0, lambda: None)
        dropped = sim.schedule(1.0, lambda: None)
        dropped.cancel()
        # The cancelled entry may still sit in the heap; pending must not
        # count it.
        assert sim.pending == 1
        sim.run()
        assert sim.events_processed == 1
        assert not keep.cancelled

    def test_cancel_after_fire_is_a_safe_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert fired == ["x"]
        handle.cancel()
        assert not handle.cancelled
        # The stale cancel must not corrupt the pending accounting.
        assert sim.pending == 0
        sim.schedule(3.0, lambda: None)
        assert sim.pending == 1

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for handle in handles[:40]:
            handle.cancel()
            handle.cancel()
        assert sim.pending == 60
        sim.run()
        assert sim.events_processed == 60

    def test_interleaved_cancel_and_fire(self):
        sim = Simulator()
        fired = []
        handles = {}

        def fire_and_cancel(i):
            fired.append(i)
            nxt = i + 10
            if nxt in handles:
                handles[nxt].cancel()

        for i in range(100):
            handles[i] = sim.schedule(float(i + 1), fire_and_cancel, i)
        sim.run()
        # Events 0..9 fire and cancel 10..19; 20..29 then fire (their
        # cancellers never ran), cancelling 30..39, and so on.
        assert fired == [
            i for i in range(100) if (i // 10) % 2 == 0
        ]
        assert sim.pending == 0


class TestFaultFreeFloodMemo:
    """The event engine floods each fault-free source once per run, and
    reusing those floods changes nothing."""

    LOADS = ("superpeer_incoming_bps", "superpeer_outgoing_bps",
             "superpeer_processing_hz", "client_incoming_bps",
             "client_outgoing_bps", "client_processing_hz")

    def _run(self, monkeypatch, instance, memo_cells):
        sources = []

        def counting(graph, source, ttl):
            sources.append(source)
            return propagate_query(graph, source, ttl)

        monkeypatch.setattr(network, "propagate_query", counting)
        monkeypatch.setattr(network, "_FLOOD_MEMO_CELLS", memo_cells)
        report = network.simulate_instance(instance, duration=150.0, rng=3)
        return report, sources

    @pytest.mark.parametrize("config", [
        Configuration(graph_size=200, cluster_size=10),
        Configuration(graph_type=GraphType.STRONG, graph_size=200,
                      cluster_size=10, ttl=1),
        Configuration(graph_size=30, cluster_size=30),
    ], ids=["power-law", "complete", "one-cluster"])
    def test_memo_is_bit_identical(self, monkeypatch, config):
        instance = build_instance(config, seed=2)
        memo, memo_sources = self._run(monkeypatch, instance,
                                       network._FLOOD_MEMO_CELLS)
        plain, plain_sources = self._run(monkeypatch, instance, 0)
        assert memo.to_dict() == plain.to_dict()
        for name in self.LOADS:
            assert (getattr(memo, name).tobytes()
                    == getattr(plain, name).tobytes()), name
        assert len(plain_sources) == plain.num_queries
        assert sorted(memo_sources) == sorted(set(plain_sources))
        assert len(memo_sources) < len(plain_sources)
