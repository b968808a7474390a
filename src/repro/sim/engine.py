"""A minimal discrete-event simulation engine.

Priority-queue scheduler with cancellable events and deterministic
tie-breaking (events at equal times fire in scheduling order).  This is
the substrate under ``sim.network`` (message-level P2P simulation),
``sim.churn`` (failure/replacement processes) and ``sim.faults``
(crash/recovery schedules).

Cancelled entries are removed lazily: they stay in the heap until popped
or until more than half of the heap is dead weight, at which point the
heap is compacted in one pass.  Fault-heavy runs cancel many timers
(retry timeouts, recovery watchdogs), so without compaction the heap
would grow unboundedly over long simulations.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable

from ..obs.metrics import get_registry


@dataclass(eq=False, slots=True)
class _Entry:
    """One scheduled call; the heap orders it by its ``(time, seq)`` key."""

    time: float
    callback: Callable[..., Any]
    args: tuple
    cancelled: bool = False
    done: bool = False


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`; cancellable."""

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: _Entry, sim: "Simulator") -> None:
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    def cancel(self) -> None:
        """Cancel the event (no-op if already fired or cancelled)."""
        entry = self._entry
        if entry.cancelled or entry.done:
            return
        entry.cancelled = True
        self._sim._note_cancel()


class RepeatingEvent:
    """Handle for :meth:`Simulator.every`: a self-rescheduling event.

    Each firing schedules the next occurrence, so cancellation must go
    through this wrapper (cancelling a single underlying
    :class:`EventHandle` would only skip one occurrence).
    """

    __slots__ = ("_sim", "_interval", "_callback", "_args", "_handle",
                 "_cancelled")

    def __init__(self, sim: "Simulator", interval: float,
                 callback: Callable[..., Any], args: tuple) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._args = args
        self._handle: EventHandle | None = None
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop the repetition (no-op if already cancelled)."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._callback(*self._args)
        if not self._cancelled:
            self._handle = self._sim.schedule(self._interval, self._fire)


class Simulator:
    """A single-threaded event loop over virtual time."""

    #: Heaps smaller than this are never compacted (not worth the pass).
    COMPACT_MIN = 64

    def __init__(self) -> None:
        # (time, seq, entry): unique seqs make the tuples compare in C.
        self._heap: list[tuple[float, int, _Entry]] = []
        self._seq = itertools.count()
        self._cancelled = 0
        self.now = 0.0
        self.events_processed = 0
        self.compactions = 0
        # Observation-only instruments (inert under the null registry);
        # resolved once here so step() stays free of registry lookups.
        metrics = get_registry()
        self._m_events = metrics.counter("sim.engine.events")
        self._m_compactions = metrics.counter("sim.engine.compactions")
        self._m_run = metrics.timer("sim.engine.run")

    def schedule(self, delay: float, callback: Callable[..., Any], *args) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        entry = _Entry(time, callback, args)
        heapq.heappush(self._heap, (time, next(self._seq), entry))
        return EventHandle(entry, self)

    def every(self, interval: float, callback: Callable[..., Any], *args,
              first: float | None = None) -> RepeatingEvent:
        """Fire ``callback(*args)`` every ``interval`` seconds until cancelled.

        The first occurrence is ``first`` seconds from now (defaults to
        ``interval``).  Used for periodic processes like heartbeat sweeps;
        the returned :class:`RepeatingEvent` cancels the whole series.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        event = RepeatingEvent(self, interval, callback, args)
        delay = interval if first is None else first
        event._handle = self.schedule(delay, event._fire)
        return event

    def _note_cancel(self) -> None:
        """Bookkeeping for one cancellation; compact when >50% dead."""
        self._cancelled += 1
        if (
            len(self._heap) >= self.COMPACT_MIN
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop all cancelled entries and re-heapify the survivors."""
        self._heap = [item for item in self._heap if not item[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1
        self._m_compactions.add()

    def _pop_cancelled(self) -> None:
        """Pop one known-cancelled entry off the heap head."""
        heapq.heappop(self._heap)[2].done = True
        self._cancelled -= 1

    def step(self) -> bool:
        """Fire the next pending event; False if the queue is empty."""
        while self._heap:
            if self._heap[0][2].cancelled:
                self._pop_cancelled()
                continue
            entry = heapq.heappop(self._heap)[2]
            entry.done = True
            self.now = entry.time
            entry.callback(*entry.args)
            self.events_processed += 1
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Fire events up to and including ``end_time``; stop there.

        The clock is advanced to ``end_time`` even if the queue drains
        first, so rate computations over the window are well defined.
        """
        if end_time < self.now:
            raise ValueError("end_time precedes the current time")
        fired_before = self.events_processed
        with self._m_run.time():
            while self._heap:
                time, _, entry = self._heap[0]
                if entry.cancelled:
                    self._pop_cancelled()
                    continue
                if time > end_time:
                    break
                self.step()
            self.now = end_time
        self._m_events.add(self.events_processed - fired_before)

    def run(self, max_events: int | None = None) -> None:
        """Drain the queue (optionally bounded by ``max_events``)."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                return

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return len(self._heap) - self._cancelled
