"""Counters, gauges, timers and histograms for the reproduction's hot paths.

The load engine, the simulator and the search protocols are instrumented
with *observations only*: an instrument never touches an RNG stream,
never branches on a measured value, and never feeds anything back into
the computation, so enabling metrics cannot perturb a single number the
reproduction produces (``tests/test_obs.py`` holds that contract as the
instrumentation-neutrality test).

Two registry flavours make the layer pay-for-what-you-use:

* :class:`MetricsRegistry` — a thread-safe bag of named instruments with
  a deterministic, associative :meth:`~MetricsRegistry.merge` (counter
  values and timer/histogram tallies add; a gauge keeps the last value
  set).  ``snapshot()`` returns plain nested dicts, JSON-ready.
* :class:`NullRegistry` — every instrument it hands out is an inert
  singleton whose methods are no-ops, so instrumented code costs one
  attribute lookup and a no-op call when metrics are disabled.

A process-wide default registry (initially the null registry) is what
the instrumented modules consult via :func:`get_registry`; enable
collection for a block of code with :func:`use_registry` or globally
with :func:`enable_metrics` / :func:`set_registry`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

import numpy as np


class _Picklable:
    """Pickle support for slotted instruments holding a non-picklable lock.

    Sweep workers (``repro.api.run_sweep``) ship whole registries back to
    the parent process, so every instrument serializes its slots minus
    the lock and rebuilds a fresh lock on load.
    """

    __slots__ = ()

    def __getstate__(self) -> dict:
        state = {}
        for cls in type(self).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if slot != "_lock":
                    state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._lock = threading.Lock()


class Counter(_Picklable):
    """A monotonically accumulating named value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Picklable):
    """A last-value-wins instantaneous measurement."""

    __slots__ = ("name", "_value", "_set", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._set = False
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._set = True

    @property
    def value(self) -> float:
        return self._value

    @property
    def was_set(self) -> bool:
        return self._set


class Timer(_Picklable):
    """Accumulated wall-clock spent in a named phase.

    ``time()`` is the hot-path entry point: a context manager around the
    measured block.  Totals add under merge, so per-phase time survives
    aggregation across trials and processes.
    """

    __slots__ = ("name", "count", "total_seconds", "max_seconds", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total_seconds += seconds
            if seconds > self.max_seconds:
                self.max_seconds = seconds

    @contextmanager
    def time(self) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.record(perf_counter() - start)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


#: Histogram bucket resolution: buckets per power of two.  8 sub-buckets
#: give ~9% relative quantile error, plenty for load distributions.
_BUCKETS_PER_OCTAVE = 8


#: Added to the (possibly negative) log index so every finite magnitude
#: maps to a positive integer; must exceed 8 * |log2(min subnormal)|.
_INDEX_OFFSET = 16_384


def _bucket_of(value: float) -> int:
    """Deterministic log-scale bucket index, order-preserving over floats.

    The index carries the sign of the value and grows monotonically with
    it (0 is reserved for zero/non-finite), so sorting bucket indices
    sorts the underlying values — which is what quantile estimation
    walks.
    """
    magnitude = abs(value)
    if magnitude == 0.0 or not math.isfinite(magnitude):
        return 0
    exp = int(math.floor(math.log2(magnitude) * _BUCKETS_PER_OCTAVE))
    index = exp + _INDEX_OFFSET
    return index if value > 0 else -index


def _bucket_midpoint(index: int) -> float:
    """Geometric midpoint of a bucket (inverse of :func:`_bucket_of`)."""
    if index == 0:
        return 0.0
    exp = abs(index) - _INDEX_OFFSET
    try:
        magnitude = 2.0 ** ((exp + 0.5) / _BUCKETS_PER_OCTAVE)
    except OverflowError:  # top bucket; quantile() clamps to observed max
        magnitude = math.inf
    return magnitude if index > 0 else -magnitude


class Histogram(_Picklable):
    """A log-bucketed value distribution with exact count/sum/min/max.

    Buckets are deterministic functions of the value, so merging two
    histograms (adding bucket counts) is exact, associative and
    commutative — no sampling, no drift.  Quantiles are estimated at
    bucket midpoints (<= ~9% relative error).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        bucket = _bucket_of(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    def observe_many(self, values) -> None:
        """Record every value in order; same state as ``observe`` on each."""
        values = np.asarray(values, dtype=float).ravel()
        # One bucket lookup per distinct value, taken in first-occurrence
        # order so new buckets enter the dict where the loop would put them.
        uniq, first, counts = np.unique(values, return_index=True, return_counts=True)
        order = np.argsort(first)
        # NaN never becomes min or max; argmin/argmax keep the first of
        # equal candidates (signed zeros), as observe's strict < and > do.
        comparable = values[~np.isnan(values)]
        with self._lock:
            self.count += int(values.size)
            # A strict left fold, bit-identical to repeated +=; float +=
            # overflows to inf and inf - inf is nan without a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                folded = np.add.accumulate(np.concatenate(([self.total], values)))
            self.total = float(folded[-1])
            if comparable.size:
                low = float(comparable[comparable.argmin()])
                high = float(comparable[comparable.argmax()])
                if low < self.min:
                    self.min = low
                if high > self.max:
                    self.max = high
            for value, n in zip(uniq[order].tolist(), counts[order].tolist()):
                bucket = _bucket_of(value)
                self._buckets[bucket] = self._buckets.get(bucket, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (bucket midpoint; exact at min/max)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                mid = _bucket_midpoint(index)
                return min(max(mid, self.min), self.max)
        return self.max

    def bucket_counts(self) -> dict[int, int]:
        return dict(self._buckets)


class MetricsRegistry:
    """A thread-safe bag of named instruments.

    Instruments are created lazily on first access and are stable: two
    calls to ``counter("x")`` return the same object, so hot paths can
    resolve their instruments once up front.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}

    # --- instrument access -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get(self._timers, name, Timer)

    def histogram(self, name: str) -> Histogram:
        return self._get(self._histograms, name, Histogram)

    def _get(self, table: dict, name: str, factory):
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    instrument = table[name] = factory(name)
        return instrument

    # --- pickling (sweep workers ship registries across processes) -------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # --- aggregation -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain nested dicts of every instrument's current state."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            timers = dict(self._timers)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {
                name: g.value for name, g in sorted(gauges.items()) if g.was_set
            },
            "timers": {
                name: {
                    "count": t.count,
                    "total_seconds": t.total_seconds,
                    "mean_seconds": t.mean_seconds,
                    "max_seconds": t.max_seconds,
                }
                for name, t in sorted(timers.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "mean": h.mean,
                    "min": h.min if h.count else 0.0,
                    "max": h.max if h.count else 0.0,
                    "p50": h.quantile(0.5),
                    "p95": h.quantile(0.95),
                }
                for name, h in sorted(histograms.items())
            },
        }

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry combining both operands (neither is mutated).

        Counter values, timer tallies and histogram buckets add; a gauge
        keeps ``other``'s value when ``other`` ever set it, else ours —
        all associative, so folding any number of per-trial registries
        gives the same totals in any grouping.
        """
        merged = MetricsRegistry()
        for source in (self, other):
            for name, c in source._counters.items():
                merged.counter(name).add(c.value)
            for name, t in source._timers.items():
                target = merged.timer(name)
                target.count += t.count
                target.total_seconds += t.total_seconds
                target.max_seconds = max(target.max_seconds, t.max_seconds)
            for name, h in source._histograms.items():
                target = merged.histogram(name)
                target.count += h.count
                target.total += h.total
                target.min = min(target.min, h.min)
                target.max = max(target.max, h.max)
                for index, n in h._buckets.items():
                    target._buckets[index] = target._buckets.get(index, 0) + n
            for name, g in source._gauges.items():
                if g.was_set:
                    merged.gauge(name).set(g.value)
        return merged

    def absorb(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s instruments into this registry in place.

        The mutating companion of :meth:`merge`, for call sites that hold
        a long-lived registry (e.g. the CLI's ``--metrics`` collector)
        and want to accumulate the merged fragments a sweep returns.
        Returns ``self`` for chaining; ``other`` is never mutated.
        """
        for name, c in other._counters.items():
            self.counter(name).add(c.value)
        for name, t in other._timers.items():
            target = self.timer(name)
            with target._lock:
                target.count += t.count
                target.total_seconds += t.total_seconds
                target.max_seconds = max(target.max_seconds, t.max_seconds)
        for name, h in other._histograms.items():
            target = self.histogram(name)
            with target._lock:
                target.count += h.count
                target.total += h.total
                target.min = min(target.min, h.min)
                target.max = max(target.max, h.max)
                for index, n in h._buckets.items():
                    target._buckets[index] = target._buckets.get(index, 0) + n
        for name, g in other._gauges.items():
            if g.was_set:
                self.gauge(name).set(g.value)
        return self

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._histograms.clear()


@contextmanager
def _null_context() -> Iterator[None]:
    yield


class _NullCounter(Counter):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def add(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def set(self, value: float) -> None:
        pass


class _NullTimer(Timer):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def record(self, seconds: float) -> None:
        pass

    def time(self):
        return _null_context()


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is an inert singleton."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter()
        self._gauge = _NullGauge()
        self._timer = _NullTimer()
        self._histogram = _NullHistogram()

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def timer(self, name: str) -> Timer:
        return self._timer

    def histogram(self, name: str) -> Histogram:
        return self._histogram

    def merge(self, other: MetricsRegistry) -> MetricsRegistry:
        # Null is the merge identity: the result carries other's data.
        return MetricsRegistry().merge(other)


#: The process-wide inert registry (also the default).
NULL_REGISTRY = NullRegistry()

_default_registry: MetricsRegistry = NULL_REGISTRY
_default_lock = threading.Lock()
# Per-thread override stack: use_registry scopes its registry to the
# *calling thread* so concurrent campaign tasks (ThreadExecutor lanes)
# each collect into their own registry with exact attribution, while
# single-threaded code sees the historical process-global semantics
# (the override simply shadows the global for that one thread).
_thread_override = threading.local()


def get_registry() -> MetricsRegistry:
    """The registry instrumented code reports to.

    The calling thread's :func:`use_registry` scope wins when one is
    active; otherwise the process-wide default (:func:`set_registry`).
    """
    stack = getattr(_thread_override, "stack", None)
    if stack:
        return stack[-1]
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


def enable_metrics() -> MetricsRegistry:
    """Install (and return) a fresh collecting registry as the default."""
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


def disable_metrics() -> None:
    """Restore the inert default registry."""
    set_registry(NULL_REGISTRY)


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as this thread's default for a ``with`` block.

    Thread-scoped on purpose: concurrent campaign tasks on a thread pool
    each wrap their evaluation in ``use_registry`` and must not see (or
    restore over) one another's registries.  For single-threaded callers
    the behavior is indistinguishable from the historical process-global
    swap.
    """
    stack = getattr(_thread_override, "stack", None)
    if stack is None:
        stack = _thread_override.stack = []
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()
