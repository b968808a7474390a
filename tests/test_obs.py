"""Unit + property tests for the observability layer (``repro.obs``).

Three contracts are held here:

* **Instrument algebra** — counters/timers/histograms accumulate exactly,
  registry merge is associative (so per-trial registries can be folded in
  any grouping), the null registry is both inert and the merge identity.
* **Trace buffer semantics** — the ring keeps the most recent events,
  counts the evicted ones, preserves order, and round-trips JSONL.
* **Instrumentation neutrality** — the load engine and the simulator
  produce bit-identical numbers whether metrics/tracing are enabled or
  not.  Observation only: no RNG draws, no value-dependent branches.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.load import evaluate_instance
from repro.obs.manifest import RunManifest, config_fingerprint, manifest_for
from repro.obs.metrics import (
    _BUCKETS_PER_OCTAVE,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    _bucket_midpoint,
    _bucket_of,
    _buckets_of,
    disable_metrics,
    enable_metrics,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.trace import NULL_TRACER, TraceEvent, Tracer, read_jsonl
from repro.reporting import render_metrics
from repro.sim.faults import FaultOutcome, FaultPlan, RetryPolicy
from repro.sim.network import simulate_instance
from repro.sim.resilience import run_resilience

from conftest import make_instance


# --- instruments ---------------------------------------------------------------


def test_counter_accumulates():
    registry = MetricsRegistry()
    c = registry.counter("x")
    c.add()
    c.add(2.5)
    assert c.value == 3.5
    assert registry.counter("x") is c  # stable identity for hot paths


def test_gauge_last_value_wins():
    g = MetricsRegistry().gauge("g")
    assert not g.was_set
    g.set(1.0)
    g.set(-2.0)
    assert g.value == -2.0
    assert g.was_set


def test_timer_records_and_times():
    t = MetricsRegistry().timer("t")
    t.record(0.5)
    t.record(1.5)
    assert t.count == 2
    assert t.total_seconds == 2.0
    assert t.mean_seconds == 1.0
    assert t.max_seconds == 1.5
    with t.time():
        pass
    assert t.count == 3
    assert t.total_seconds >= 2.0


def test_histogram_exact_stats_and_quantile_endpoints():
    h = MetricsRegistry().histogram("h")
    values = [1.0, 2.0, 4.0, 100.0, 0.25]
    for v in values:
        h.observe(v)
    assert h.count == len(values)
    assert h.total == pytest.approx(sum(values))
    assert h.mean == pytest.approx(sum(values) / len(values))
    assert h.quantile(0.0) == min(values)
    assert h.quantile(1.0) == max(values)
    assert min(values) <= h.quantile(0.5) <= max(values)
    assert sum(h.bucket_counts().values()) == len(values)


def test_histogram_quantile_rejects_out_of_range():
    h = MetricsRegistry().histogram("h")
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        h.quantile(-0.1)


def test_histogram_quantile_empty_is_zero():
    h = MetricsRegistry().histogram("h")
    for q in (0.0, 0.5, 1.0):
        assert h.quantile(q) == 0.0


def test_histogram_quantile_single_observation():
    h = MetricsRegistry().histogram("h")
    h.observe(3.75)
    # With one sample every quantile is that sample, exactly (the min/max
    # endpoints are exact even though interior quantiles are bucketed).
    assert h.quantile(0.0) == 3.75
    assert h.quantile(1.0) == 3.75
    assert h.quantile(0.5) == pytest.approx(3.75, rel=0.1)


@given(st.floats(min_value=1e-9, max_value=1e9, allow_nan=False))
def test_bucket_midpoint_relative_error(value):
    # The log buckets are 2**(1/8) wide; the geometric midpoint is within
    # a factor 2**(1/16) of every value in the bucket.
    mid = _bucket_midpoint(_bucket_of(value))
    bound = 2.0 ** (0.5 / _BUCKETS_PER_OCTAVE)
    assert mid / value <= bound * (1 + 1e-12)
    assert mid / value >= (1 / bound) * (1 - 1e-12)
    # Sign symmetry: negatives land in the mirrored bucket.
    assert _bucket_of(-value) == -_bucket_of(value)


def _histogram_state(h):
    # Bucket order is part of the state: snapshots list buckets in it.
    return (h.count, float.hex(h.total), h.bucket_counts(), list(h.bucket_counts()))


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_observed = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]),
    st.integers(-50, 50).map(float),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_observed, max_size=3), st.lists(_observed, max_size=40),
       st.integers(1, 8))
@example([], [1e16] + [1.0] * 16, 1)  # a pairwise sum would differ
@example([], [0.0, -0.0, math.nan], 1)  # the first zero is min and max
@example([-0.0], [0.0, 2.0, math.nan, -math.inf, math.inf], 2)
@example([], [3.0, math.nan, 1.0, math.nan, 3.0, 0.5, -0.0, 0.0], 3)
def test_observe_many_equals_observe_loop(before, values, chunk):
    loop, batch, chunked = Histogram("loop"), Histogram("batch"), Histogram("chunked")
    for v in before:
        loop.observe(v)
        batch.observe(v)
        chunked.observe(v)
    for v in values:
        loop.observe(v)
    batch.observe_many(np.asarray(values, dtype=float))
    for lo in range(0, len(values), chunk):
        chunked.observe_many(np.asarray(values[lo:lo + chunk], dtype=float))
    assert _histogram_state(batch) == _histogram_state(loop)
    assert _same_float(batch.min, loop.min)
    assert _same_float(batch.max, loop.max)
    # Consecutive calls leave the state of one call, bucket order included.
    assert _histogram_state(chunked) == _histogram_state(batch)
    assert list(chunked._buckets.items()) == list(batch._buckets.items())
    assert _same_float(chunked.min, batch.min)
    assert _same_float(chunked.max, batch.max)


def _bucket_edges() -> list[float]:
    """Magnitudes on and one ulp either side of every bucket edge
    2**(i/8) within six octaves of 1, where a rounding of the log could
    move the floor."""
    edges = []
    for i in range(-6 * _BUCKETS_PER_OCTAVE, 6 * _BUCKETS_PER_OCTAVE + 1):
        edge = 2.0 ** (i / _BUCKETS_PER_OCTAVE)
        edges += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    return edges


_edges = _bucket_edges()


@pytest.mark.parametrize("ulp", [0.0, -math.inf, math.inf])
def test_vector_buckets_equal_scalar_buckets_at_edges(monkeypatch, ulp):
    # A vector log2 one ulp off math.log2 (either way) changes nothing.
    if ulp:
        log2 = np.log2
        monkeypatch.setattr(np, "log2", lambda x: np.nextafter(log2(x), ulp))
    values = np.array(_edges + [-v for v in _edges])
    assert _buckets_of(values).tolist() == [_bucket_of(v) for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_observed, st.sampled_from(_edges),
                          st.sampled_from(_edges).map(lambda v: -v)),
                max_size=40))
def test_vector_buckets_equal_scalar_buckets(values):
    assert _buckets_of(np.asarray(values, dtype=float)).tolist() == \
        [_bucket_of(v) for v in values]


def test_observe_many_empty_and_null_are_noops():
    h = Histogram("h")
    h.observe(2.0)
    state = (_histogram_state(h), h.min, h.max)
    h.observe_many(np.array([]))
    assert (_histogram_state(h), h.min, h.max) == state
    null = NULL_REGISTRY.histogram("h")
    count = null.count
    null.observe_many(np.arange(5.0))
    assert null.count == count


def test_bucket_of_zero_and_nonfinite():
    assert _bucket_of(0.0) == 0
    assert _bucket_of(math.inf) == 0
    assert _bucket_midpoint(0) == 0.0


# --- registry ------------------------------------------------------------------


def test_snapshot_shape_and_unset_gauge_omitted():
    registry = MetricsRegistry()
    registry.counter("c").add(2)
    registry.gauge("set").set(7.0)
    registry.gauge("unset")  # created but never set: must not appear
    registry.timer("t").record(0.25)
    registry.histogram("h").observe(3.0)
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 2.0}
    assert snap["gauges"] == {"set": 7.0}
    assert snap["timers"]["t"]["count"] == 1
    assert snap["timers"]["t"]["total_seconds"] == 0.25
    assert snap["histograms"]["h"]["count"] == 1
    assert snap["histograms"]["h"]["min"] == 3.0


_NAMES = st.sampled_from(["a", "b", "c"])
_AMOUNTS = st.integers(min_value=-1000, max_value=1000).map(float)
_OPS = st.lists(st.tuples(_NAMES, _AMOUNTS), max_size=20)


def _registry_from(ops):
    registry = MetricsRegistry()
    for name, amount in ops:
        registry.counter(name).add(amount)
        registry.histogram(name).observe(amount)
        registry.gauge(name).set(amount)
        registry.timer(name).record(abs(amount))
    return registry


@settings(deadline=None, max_examples=50)
@given(_OPS, _OPS, _OPS)
def test_merge_is_associative(ops_a, ops_b, ops_c):
    # Integer-valued amounts keep float addition exact, so associativity
    # is testable as strict snapshot equality.
    a, b, c = _registry_from(ops_a), _registry_from(ops_b), _registry_from(ops_c)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.snapshot() == right.snapshot()


@settings(deadline=None, max_examples=50)
@given(_OPS, _OPS)
def test_merge_adds_and_does_not_mutate(ops_a, ops_b):
    a, b = _registry_from(ops_a), _registry_from(ops_b)
    before_a, before_b = a.snapshot(), b.snapshot()
    merged = a.merge(b)
    for name in set(before_a["counters"]) | set(before_b["counters"]):
        expected = (before_a["counters"].get(name, 0.0)
                    + before_b["counters"].get(name, 0.0))
        assert merged.counter(name).value == expected
    assert a.snapshot() == before_a
    assert b.snapshot() == before_b


def test_merge_disjoint_instrument_sets():
    # Folding per-trial registries that measured different things must
    # union the instruments, each keeping its own tallies untouched.
    a = MetricsRegistry()
    a.counter("load.evals").add(2)
    a.timer("phase.build").record(0.5)
    b = MetricsRegistry()
    b.counter("sim.queries").add(7)
    b.gauge("sim.live").set(42.0)
    b.histogram("search.reach").observe(9.0)
    merged = a.merge(b)
    snap = merged.snapshot()
    assert snap["counters"] == {"load.evals": 2.0, "sim.queries": 7.0}
    assert snap["gauges"] == {"sim.live": 42.0}
    assert merged.timer("phase.build").total_seconds == 0.5
    assert merged.histogram("search.reach").count == 1
    assert merged.histogram("search.reach").quantile(1.0) == 9.0


def test_null_registry_is_merge_identity():
    registry = MetricsRegistry()
    registry.counter("c").add(3)
    merged = NULL_REGISTRY.merge(registry)
    assert merged.snapshot()["counters"] == {"c": 3.0}
    assert merged is not registry  # a copy: mutating it can't leak back


# --- null registry / process default ------------------------------------------


def test_null_registry_is_inert():
    assert not NULL_REGISTRY.enabled
    c = NULL_REGISTRY.counter("anything")
    c.add(100.0)
    assert c.value == 0.0
    assert NULL_REGISTRY.counter("other") is c  # one singleton per kind
    NULL_REGISTRY.gauge("g").set(5.0)
    NULL_REGISTRY.histogram("h").observe(5.0)
    with NULL_REGISTRY.timer("t").time():
        pass
    snap = NULL_REGISTRY.snapshot()
    assert snap["counters"] == {} and snap["gauges"] == {}


def test_default_registry_management():
    assert get_registry() is NULL_REGISTRY
    registry = MetricsRegistry()
    try:
        previous = set_registry(registry)
        assert previous is NULL_REGISTRY
        assert get_registry() is registry
    finally:
        disable_metrics()
    assert get_registry() is NULL_REGISTRY


def test_use_registry_restores_on_exception():
    registry = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with use_registry(registry):
            assert get_registry() is registry
            raise RuntimeError("boom")
    assert get_registry() is NULL_REGISTRY


def test_enable_metrics_installs_fresh_registry():
    try:
        registry = enable_metrics()
        assert get_registry() is registry
        assert registry.enabled
    finally:
        disable_metrics()


# --- tracer --------------------------------------------------------------------


def test_tracer_ring_is_bounded_and_counts_drops():
    tracer = Tracer(capacity=8)
    for i in range(20):
        tracer.emit("tick", t=float(i), i=i)
    assert len(tracer) == 8
    assert tracer.emitted == 20
    assert tracer.dropped == 12
    # The ring keeps the most recent events, in order.
    kept = [e.fields["i"] for e in tracer.events()]
    assert kept == list(range(12, 20))
    ts = [e.t for e in tracer.events()]
    assert ts == sorted(ts)


def test_tracer_counts_by_kind_and_clear():
    tracer = Tracer(capacity=16)
    tracer.emit("crash", t=1.0)
    tracer.emit("query", t=2.0)
    tracer.emit("query", t=3.0)
    assert tracer.counts_by_kind() == {"crash": 1, "query": 2}
    tracer.clear()
    assert len(tracer) == 0 and tracer.emitted == 0 and tracer.dropped == 0


def test_tracer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_null_tracer_is_inert():
    assert not NULL_TRACER.enabled
    NULL_TRACER.emit("anything", t=1.0, x=1)
    assert len(NULL_TRACER) == 0


def test_trace_jsonl_roundtrip(tmp_path):
    tracer = Tracer(capacity=64)
    tracer.emit("query", t=1.5, source=3, results=7.25)
    tracer.emit("drop", t=2.0, phase="flood", hop=2)
    tracer.emit("crash", t=3.25, cluster=1, partner=0)
    path = tracer.to_jsonl(tmp_path / "trace.jsonl")
    assert read_jsonl(path) == tracer.events()
    # dumps() and the file agree line for line.
    assert path.read_text(encoding="utf-8") == tracer.dumps()
    assert read_jsonl(tracer.dumps().splitlines()) == tracer.events()


_FIELD_VALUES = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)
_FIELDS = st.dictionaries(
    st.text(st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=8).filter(lambda k: k not in ("t", "kind")),
    _FIELD_VALUES,
    max_size=4,
)


@settings(deadline=None, max_examples=50)
@given(st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=12),
       _FIELDS)
def test_trace_event_json_roundtrip(t, kind, fields):
    event = TraceEvent(t=t, kind=kind, fields=fields)
    assert TraceEvent.from_json(event.to_json()) == event


# --- manifests -----------------------------------------------------------------


def test_manifest_phase_accumulates():
    manifest = RunManifest(name="m")
    with manifest.phase("work"):
        pass
    first = manifest.phases["work"]
    with manifest.phase("work"):
        pass
    assert manifest.phases["work"] > first  # re-entering the phase adds
    assert manifest.total_seconds == sum(manifest.phases.values())


def test_manifest_finish_and_roundtrip(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").add(4)
    manifest = manifest_for("roundtrip", config=None, seed=11, note="x")
    with manifest.phase("p"):
        pass
    manifest.finish(registry)
    assert manifest.metrics["counters"] == {"c": 4.0}
    assert manifest.peak_rss is None or manifest.peak_rss > 0
    path = tmp_path / "m.json"
    manifest.to_json(path)
    # A path, and the JSON text itself (longer than any file name).
    for source in (path, manifest.to_json()):
        loaded = RunManifest.from_json(source)
        assert loaded.name == "roundtrip"
        assert loaded.seed == 11
        assert loaded.extra == {"note": "x"}
        assert loaded.phases == manifest.phases
        assert loaded.metrics["counters"] == {"c": 4.0}


def test_manifest_from_dict_rejects_unknown_keys():
    # A misspelt field must not load as an empty manifest.
    with pytest.raises(ValueError, match=r"unknown fields \['phasez'\] "
                                         r"at RunManifest"):
        RunManifest.from_dict({"name": "x", "phasez": {"a": 1.0}})
    # The derived total that to_dict writes is accepted and recomputed.
    loaded = RunManifest.from_dict({"name": "x", "phases": {"a": 1.5},
                                    "total_seconds": 99.0})
    assert loaded.total_seconds == 1.5


def test_config_fingerprint_distinguishes_configs():
    from repro.config import Configuration

    a = Configuration(graph_size=1000)
    b = Configuration(graph_size=1000)
    c = Configuration(graph_size=2000)
    assert config_fingerprint(a) == config_fingerprint(b)
    assert config_fingerprint(a) != config_fingerprint(c)
    assert len(config_fingerprint(a)) == 16
    int(config_fingerprint(a), 16)  # hex


# --- rendering -----------------------------------------------------------------


def test_render_metrics_sections_and_empty_fallback():
    registry = MetricsRegistry()
    assert "(no metrics recorded)" in render_metrics(registry)
    registry.counter("sim.queries").add(5)
    registry.timer("load.queries").record(0.125)
    registry.histogram("sim.results").observe(10.0)
    text = render_metrics(registry, title="run metrics")
    assert "run metrics" in text
    assert "sim.queries" in text
    assert "load.queries" in text
    assert "sim.results" in text
    # Accepts a plain snapshot dict too.
    assert "sim.queries" in render_metrics(registry.snapshot())


# --- instrumentation neutrality ------------------------------------------------


def _load_arrays(report):
    return (
        report.superpeer_incoming_bps, report.superpeer_outgoing_bps,
        report.superpeer_processing_hz, report.client_incoming_bps,
        report.client_outgoing_bps, report.client_processing_hz,
        report.results_per_query, report.epl_per_query,
        report.reach_clusters,
    )


def _sim_arrays(report):
    return (
        report.superpeer_incoming_bps, report.superpeer_outgoing_bps,
        report.superpeer_processing_hz, report.client_incoming_bps,
        report.client_outgoing_bps, report.client_processing_hz,
    )


def _assert_identical(arrays_a, arrays_b):
    for left, right in zip(arrays_a, arrays_b):
        np.testing.assert_array_equal(left, right)


def test_evaluate_instance_is_metrics_neutral():
    instance = make_instance(seed=7)
    baseline = evaluate_instance(instance, max_sources=15, rng=1)
    with use_registry(MetricsRegistry()) as registry:
        instrumented = evaluate_instance(instance, max_sources=15, rng=1)
    _assert_identical(_load_arrays(baseline), _load_arrays(instrumented))
    assert registry.snapshot()["counters"]["load.instances_evaluated"] == 1.0


def test_simulation_is_metrics_and_trace_neutral():
    instance = make_instance(graph_size=150, cluster_size=8, seed=2)
    baseline = simulate_instance(instance, duration=240.0, rng=9)
    with use_registry(MetricsRegistry()) as registry:
        instrumented = simulate_instance(
            instance, duration=240.0, rng=9, tracer=Tracer(capacity=4096)
        )
    _assert_identical(_sim_arrays(baseline), _sim_arrays(instrumented))
    assert baseline.num_queries == instrumented.num_queries
    assert baseline.mean_results_per_query == instrumented.mean_results_per_query
    assert registry.snapshot()["counters"]["sim.queries"] == baseline.num_queries


def test_resilience_is_metrics_and_trace_neutral():
    instance = make_instance(graph_size=150, cluster_size=8, seed=4)
    plan = FaultPlan(message_loss=0.05, retry=RetryPolicy(max_retries=1))
    baseline = run_resilience(instance, plan, duration=240.0, rng=13)
    tracer = Tracer(capacity=4096)
    with use_registry(MetricsRegistry()) as registry:
        instrumented = run_resilience(
            instance, plan, duration=240.0, rng=13, tracer=tracer
        )
    _assert_identical(_sim_arrays(baseline.degraded),
                      _sim_arrays(instrumented.degraded))
    _assert_identical(_sim_arrays(baseline.baseline),
                      _sim_arrays(instrumented.baseline))
    assert (baseline.outcome.queries_attempted
            == instrumented.outcome.queries_attempted)
    assert baseline.query_success_rate == instrumented.query_success_rate
    counters = registry.snapshot()["counters"]
    assert counters["sim.queries"] > 0
    # The degraded run actually dropped messages — and tracing saw it.
    assert counters["sim.flood_messages_dropped"] > 0
    assert tracer.counts_by_kind().get("drop", 0) > 0


def test_resilience_registry_matches_two_direct_runs():
    """The caller's registry ends up with exactly the counters and
    histograms of the degraded and baseline runs made directly."""
    instance = make_instance(graph_size=150, cluster_size=8, seed=4)
    plan = FaultPlan(message_loss=0.05, retry=RetryPolicy(max_retries=1))
    with use_registry(MetricsRegistry()) as direct:
        simulate_instance(instance, duration=240.0, rng=13, faults=plan,
                          fault_metrics=FaultOutcome())
        simulate_instance(instance, duration=240.0, rng=13)
    with use_registry(MetricsRegistry()) as campaign:
        run_resilience(instance, plan, duration=240.0, rng=13)
    want, got = direct.snapshot(), campaign.snapshot()
    assert got["counters"] == want["counters"]
    assert got["histograms"] == want["histograms"]
    assert got["counters"]["sim.flood_messages_dropped"] > 0


def test_absorbing_into_the_null_registry_leaves_it_inert():
    source = MetricsRegistry()
    source.timer("t").record(1.0)
    source.histogram("h").observe(2.0)
    null = NullRegistry()
    assert null.absorb(source) is null
    assert null.timer("t").count == 0
    assert null.histogram("h").count == 0
    assert null.snapshot()["timers"] == {}


# --- ring saturation surfaced as a counter (sink-less tracers only) ------------


def test_tracer_eviction_counts_dropped_events_metric():
    with use_registry(MetricsRegistry()) as registry:
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit("tick", t=float(i), i=i)
    counters = registry.snapshot()["counters"]
    assert counters["trace.dropped_events"] == 6.0
    assert tracer.dropped == 6


def test_tracer_with_sink_streams_instead_of_dropping(tmp_path):
    path = tmp_path / "t.jsonl"
    with use_registry(MetricsRegistry()) as registry:
        tracer = Tracer(capacity=4, sink=path)
        for i in range(10):
            tracer.emit("tick", t=float(i), i=i)
        tracer.flush()
        tracer.close()
    # Evicted events went to the sink — nothing was lost, so the
    # saturation counter must stay silent.
    assert "trace.dropped_events" not in registry.snapshot()["counters"]
    assert len(read_jsonl(path)) == 10


def test_render_metrics_warns_on_trace_saturation():
    saturated = render_metrics(
        {"counters": {"trace.dropped_events": 6.0}}, title="m"
    )
    assert "WARNING" in saturated and "ring saturated" in saturated
    clean = render_metrics({"counters": {"sim.queries": 5.0}}, title="m")
    assert "WARNING" not in clean


# --- peak-RSS graceful degradation ---------------------------------------------


def test_peak_rss_unavailable_records_null_and_note(monkeypatch):
    import repro.obs.manifest as manifest_mod

    def broken_getrusage(_who):
        raise OSError("getrusage unsupported here")

    import resource

    monkeypatch.setattr(resource, "getrusage", broken_getrusage)
    assert manifest_mod.peak_rss_bytes() is None

    manifest = manifest_for("rss-degraded", config=None, seed=0)
    manifest.finish()
    assert manifest.peak_rss is None
    assert "peak RSS unavailable" in manifest.extra["peak_rss_note"]
    # The roundtrip keeps the null + note (no crash, no fake number).
    payload = manifest.to_dict()
    assert payload["peak_rss"] is None
    assert "peak_rss_note" in payload["extra"]


def test_peak_rss_note_absent_when_measured():
    manifest = manifest_for("rss-ok", config=None, seed=0)
    manifest.finish()
    if manifest.peak_rss is not None:  # platform-dependent
        assert "peak_rss_note" not in manifest.extra


# --- Prometheus exposition edge cases ------------------------------------------


def test_escape_label_value_escapes_the_three_specials():
    from repro.obs.export import escape_label_value

    assert escape_label_value('pl"ai\\n') == 'pl\\"ai\\\\n'
    assert escape_label_value("a\nb") == "a\\nb"
    assert escape_label_value("\\") == "\\\\"
    assert escape_label_value("plain") == "plain"
    assert escape_label_value(1.5) == "1.5"


def test_prometheus_exposition_empty_registry_is_empty():
    from repro.obs.export import prometheus_exposition

    assert prometheus_exposition(MetricsRegistry()) == ""
    assert prometheus_exposition({}) == ""
    assert prometheus_exposition({"counters": {}, "histograms": {}}) == ""


def test_prometheus_histogram_buckets_are_cumulative():
    from repro.obs.export import prometheus_exposition

    registry = MetricsRegistry()
    hist = registry.histogram("sim.results")
    values = [0.0, 0.5, 1.0, 2.0, 2.0, 64.0, 1e6]
    for v in values:
        hist.observe(v)
    text = prometheus_exposition(registry)
    assert "# TYPE repro_sim_results histogram" in text

    bucket_lines = [line for line in text.splitlines()
                    if line.startswith("repro_sim_results_bucket")]
    les, counts = [], []
    for line in bucket_lines:
        le = line.split('le="', 1)[1].split('"', 1)[0]
        les.append(math.inf if le == "+Inf" else float(le))
        counts.append(float(line.rsplit(" ", 1)[1]))
    # le edges ascend, cumulative counts never decrease, and the +Inf
    # bucket equals the total observation count.
    assert les == sorted(les)
    assert counts == sorted(counts)
    assert les[-1] == math.inf
    assert counts[-1] == float(len(values))
    # Every observation is at or below some finite edge except none here;
    # the last finite bucket already holds everything.
    assert counts[-2] == float(len(values))
    assert f"repro_sim_results_count {len(values)}" in text


def test_prometheus_snapshot_dict_falls_back_to_summary():
    from repro.obs.export import prometheus_exposition

    registry = MetricsRegistry()
    registry.histogram("h").observe(3.0)
    text = prometheus_exposition(registry.snapshot())
    assert "# TYPE repro_h summary" in text
    assert "_bucket" not in text
