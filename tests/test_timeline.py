"""Tests for trace analytics (``repro.obs.timeline``), the streaming
tracer sink, and the exporters (``repro.obs.export``).

The timeline layer turns an event stream back into stories; its tests
work on hand-written traces (so expected lifecycles are checkable by
eye) and on real simulator output (so the event schema the analytics
expect is the one ``sim/network.py`` actually emits).
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    export_bundle,
    metric_name,
    prometheus_exposition,
    write_json,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.timeline import OutageWindow, build_timeline
from repro.obs.trace import Tracer, read_jsonl
from repro.sim.faults import FaultPlan, RetryPolicy
from repro.sim.network import simulate_instance

from conftest import make_instance


# --- streaming tracer sink -----------------------------------------------------


def test_streaming_sink_keeps_every_event(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(capacity=4, sink=path)
    for i in range(10):
        tracer.emit("tick", t=float(i), i=i)
    assert tracer.streamed == 6          # evictions went to disk, not /dev/null
    assert tracer.dropped == 0
    assert tracer.flush() == 10          # drain the ring too
    tracer.close()
    events = read_jsonl(path)
    assert [e.fields["i"] for e in events] == list(range(10))


def test_streaming_sink_accepts_open_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        tracer = Tracer(capacity=2, sink=handle)
        for i in range(5):
            tracer.emit("tick", t=float(i), i=i)
        tracer.close()                   # flushes but must not close our file
        assert not handle.closed
    assert len(read_jsonl(path)) == 5


def test_unsinked_tracer_still_drops():
    tracer = Tracer(capacity=4)
    for i in range(10):
        tracer.emit("tick", t=float(i))
    assert tracer.dropped == 6
    assert tracer.flush() == 0           # no sink: flush is a no-op


def test_count_by_kind_alias_and_filter():
    tracer = Tracer(capacity=16)
    tracer.emit("query", t=1.0, source=3, results=2.0)
    tracer.emit("query", t=2.0, source=4, results=0.0)
    tracer.emit("drop", t=2.0, source=4, phase="flood", lost=1.0)
    assert tracer.count_by_kind() == tracer.counts_by_kind()
    assert tracer.count_by_kind() == {"query": 2, "drop": 1}
    assert [e.t for e in tracer.filter(kind="query")] == [1.0, 2.0]
    assert [e.kind for e in tracer.filter(source=4)] == ["query", "drop"]
    assert tracer.filter(kind="query", source=4)[0].fields["results"] == 0.0
    assert tracer.filter(kind="crash") == []


# --- timeline reconstruction (hand-written trace) ------------------------------


def _hand_trace() -> Tracer:
    tracer = Tracer(capacity=64)
    # Query A: clean completion with a 2-hop flood.
    tracer.emit("query", t=10.0, source=1, reach=5.0, results=12.0,
                client=True, attempts=1, waited=0.0, fanout=[3.0, 6.0])
    # Query B: one retry, one flood drop, degraded, then completion.
    tracer.emit("drop", t=20.0, source=2, phase="flood", lost=2.0)
    tracer.emit("retry", t=20.0, source=2, attempt=0)
    tracer.emit("query", t=20.0, source=2, reach=3.0, results=4.0,
                degraded=True, attempts=2, waited=1.5, fanout=[2.0])
    # Query C: total loss (no results).
    tracer.emit("drop", t=30.0, source=5, phase="response", lost=1.0)
    tracer.emit("query", t=30.0, source=5, reach=2.0, results=0.0,
                attempts=1, waited=4.0, fanout=[2.0, 2.0])
    # An orphan on a dark cluster, and a crash/outage pair.
    tracer.emit("orphan", t=35.0, source=7)
    tracer.emit("crash", t=40.0, cluster=3, live=1)
    tracer.emit("crash", t=41.0, cluster=4, live=0)
    tracer.emit("recover", t=45.0, cluster=4)
    tracer.emit("outage-end", t=45.0, cluster=4, length=4.0)
    return tracer


def test_build_timeline_reconstructs_lifecycles():
    report = build_timeline(_hand_trace())
    assert report.num_queries == 3
    a, b, c = report.lifecycles
    assert a.completed and a.fanout == [3.0, 6.0] and a.client
    assert b.degraded and b.retries == 1 and b.attempts == 2
    assert b.drops == [("flood", 2.0)] and b.waited == 1.5
    assert not c.completed and c.drops == [("response", 1.0)]
    assert report.orphans == [(35.0, 7)]
    # 3 queries, 2 completed, 1 orphan -> 2/4.
    assert report.completion_rate == pytest.approx(0.5)
    assert report.drop_counts() == {"flood": 2.0, "response": 1.0}
    assert report.total_retries == 1
    assert report.span == (10.0, 45.0)


def test_build_timeline_pairs_outages_and_failovers():
    report = build_timeline(_hand_trace())
    assert report.crashes == 2
    assert report.failovers == 1         # the crash with a live survivor
    assert report.recoveries == 1
    assert report.outages == [OutageWindow(cluster=4, start=41.0, end=45.0)]
    assert report.total_outage_seconds == pytest.approx(4.0)


def test_timeline_percentiles_and_fanout():
    report = build_timeline(_hand_trace())
    waited = report.waited_percentiles((50.0, 99.0))
    assert waited["p50"] == pytest.approx(1.5)
    assert waited["p99"] == pytest.approx(4.0, rel=0.05)
    # Ragged profiles are zero-padded: hop 1 averages (6 + 0 + 2) / 3.
    assert report.mean_fanout_by_hop() == pytest.approx(
        [(3.0 + 2.0 + 2.0) / 3, (6.0 + 0.0 + 2.0) / 3]
    )


def test_timeline_sources_are_interchangeable(tmp_path):
    tracer = _hand_trace()
    path = tracer.to_jsonl(tmp_path / "trace.jsonl")
    from_tracer = build_timeline(tracer).to_dict()
    from_path = build_timeline(path).to_dict()
    from_list = build_timeline(tracer.events()).to_dict()
    assert from_tracer == from_path == from_list


def test_empty_trace_yields_empty_report():
    report = build_timeline([])
    assert report.num_queries == 0
    assert report.completion_rate == 0.0
    assert report.mean_fanout_by_hop() == []
    assert report.waited_percentiles()["p50"] == 0.0
    assert report.to_dict()["span"] == [0.0, 0.0]


# --- timeline over a real simulation -------------------------------------------


def test_timeline_from_simulator_trace():
    instance = make_instance(graph_size=150, cluster_size=8, seed=2)
    tracer = Tracer(capacity=65_536)
    plan = FaultPlan(message_loss=0.05, retry=RetryPolicy(max_retries=1))
    result = simulate_instance(
        instance, duration=240.0, rng=9, tracer=tracer, faults=plan
    )
    report = build_timeline(tracer)
    assert report.num_queries + len(report.orphans) == result.num_queries
    assert 0.0 < report.completion_rate <= 1.0
    fanout = report.mean_fanout_by_hop()
    assert fanout and fanout[0] > 0
    # Lossy run: the analytics must see the drops the counters saw.
    assert sum(report.drop_counts().values()) > 0


# --- exporters -----------------------------------------------------------------


def test_metric_name_sanitizes():
    assert metric_name("sim.queries") == "repro_sim_queries"
    assert metric_name("a b/c-d", prefix="") == "a_b_c_d"


def test_prometheus_exposition_covers_all_families():
    registry = MetricsRegistry()
    registry.counter("sim.queries").add(3)
    registry.gauge("sim.live").set(7)
    with registry.timer("phase.run").time():
        pass
    registry.histogram("search.reach").observe(5.0)
    text = prometheus_exposition(registry)
    assert "# TYPE repro_sim_queries counter" in text
    assert "repro_sim_queries 3.0" in text
    assert "# TYPE repro_sim_live gauge" in text
    assert "# TYPE repro_phase_run_seconds summary" in text
    assert "repro_phase_run_seconds_count 1" in text
    # Live registries carry bucket counts, so histograms export as true
    # Prometheus histograms (snapshot dicts still fall back to summaries).
    assert "# TYPE repro_search_reach histogram" in text
    assert 'repro_search_reach_bucket{le="+Inf"} 1' in text
    assert "repro_search_reach_count 1" in text
    assert text.endswith("\n")


def test_export_bundle_accepts_live_objects_and_dicts(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").add(1)
    timeline = build_timeline(_hand_trace())
    bundle = export_bundle(registry=registry, timeline=timeline)
    assert bundle["schema"] == 1
    assert bundle["metrics"]["counters"] == {"c": 1.0}
    assert bundle["timeline"]["queries"] == 3
    # Dicts pass through untouched, and the bundle round-trips as JSON.
    again = export_bundle(registry=bundle["metrics"],
                          timeline=bundle["timeline"])
    assert again["metrics"] == bundle["metrics"]
    path = write_json(again, tmp_path / "bundle.json")
    assert json.loads(path.read_text(encoding="utf-8")) == again


def test_export_bundle_with_attribution():
    from repro.obs.attribution import profile_instance

    instance = make_instance(seed=7)
    _, attribution = profile_instance(instance, max_sources=15, rng=1)
    bundle = export_bundle(attribution=attribution, top=3)
    assert len(bundle["attribution"]["top_superpeers"]) == 3
    json.dumps(bundle)  # JSON-ready, including edge tuples
