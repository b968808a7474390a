"""Campaign telemetry: the run journal, live progress, and ``watch``.

The contracts held here:

* **Journal stream** — the JSONL journal records campaign header,
  per-point lifecycle and snapshots; the tolerant reader survives a
  mid-campaign kill (truncated final line) and ``replay_journal``
  reconstructs the exact campaign state from the file alone.
* **Progress + stragglers** — ``CampaignState`` derives done/ETA/
  throughput, per-worker status, straggler flags (with the flagged
  point's plan detail), runtime histogram and error roll-up from
  nothing but journal records.
* **Telemetry neutrality** — a sweep, a chaos batch or a single
  array-engine simulation run with the journal and progress tracker
  attached produces bit-identical results and metrics to one run
  without; telemetry observes, never perturbs.
* **Campaign runners** — for sweep, chaos, resilience and design-risk
  alike, each finish record matches the point's registry and the merged
  manifest, and a failing worker ends the journal with status ``error``.
* **CLI** — ``repro watch --once`` renders a complete, in-flight, or
  truncated journal without error.
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

from repro.api import SweepSpec, run_sweep
from repro.cli import main
from repro.config import Configuration
from repro.obs import progress as progress_mod
from repro.obs.journal import JOURNAL_SCHEMA, read_journal, replay_journal
from repro.obs.manifest import config_fingerprint
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.progress import (
    Campaign,
    CampaignState,
    ProgressTracker,
    heartbeat,
    start_campaign,
)
from repro.reporting import render_campaign, render_progress_line
from repro.risk import RiskSpec, evaluate_designs
from repro.sim.chaos import ChaosSpec, run_chaos
from repro.sim.faults import FaultPlan
from repro.sim.network import simulate_instance
from repro.sim.resilience import (
    ResilienceSpec,
    run_resilience,
    run_resilience_spec,
)
from repro.topology.builder import build_instance

BASE = Configuration(graph_size=200, cluster_size=10, ttl=3,
                     avg_outdegree=4.0)


def small_sweep(**overrides) -> SweepSpec:
    kwargs = dict(name="t", base=BASE, grid={"ttl": (2, 3)}, trials=1,
                  seed=5, max_sources=30)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class FakeClock:
    """A deterministic clock: each point's runtime is scripted."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --- journal stream ------------------------------------------------------------


def fake_campaign(path, clock, total, name="demo", **header) -> Campaign:
    """A journaled campaign with a live tracker, stamped by ``clock``."""
    return Campaign({"campaign": name, "total_points": total, **header},
                    journal=path, tracker=ProgressTracker(), clock=clock)


def assert_same_state(live: CampaignState, replayed: CampaignState) -> None:
    """Field-by-field equality of a live and a replayed campaign state."""
    fields = ("status", "start", "finish", "seconds", "worker", "counters",
              "detail")

    def points(state):
        return {i: {f: p[f] for f in fields} for i, p in state.points.items()}

    assert points(replayed) == points(live)
    assert replayed.workers == live.workers
    assert replayed.last_snapshot == live.last_snapshot
    assert replayed.last_snapshot is not None
    assert replayed.schema == live.schema == JOURNAL_SCHEMA
    assert replayed.total == live.total
    assert replayed.end_status == live.end_status


def test_journal_records_campaign_lifecycle(tmp_path, monkeypatch):
    monkeypatch.setattr(progress_mod, "SNAPSHOT_EVERY", 1)
    path = tmp_path / "j.jsonl"
    clock = FakeClock()
    campaign = fake_campaign(
        path, clock, 2, jobs=1, config_hash="abcd", git_rev="f00d", seed=7,
        plan=[{"index": 0, "label": "a"}],
    )
    campaign.point_started(0, "a")
    clock.advance(2.0)
    campaign.point_finished(0, "a", seconds=2.0,
                            counters={"sim.queries": 10.0})
    campaign.point_started(1, "b")
    clock.advance(4.0)
    campaign.point_error(1, "b", ValueError("boom"))
    campaign.finish(status="error")

    records, skipped = read_journal(path)
    assert skipped == 0
    kinds = [r["record"] for r in records]
    assert kinds == ["campaign", "point-start", "point-finish", "snapshot",
                     "point-start", "point-error", "snapshot",
                     "campaign-end"]
    header = records[0]
    assert header["schema"] == JOURNAL_SCHEMA
    assert header["campaign"] == "demo"
    assert header["config_hash"] == "abcd"
    assert header["git_rev"] == "f00d"
    assert header["seed"] == 7
    finish = next(r for r in records if r["record"] == "point-finish")
    assert finish["seconds"] == 2.0
    assert finish["counters"] == {"sim.queries": 10.0}
    error = next(r for r in records if r["record"] == "point-error")
    assert error["error_type"] == "ValueError"
    assert "boom" in error["error"]
    snapshot = records[-2]
    assert snapshot["done"] == 2 and snapshot["errors"] == 1
    assert snapshot["elapsed_seconds"] == pytest.approx(6.0)
    assert records[-1]["status"] == "error"


def test_journal_stamps_come_from_the_campaign_clock(tmp_path):
    """Every record, start records included, carries the one clock."""
    path = tmp_path / "j.jsonl"
    clock = FakeClock()
    campaign = fake_campaign(path, clock, 1)
    clock.advance(1.0)
    campaign.point_started(0, "a")
    clock.advance(2.0)
    campaign.point_finished(0, "a", seconds=2.0)
    campaign.finish()

    records, _ = read_journal(path)
    assert {r["record"]: r["t"] for r in records} == {
        "campaign": 1000.0, "point-start": 1001.0, "point-finish": 1003.0,
        "snapshot": 1003.0, "campaign-end": 1003.0,
    }


def test_journal_close_is_idempotent(tmp_path):
    path = tmp_path / "j.jsonl"
    campaign = fake_campaign(path, FakeClock(), 0)
    campaign.finish()
    campaign.finish()
    records, _ = read_journal(path)
    assert [r["record"] for r in records].count("campaign-end") == 1


def test_truncated_journal_replays_cleanly(tmp_path):
    """A mid-campaign kill leaves a half-written final line; the reader
    skips it and the replayed state reflects everything before it."""
    path = tmp_path / "j.jsonl"
    campaign = fake_campaign(path, FakeClock(), 3, name="killed")
    campaign.point_started(0, "a")
    campaign.point_finished(0, "a", seconds=1.0)
    campaign.point_started(1, "b")
    # Simulate the kill: no finish(), and the last record is torn.
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])

    state = replay_journal(path)
    assert state.skipped_lines == 1
    assert state.campaign == "killed"
    assert state.done == 1
    assert not state.finished  # no campaign-end record survived
    # The torn point-start vanished; point 1 was never observed.
    assert sorted(state.points) == [0]
    # Rendering the partial state must not raise.
    assert "killed" in render_campaign(state)


def test_replay_matches_live_state(tmp_path):
    """The watcher's replayed state equals the live tracker's state."""
    path = tmp_path / "j.jsonl"
    clock = FakeClock()
    campaign = fake_campaign(path, clock, 2, name="live",
                             plan=[{"index": 0, "label": "x",
                                    "detail": {"ttl": 2}}])
    campaign.point_started(0, "x")
    clock.advance(1.0)
    campaign.point_finished(0, "x", seconds=1.0, counters={"hits": 3.0})
    campaign.point_started(1, "y")
    clock.advance(3.0)
    campaign.point_finished(1, "y", seconds=3.0)
    campaign.finish()

    live = campaign.tracker.state
    replayed = replay_journal(path)
    assert replayed.done == live.done == 2
    assert replayed.finished and live.finished
    assert replayed.end_status == live.end_status == "complete"
    assert_same_state(live, replayed)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_sweep_replay_matches_live_state(tmp_path, executor):
    """A sweep's journal replays to exactly what its live tracker holds."""
    path = tmp_path / f"{executor}.jsonl"
    tracker = ProgressTracker(stream=None)
    run_sweep(small_sweep(), executor=executor, jobs=2, journal=path,
              progress=tracker)
    live, replayed = tracker.state, replay_journal(path)
    assert live.done == replayed.done == 2
    assert all(p["counters"] for p in live.points.values())
    assert_same_state(live, replayed)


# --- derived campaign health ----------------------------------------------------


def _campaign_state(runtimes, detail=None, clock=None,
                    total=None) -> CampaignState:
    """Fold synthetic point records (scripted runtimes) into a state."""
    clock = clock or FakeClock()
    state = CampaignState()
    state.apply({"record": "campaign", "campaign": "c", "t": clock(),
                 "total_points": total if total is not None else len(runtimes),
                 "plan": [{"index": i, "label": f"p{i}",
                           "detail": (detail or {}).get(i)}
                          for i in range(len(runtimes))]})
    for i, seconds in enumerate(runtimes):
        state.apply({"record": "point-start", "index": i, "label": f"p{i}",
                     "worker": "main", "t": clock()})
        clock.advance(seconds)
        state.apply({"record": "point-finish", "index": i, "label": f"p{i}",
                     "worker": "main", "seconds": seconds, "t": clock()})
    return state


def test_throughput_and_eta_from_journal_time():
    state = _campaign_state([2.0, 2.0], total=4)
    assert state.done == 2
    assert state.elapsed() == pytest.approx(4.0)
    assert state.throughput() == pytest.approx(0.5)
    assert state.eta_seconds() == pytest.approx(4.0)


def test_straggler_flags_carry_plan_detail():
    detail = {3: {"ttl": 9}}
    state = _campaign_state([1.0, 1.0, 1.0, 10.0], detail=detail)
    flagged = state.stragglers(factor=3.0)
    assert [f["index"] for f in flagged] == [3]
    flag = flagged[0]
    assert flag["seconds"] == pytest.approx(10.0)
    assert flag["median"] == pytest.approx(1.0)
    assert flag["ratio"] == pytest.approx(10.0)
    assert flag["detail"] == {"ttl": 9}
    assert flag["state"] == "done"
    # The report names the flagged configuration, not just the index.
    assert "{'ttl': 9}" in render_campaign(state)


def test_running_point_flagged_as_straggler_before_finishing():
    clock = FakeClock()
    state = _campaign_state([1.0, 1.0], clock=clock, total=3)
    state.apply({"record": "point-start", "index": 2, "label": "p2",
                 "worker": "main", "t": clock()})
    clock.advance(30.0)
    # A later snapshot moves the journal's notion of "now" forward.
    state.apply({"record": "snapshot", "t": clock()})
    flagged = state.stragglers(factor=3.0)
    assert [f["index"] for f in flagged] == [2]
    assert flagged[0]["state"] == "running"
    assert flagged[0]["seconds"] == pytest.approx(30.0)


def test_duplicate_finish_records_do_not_double_count():
    state = _campaign_state([1.0])
    before = state.done
    state.apply({"record": "point-finish", "index": 0, "label": "p0",
                 "worker": "main", "seconds": 1.0, "t": 99.0})
    assert state.done == before == 1


def test_error_rollup_groups_by_type():
    clock = FakeClock()
    state = _campaign_state([1.0], clock=clock, total=4)
    for i, (kind, msg) in enumerate(
        [("ValueError", "bad ttl"), ("ValueError", "bad size"),
         ("RuntimeError", "engine fell over")], start=1,
    ):
        state.apply({"record": "point-start", "index": i, "label": f"p{i}",
                     "worker": "main", "t": clock()})
        state.apply({"record": "point-error", "index": i, "label": f"p{i}",
                     "worker": "main", "error": msg, "error_type": kind,
                     "t": clock()})
    rollup = state.error_rollup()
    assert rollup["ValueError"]["count"] == 2
    assert rollup["ValueError"]["example"] == "bad ttl"
    assert rollup["ValueError"]["indices"] == [1, 2]
    assert rollup["RuntimeError"]["count"] == 1
    assert state.errors == 3
    rendered = render_campaign(state)
    assert "ValueError" in rendered and "engine fell over" in rendered


def test_worker_rows_credit_the_running_and_finishing_worker():
    clock = FakeClock()
    state = CampaignState()
    state.apply({"record": "campaign", "total_points": 2, "t": clock()})
    state.apply({"record": "point-start", "index": 0, "label": "a",
                 "worker": "pid11", "t": clock()})
    state.apply({"record": "point-start", "index": 1, "label": "b",
                 "worker": "pid22", "t": clock()})
    rows = {r["worker"]: r for r in state.worker_rows()}
    assert rows["pid11"]["running_label"] == "a"
    assert rows["pid22"]["running_label"] == "b"
    clock.advance(2.0)
    # The parent writes the authoritative finish record, crediting the
    # worker that ran the point — "main" must not appear as a worker.
    state.apply({"record": "point-finish", "index": 0, "label": "a",
                 "worker": "main", "t": clock(), "seconds": 2.0})
    rows = {r["worker"]: r for r in state.worker_rows()}
    assert rows["pid11"]["done"] == 1
    assert rows["pid11"]["running"] is None
    assert "main" not in rows


def test_late_start_beat_leaves_the_worker_idle():
    """A pool worker's start beat can reach the parent after the parent's
    finish record; the point stays done and its worker stays idle."""
    clock = FakeClock()
    state = CampaignState()
    state.apply({"record": "campaign", "total_points": 1, "t": clock()})
    state.apply({"record": "point-finish", "index": 0, "label": "a",
                 "worker": "pid11", "t": clock(), "seconds": 1.0})
    state.apply({"record": "point-start", "index": 0, "label": "a",
                 "worker": "pid11", "t": clock()})
    assert state.points[0]["status"] == "done"
    assert state.points[0]["worker"] == "pid11"
    rows = {r["worker"]: r for r in state.worker_rows()}
    assert rows["pid11"]["done"] == 1
    assert rows["pid11"]["running"] is None


def test_progress_line_shape():
    state = _campaign_state([2.0, 2.0], total=4)
    line = render_progress_line(state)
    assert line.startswith("c: 2/4")
    assert "pt/s" in line and "eta" in line


def test_heartbeat_is_inert_without_a_queue():
    # Workers on platforms without fork inheritance (or run in-process)
    # degrade to silence, never an error.
    heartbeat("point-start", index=0, label="x")


# --- telemetry neutrality -------------------------------------------------------


def _sweep_fingerprint(result):
    rows = []
    for point in result.points:
        summary = point.summary
        sp = summary.superpeer_load()
        rows.append((point.overrides, sp.incoming_bps, sp.outgoing_bps,
                     sp.processing_hz, summary.mean("results_per_query"),
                     summary.mean("epl")))
    return rows, result.registry.snapshot()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_telemetry_is_neutral(tmp_path, jobs):
    """Journal + progress attached changes nothing about the results."""
    plain = run_sweep(small_sweep(), jobs=jobs)
    tracker = ProgressTracker(stream=None)  # state only, no output
    observed = run_sweep(small_sweep(), jobs=jobs,
                         journal=tmp_path / f"j{jobs}.jsonl",
                         progress=tracker)
    rows_a, snap_a = _sweep_fingerprint(plain)
    rows_b, snap_b = _sweep_fingerprint(observed)
    assert rows_a == rows_b
    assert snap_a["counters"] == snap_b["counters"]
    assert snap_a["histograms"] == snap_b["histograms"]
    # And the journal saw the whole campaign.
    state = replay_journal(tmp_path / f"j{jobs}.jsonl")
    assert state.done == len(plain.points)
    assert state.finished and state.errors == 0
    assert tracker.state.done == len(plain.points)


def test_thread_sweep_journals_each_point_under_one_worker(tmp_path):
    """A point's start and finish name the same lane, so a two-lane
    thread sweep shows two workers, each finishing what it started."""
    path = tmp_path / "t.jsonl"
    run_sweep(small_sweep(grid={"ttl": (2, 3, 4, 5)}), jobs=2,
              executor="thread", journal=path)
    books = {"point-start": {}, "point-finish": {}}
    for record in read_journal(path)[0]:
        if record["record"] in books:
            books[record["record"]].setdefault(
                record["worker"], set()).add(record["index"])
    started, finished = books["point-start"], books["point-finish"]
    assert len(started) == 2
    assert started == finished


def test_chaos_telemetry_is_neutral_and_journals_seeds(tmp_path):
    spec = ChaosSpec(cases=2, base_seed=3, graph_size=120, duration=120.0,
                     replay=False)
    plain = run_chaos(spec)
    observed = run_chaos(spec, journal=tmp_path / "c.jsonl", progress=False)
    assert [c.digest for c in plain.cases] == [c.digest for c in observed.cases]
    assert (plain.registry.snapshot()["counters"]
            == observed.registry.snapshot()["counters"])
    state = replay_journal(tmp_path / "c.jsonl")
    assert state.done == 2 and state.finished
    # Each point's plan detail names the chaos seed it flags.
    assert [p["detail"]["seed"] for _, p in sorted(state.points.items())] \
        == [3, 4]


def test_array_sim_telemetry_is_neutral(tmp_path):
    """One array-engine run, plain and as a journaled one-point campaign."""
    instance = build_instance(BASE, seed=4)

    def run():
        registry = MetricsRegistry()
        with use_registry(registry):
            report = simulate_instance(instance, duration=300.0, rng=9,
                                       engine="array")
        return report, registry.snapshot()

    plain, plain_snap = run()
    tracker = ProgressTracker(stream=None)
    campaign = start_campaign(tmp_path / "a.jsonl", tracker,
                              name="array", total=1)
    campaign.point_started(0, "sim_array")
    observed, observed_snap = run()
    campaign.point_finished(0, "sim_array",
                            counters=observed_snap["counters"])
    campaign.finish()

    assert plain_snap["counters"] == observed_snap["counters"]
    assert plain_snap["histograms"] == observed_snap["histograms"]
    for field in ("superpeer_incoming_bps", "superpeer_outgoing_bps",
                  "superpeer_processing_hz", "client_incoming_bps",
                  "client_outgoing_bps", "client_processing_hz"):
        assert np.array_equal(getattr(plain, field), getattr(observed, field))
    state = replay_journal(tmp_path / "a.jsonl")
    assert state.done == 1 and state.finished and state.errors == 0
    assert tracker.state.done == 1


def test_sweep_error_lands_in_journal(tmp_path, monkeypatch):
    import repro.api as api_mod

    def explode(spec):
        raise RuntimeError("scripted failure")

    monkeypatch.setattr(api_mod, "_evaluate_point", explode)
    with pytest.raises(RuntimeError):
        run_sweep(small_sweep(), jobs=1, journal=tmp_path / "e.jsonl")
    state = replay_journal(tmp_path / "e.jsonl")
    assert state.errors == 1
    assert state.end_status == "error"
    assert state.error_rollup()["RuntimeError"]["count"] == 1


def _run_sweep(journal):
    run_sweep(small_sweep(), journal=journal)


def _run_chaos(journal):
    run_chaos(ChaosSpec(cases=2, base_seed=3, graph_size=120,
                        cluster_size=10, duration=60.0, replay=False),
              journal=journal)


def _run_resilience(journal):
    run_resilience_spec(ResilienceSpec(config=BASE,
                                       plan=FaultPlan(message_loss=0.1),
                                       duration=60.0, seed=3, replicates=2),
                        journal=journal)


def test_run_resilience_header_names_config_and_revision(tmp_path):
    """A single run_resilience journal stamps its header as the
    run_campaign path does: the config fingerprint and git revision."""
    run_resilience(build_instance(BASE, seed=3), FaultPlan(message_loss=0.1),
                   duration=60.0, rng=3, journal=tmp_path / "single.jsonl")
    _run_resilience(tmp_path / "spec.jsonl")
    header = read_journal(tmp_path / "single.jsonl")[0][0]
    spec_header = read_journal(tmp_path / "spec.jsonl")[0][0]
    assert header["record"] == spec_header["record"] == "campaign"
    assert header["config_hash"] == config_fingerprint(BASE)
    assert header["config_hash"] == spec_header["config_hash"]
    assert header["git_rev"] == spec_header["git_rev"]


def _finishes(path) -> list[dict]:
    return [r for r in read_journal(path)[0] if r["record"] == "point-finish"]


def test_run_resilience_journals_each_half_with_registry_counters(tmp_path):
    """A single run journals its degraded and baseline halves with the
    registry counters and the seconds each half measured."""
    path = tmp_path / "single.jsonl"
    run_resilience(build_instance(BASE, seed=3), FaultPlan(message_loss=0.1),
                   duration=60.0, rng=3, journal=path)
    finishes = _finishes(path)
    assert [r["label"] for r in finishes] == ["degraded[0]", "baseline[0]"]
    for record in finishes:
        assert record["counters"]["sim.query_messages"] > 0
        assert record["counters"]["sim.queries"] > 0
        assert record["seconds"] > 0
    degraded, baseline = (r["counters"] for r in finishes)
    assert degraded["sim.flood_messages_dropped"] > 0
    assert baseline["sim.flood_messages_dropped"] == 0


def test_run_resilience_journals_the_same_halves_as_a_spec(tmp_path):
    """``run_resilience`` on the instance a one-replicate spec builds
    journals the same two points: labels, plan details and counters."""
    plan = FaultPlan(message_loss=0.1)
    run_resilience(build_instance(BASE, seed=3), plan, duration=60.0, rng=3,
                   journal=tmp_path / "single.jsonl")
    run_resilience_spec(ResilienceSpec(config=BASE, plan=plan, duration=60.0,
                                       seed=3, replicates=1),
                        journal=tmp_path / "spec.jsonl")
    single = read_journal(tmp_path / "single.jsonl")[0][0]["plan"]
    spec = read_journal(tmp_path / "spec.jsonl")[0][0]["plan"]
    assert single == spec
    assert len(single) == 2
    assert ([(r["label"], r["counters"]) for r in _finishes(tmp_path / "single.jsonl")]
            == [(r["label"], r["counters"]) for r in _finishes(tmp_path / "spec.jsonl")])


def _run_design_risk(journal):
    candidates = [
        (f"r{int(redundancy)}",
         Configuration(graph_size=120, cluster_size=60, ttl=2,
                       avg_outdegree=1.0, redundancy=redundancy))
        for redundancy in (False, True)
    ]
    evaluate_designs(candidates,
                     RiskSpec(cutoff=0.05, duration=60.0, mean_recovery=30.0,
                              seed=2, availability_target=0.9),
                     journal=journal)


#: runner -> (module, its module-level worker's name, a journaled small run)
RUNNERS = {
    "sweep": ("repro.api", "_evaluate_point", _run_sweep),
    "chaos": ("repro.sim.chaos", "_case_worker", _run_chaos),
    "resilience": ("repro.sim.resilience", "_half_worker",
                   _run_resilience),
    "design-risk": ("repro.risk.evaluate", "_evaluate_cell",
                    _run_design_risk),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_runner_finish_records_match_the_fold(tmp_path, monkeypatch, runner):
    """Each finish record carries the point's own registry counters and
    the seconds the merged manifest holds for its label."""
    module_name, worker_name, run = RUNNERS[runner]
    module = importlib.import_module(module_name)
    worker = getattr(module, worker_name)
    outcomes = {}

    def spy_worker(payload):
        outcome = worker(payload)
        outcomes[outcome[2].name] = outcome
        return outcome

    folds = []
    real_run_campaign = module.run_campaign

    def spy_run_campaign(*args, **kwargs):
        folds.append(real_run_campaign(*args, **kwargs))
        return folds[-1]

    monkeypatch.setattr(module, worker_name, spy_worker)
    monkeypatch.setattr(module, "run_campaign", spy_run_campaign)
    run(tmp_path / "j.jsonl")
    records, _ = read_journal(tmp_path / "j.jsonl")
    finishes = [r for r in records if r["record"] == "point-finish"]
    assert len(finishes) == len(outcomes) >= 2
    manifest = folds[0].manifest
    for record in finishes:
        _result, registry, _fragment = outcomes[record["label"]]
        assert record["seconds"] == manifest.phases[record["label"]]
        assert record["counters"] == registry.snapshot()["counters"]
    assert records[-1]["record"] == "campaign-end"
    assert records[-1]["status"] == "complete"


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_runner_worker_error_ends_campaign_in_error(tmp_path, monkeypatch,
                                                    runner):
    module_name, worker_name, run = RUNNERS[runner]

    def explode(payload):
        raise RuntimeError("scripted failure")

    monkeypatch.setattr(importlib.import_module(module_name), worker_name,
                        explode)
    with pytest.raises(RuntimeError, match="scripted failure"):
        run(tmp_path / "e.jsonl")
    records, _ = read_journal(tmp_path / "e.jsonl")
    assert records[-1]["record"] == "campaign-end"
    assert records[-1]["status"] == "error"
    assert replay_journal(tmp_path / "e.jsonl").errors == 1


def test_start_campaign_returns_none_when_telemetry_off():
    assert start_campaign(None, False, name="x", total=1) is None


# --- the watch CLI --------------------------------------------------------------


def test_watch_once_renders_finished_journal(tmp_path, capsys):
    journal_path = tmp_path / "j.jsonl"
    run_sweep(small_sweep(), jobs=1, journal=journal_path)
    assert main(["watch", str(journal_path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "t: 2/2" in out
    assert "finished (complete" in out


def test_watch_once_renders_truncated_journal(tmp_path, capsys):
    journal_path = tmp_path / "j.jsonl"
    run_sweep(small_sweep(), jobs=1, journal=journal_path)
    raw = journal_path.read_bytes()
    (tmp_path / "torn.jsonl").write_bytes(raw[:-25])
    assert main(["watch", str(tmp_path / "torn.jsonl"), "--once"]) == 0
    out = capsys.readouterr().out
    assert "unreadable journal line(s) skipped" in out


def test_watch_missing_journal_exits_with_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["watch", str(tmp_path / "nope.jsonl"), "--once"])


def test_sweep_cli_writes_journal(tmp_path, capsys):
    journal_path = tmp_path / "cli.jsonl"
    code = main([
        "--seed", "3", "sweep", "--graph-size", "200", "--cluster-size",
        "10", "--param", "ttl", "--values", "2,3",
        "--journal", str(journal_path),
    ])
    assert code == 0
    records, skipped = read_journal(journal_path)
    assert skipped == 0
    assert [r["record"] for r in records][0] == "campaign"
    assert records[0]["seed"] == 3
    # Header fingerprints pin what ran: config hash + git revision.
    assert records[0]["config_hash"]
    state = replay_journal(journal_path)
    assert state.done == 2 and state.finished
