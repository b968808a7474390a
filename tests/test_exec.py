"""The pluggable executor subsystem (``repro.exec``).

The load-bearing contracts:

* every backend — serial, thread, process, jobfile — returns
  bit-identical results in stable task order (the dispatch strategy may
  move work, never change it);
* ``make_executor`` resolves names/instances under the documented rules
  (``jobs`` without an executor implies ``process``; ``jobs=0`` is
  jobfile-only);
* retry budgets, per-task timeouts, and the jobfile crash-reclaim
  protocol behave as specified;
* empty campaigns return well-formed empty results and still close the
  run journal.
"""

from __future__ import annotations

import json
import os
import pickle
import textwrap
import threading
import time

import pytest

from repro.api import SweepSpec, run_sweep
from repro.config import Configuration
from repro.core.design import DesignConstraints
from repro.exec import (
    EXECUTOR_NAMES,
    JobFileExecutor,
    ProcessExecutor,
    SerialExecutor,
    Task,
    TaskError,
    TaskTimeoutError,
    ThreadExecutor,
    make_executor,
    run_worker,
)
from repro.exec.jobfile import _resolve_fn, _task_name, _task_pos
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.risk import RiskSpec, design_topology_risk
from repro.sim.chaos import ChaosSpec, run_chaos
from repro.sim.faults import FaultPlan, RetryPolicy
from repro.sim.resilience import (
    ResilienceSpec,
    run_resilience,
    run_resilience_spec,
)
from repro.topology.builder import build_instance

BASE = Configuration(graph_size=200, cluster_size=10, ttl=4, avg_outdegree=4.0)


def small_sweep(**overrides) -> SweepSpec:
    kwargs = dict(name="t", base=BASE, grid={"cluster_size": (5, 10)},
                  trials=1, seed=0, max_sources=30)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def small_resilience(**overrides) -> ResilienceSpec:
    kwargs = dict(
        config=Configuration(graph_size=150, cluster_size=10, ttl=3),
        plan=FaultPlan(message_loss=0.05,
                       retry=RetryPolicy(timeout=5.0, max_retries=1)),
        duration=120.0,
        seed=7,
        replicates=2,
    )
    kwargs.update(overrides)
    return ResilienceSpec(**kwargs)


def _double(payload):
    """Module-level (hence picklable/importable) task function."""
    return payload * 2


class TestMakeExecutor:
    def test_default_is_serial(self):
        assert isinstance(make_executor(), SerialExecutor)
        assert isinstance(make_executor(jobs=1), SerialExecutor)

    def test_jobs_implies_process(self):
        backend = make_executor(jobs=4)
        assert isinstance(backend, ProcessExecutor)
        assert backend.jobs == 4

    def test_explicit_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread", jobs=3), ThreadExecutor)
        assert isinstance(make_executor("process", jobs=3), ProcessExecutor)
        assert isinstance(make_executor("jobfile"), JobFileExecutor)

    def test_instance_passes_through(self):
        backend = SerialExecutor()
        assert make_executor(backend) is backend

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            make_executor(jobs=-1)

    def test_jobs_zero_requires_jobfile(self):
        with pytest.raises(ValueError, match="jobfile"):
            make_executor(jobs=0)
        with pytest.raises(ValueError, match="jobfile"):
            make_executor("process", jobs=0)
        backend = make_executor("jobfile", jobs=0)
        assert isinstance(backend, JobFileExecutor)
        assert backend.workers == 0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="mainframe"):
            make_executor("mainframe")

    def test_names_registry_is_exhaustive(self):
        assert EXECUTOR_NAMES == ("serial", "thread", "process", "jobfile")
        for name in EXECUTOR_NAMES:
            assert make_executor(name, jobs=1).name == name


class TestExecutorValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            SerialExecutor(retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout"):
            SerialExecutor(task_timeout=0.0)

    def test_jobfile_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            JobFileExecutor(workers=-1)

    def test_jobfile_nonpositive_lease_rejected(self):
        with pytest.raises(ValueError, match="lease"):
            JobFileExecutor(lease=0.0)


class TestEmptyBatches:
    """submit_map([]) returns [] without building any pool machinery."""

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_empty_tasks(self, name):
        backend = make_executor(name, jobs=2)
        assert backend.submit_map(_double, []) == []


class TestSerialSemantics:
    def test_results_in_task_order(self):
        tasks = [Task(i, f"t{i}", i) for i in range(5)]
        assert SerialExecutor().submit_map(_double, tasks) == [0, 2, 4, 6, 8]

    def test_retry_budget_recovers_transient_failures(self):
        attempts = {"n": 0}

        def flaky(payload):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return payload

        backend = SerialExecutor(retries=2)
        assert backend.submit_map(flaky, [Task(0, "t", 9)]) == [9]
        assert attempts["n"] == 3

    def test_exhausted_budget_propagates(self):
        def failing(payload):
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError, match="permanent"):
            SerialExecutor(retries=1).submit_map(failing, [Task(0, "t", 0)])

    def test_posthoc_timeout_detected(self):
        def slow(payload):
            time.sleep(0.05)
            return payload

        backend = SerialExecutor(task_timeout=0.01)
        with pytest.raises(TaskTimeoutError, match="task timeout"):
            backend.submit_map(slow, [Task(0, "t", 0)])


class TestThreadSemantics:
    def test_results_in_task_order(self):
        tasks = [Task(i, f"t{i}", i) for i in range(8)]
        backend = ThreadExecutor(jobs=4)
        assert backend.submit_map(_double, tasks) == [2 * i for i in range(8)]

    def test_retry_budget_in_dispatcher(self):
        lock = threading.Lock()
        attempts = {"n": 0}

        def flaky(payload):
            with lock:
                attempts["n"] += 1
                first = attempts["n"] == 1
            if first:
                raise RuntimeError("transient")
            return payload

        backend = ThreadExecutor(jobs=2, retries=1)
        out = backend.submit_map(flaky, [Task(0, "a", 1), Task(1, "b", 2)])
        assert out == [1, 2]

    def test_dispatcher_timeout(self):
        def slow(payload):
            time.sleep(0.5)
            return payload

        backend = ThreadExecutor(jobs=2, task_timeout=0.05)
        with pytest.raises(TaskTimeoutError):
            backend.submit_map(slow, [Task(0, "a", 1), Task(1, "b", 2)])


class TestThreadLocalRegistry:
    """use_registry isolates per-thread, which is what lets the thread
    backend run each task under a private collector without the workers
    clobbering each other's counters."""

    def test_override_is_thread_local(self):
        seen = {}

        def worker(name):
            registry = MetricsRegistry()
            with use_registry(registry):
                get_registry().counter("hits").add(1)
                time.sleep(0.02)  # overlap the other thread's override
                get_registry().counter("hits").add(1)
            seen[name] = registry.snapshot()["counters"]["hits"]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_nested_overrides_unwind(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with use_registry(inner):
                get_registry().counter("c").add(1)
            get_registry().counter("c").add(1)
        assert inner.snapshot()["counters"]["c"] == 1
        assert outer.snapshot()["counters"]["c"] == 1


class TestJobfileProtocol:
    def test_task_name_round_trip(self):
        assert _task_name(7) == "task-00007.pkl"
        assert _task_pos("task-00007.pkl") == 7
        assert _task_pos("task-00042.pkl.host-123") == 42

    def test_resolve_fn(self):
        assert _resolve_fn("math:sqrt")(4.0) == 2.0
        with pytest.raises(TaskError, match="malformed"):
            _resolve_fn("no-colon")

    def test_lambda_rejected(self):
        backend = JobFileExecutor(workers=0)
        with pytest.raises(TaskError, match="importable"):
            backend.submit_map(lambda p: p, [Task(0, "t", 1)])

    def test_worker_exits_on_stop_sentinel(self, tmp_path):
        (tmp_path / "stop").write_text("")
        assert run_worker(tmp_path, startup_timeout=5.0) == 0

    def test_worker_startup_timeout(self, tmp_path):
        with pytest.raises(TaskError, match="job.json"):
            run_worker(tmp_path, startup_timeout=0.0)

    def test_worker_max_idle_exits_when_nothing_to_claim(self, tmp_path):
        """A worker pointed at a job with no claimable tasks gives up
        after ``max_idle`` seconds instead of polling forever."""
        jobdir = tmp_path / "job"
        for sub in ("tasks", "claims", "results"):
            (jobdir / sub).mkdir(parents=True)
        (jobdir / "job.json").write_text(json.dumps(
            {"fn": "math:sqrt", "total": 1, "lease": 5.0}
        ))
        start = time.monotonic()
        assert run_worker(jobdir, poll=0.01, max_idle=0.1) == 0
        assert time.monotonic() - start < 5.0

    def test_worker_max_idle_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_idle"):
            run_worker(tmp_path, max_idle=0.0)

    def test_in_process_worker_drains_job(self, tmp_path):
        """workers=0 + an in-process run_worker thread: the pure
        protocol, no subprocess spawning."""
        jobdir = tmp_path / "job"
        backend = JobFileExecutor(jobdir=jobdir, workers=0, poll=0.02)
        tasks = [Task(i, f"t{i}", float(i)) for i in range(4)]
        drained = {}

        def drain():
            drained["n"] = run_worker(jobdir, poll=0.02)

        thread = threading.Thread(target=drain)
        thread.start()
        try:
            out = backend.submit_map(_double, tasks)
        finally:
            thread.join(timeout=30.0)
        assert out == [0.0, 2.0, 4.0, 6.0]
        assert drained["n"] == 4


@pytest.fixture
def crash_helper(tmp_path, monkeypatch):
    """An importable helper module visible to spawned workers too."""
    (tmp_path / "exec_crash_helper.py").write_text(textwrap.dedent("""
        import os
        from pathlib import Path

        def crash_once(payload):
            sentinel, value = payload
            sentinel = Path(sentinel)
            if not sentinel.exists():
                sentinel.write_text("crashed")
                os._exit(17)  # simulate a worker host dying mid-task
            return value * 2

        def raise_once(payload):
            sentinel, value = payload
            sentinel = Path(sentinel)
            if not sentinel.exists():
                sentinel.write_text("raised")
                raise RuntimeError("transient task failure")
            return value + 1
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH",
        str(tmp_path) if not existing
        else str(tmp_path) + os.pathsep + existing,
    )
    import exec_crash_helper

    return exec_crash_helper


@pytest.mark.slow
class TestJobfileCrashRecovery:
    def test_worker_crash_reclaims_after_lease(self, crash_helper, tmp_path):
        """A dying worker costs a lease, not the campaign: the stale
        claim is re-queued and a respawned worker completes the task."""
        backend = JobFileExecutor(workers=1, lease=0.5, poll=0.02)
        sentinel = tmp_path / "crash-sentinel"
        out = backend.submit_map(crash_helper.crash_once,
                                 [Task(0, "t", (str(sentinel), 21))])
        assert out == [42]
        assert sentinel.read_text() == "crashed"

    def test_reclaim_counts_and_journals(self, crash_helper, tmp_path):
        """Every reclaimed lease is visible: the executor counter, the
        ``jobfile.leases_reclaimed`` metric, and a ``lease-reclaimed``
        journal record (a custom kind old readers skip)."""
        from repro.obs.progress import start_campaign

        backend = JobFileExecutor(workers=1, lease=0.5, poll=0.02)
        journal_path = tmp_path / "journal.jsonl"
        campaign = start_campaign(
            journal_path, None, name="reclaim", total=1, jobs=1,
            plan=[{"index": 0, "label": "t"}],
        )
        sentinel = tmp_path / "reclaim-sentinel"
        registry = MetricsRegistry()
        try:
            with use_registry(registry):
                out = backend.submit_map(
                    crash_helper.crash_once,
                    [Task(0, "t", (str(sentinel), 21))],
                    campaign=campaign,
                )
        finally:
            campaign.finish()
        assert out == [42]
        # The crash guarantees at least one reclaim; a loaded machine can
        # let a live worker's lease go stale too, so pin agreement across
        # the three surfaces rather than an exact count.
        reclaimed = backend.leases_reclaimed
        assert reclaimed >= 1
        assert registry.snapshot()["counters"][
            "jobfile.leases_reclaimed"] == reclaimed
        records = [json.loads(line) for line in
                   journal_path.read_text().splitlines()]
        reclaims = [r for r in records
                    if r.get("record") == "lease-reclaimed"]
        assert len(reclaims) == reclaimed
        assert {r["point"] for r in reclaims} == {0}
        assert {r["label"] for r in reclaims} == {"t"}
        assert reclaims[-1]["total_reclaimed"] == reclaimed

    def test_task_error_spends_retry_budget(self, crash_helper, tmp_path):
        backend = JobFileExecutor(workers=1, retries=1, poll=0.02)
        sentinel = tmp_path / "raise-sentinel"
        out = backend.submit_map(crash_helper.raise_once,
                                 [Task(0, "t", (str(sentinel), 41))])
        assert out == [42]

    def test_task_error_without_budget_propagates(self, crash_helper,
                                                  tmp_path):
        backend = JobFileExecutor(workers=1, retries=0, poll=0.02)
        sentinel = tmp_path / "fatal-sentinel"
        with pytest.raises(RuntimeError, match="transient task failure"):
            backend.submit_map(crash_helper.raise_once,
                               [Task(0, "t", (str(sentinel), 0))])


@pytest.mark.slow
class TestBackendBitIdentity:
    """The hard constraint: every backend byte-equal to SerialExecutor."""

    @pytest.fixture(scope="class")
    def golden_sweep(self):
        spec = SweepSpec(
            name="golden", base=Configuration(
                graph_size=300, cluster_size=10, avg_outdegree=4.0, ttl=4,
            ),
            grid={"cluster_size": (10, 20)}, trials=1, seed=3,
            max_sources=None,
        )
        return spec, run_sweep(spec, executor="serial")

    @pytest.mark.parametrize("name", ("thread", "process", "jobfile"))
    def test_sweep_matrix(self, golden_sweep, name):
        spec, serial = golden_sweep
        other = run_sweep(spec, executor=name, jobs=2)
        assert other.jobs == 2
        assert len(other.points) == len(serial.points)
        for a, b in zip(serial.points, other.points):
            assert a.overrides == b.overrides
            # Byte-equality per point: a combined-list pickle would
            # falsely differ via memoized shared references.
            assert pickle.dumps(a.summary.intervals) == \
                pickle.dumps(b.summary.intervals)
            assert a.summary.config == b.summary.config
        assert serial.registry.snapshot()["counters"] == \
            other.registry.snapshot()["counters"]

    @pytest.fixture(scope="class")
    def golden_chaos(self):
        spec = ChaosSpec(cases=10, base_seed=100, graph_size=150,
                         cluster_size=10, duration=120.0, replay=False)
        return spec, run_chaos(spec, executor="serial")

    @pytest.mark.parametrize("name", ("thread", "process", "jobfile"))
    def test_chaos_matrix(self, golden_chaos, name):
        spec, serial = golden_chaos
        other = run_chaos(spec, executor=name, jobs=2)
        assert other.passed == serial.passed
        assert [c.seed for c in other.cases] == [c.seed for c in serial.cases]
        for a, b in zip(serial.cases, other.cases):
            assert a.digest == b.digest
            assert a.to_dict() == b.to_dict()

    def test_resilience_matrix(self):
        spec = small_resilience()
        serial = run_resilience_spec(spec, executor="serial")
        for name in ("thread", "process"):
            other = run_resilience_spec(spec, executor=name, jobs=2)
            assert len(other.reports) == len(serial.reports)
            for a, b in zip(serial.reports, other.reports):
                assert a.to_dict() == b.to_dict()

    def test_design_risk_matrix(self):
        constraints = DesignConstraints(
            num_users=120, desired_reach_peers=60,
            max_incoming_bps=200_000.0, max_outgoing_bps=200_000.0,
            max_processing_hz=20_000_000.0, max_connections=80,
        )
        spec = RiskSpec(cutoff=0.05, availability_target=0.9, duration=60.0,
                        seed=0, max_candidates=2, mean_recovery=30.0)

        def ranked(name):
            outcome = design_topology_risk(
                constraints, spec, trials=1, max_sources=60,
                executor=name, jobs=None if name == "serial" else 2,
            )
            return [a.to_dict() for a in outcome.assessments]

        serial = ranked("serial")
        # Two candidates, at least one live scenario: a real fan-out.
        assert len(serial) == 2
        assert any(len(a["scenarios"]) > 1 for a in serial)
        for name in ("thread", "process"):
            assert ranked(name) == serial


class TestResilienceSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="replicates"):
            small_resilience(replicates=-1)
        with pytest.raises(ValueError, match="duration"):
            small_resilience(duration=0.0)
        with pytest.raises(ValueError, match="detector"):
            small_resilience(detector="psychic")
        with pytest.raises(ValueError, match="executor"):
            small_resilience(executor="mainframe")

    def test_replicate_zero_reuses_seed(self):
        spec = small_resilience(seed=7)
        assert spec.replicate_seed(0) == 7
        seeds = [spec.replicate_seed(r) for r in range(4)]
        assert len(set(seeds)) == 4

    def test_json_round_trip(self):
        from repro.sim.chaos import generate_recovery_policy

        spec = small_resilience(recovery=generate_recovery_policy(3),
                                detector="gossip", executor="process")
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ResilienceSpec.from_dict(payload) == spec

    def test_from_dict_rejects_unknown(self):
        payload = small_resilience().to_dict()
        payload["nope"] = 1
        with pytest.raises(ValueError, match=r"unknown fields \['nope'\] at ResilienceSpec;"):
            ResilienceSpec.from_dict(payload)

    def test_spec_pickles(self):
        spec = small_resilience()
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.slow
    def test_replicate_zero_matches_legacy_single_run(self):
        spec = small_resilience(replicates=1)
        result = run_resilience_spec(spec)
        instance = build_instance(spec.config, seed=spec.seed)
        legacy = run_resilience(instance, spec.plan, duration=spec.duration,
                                rng=spec.seed)
        assert result.report.to_dict() == legacy.to_dict()

    def test_config_positional_is_a_type_error(self):
        spec = small_resilience(replicates=1, duration=60.0)
        with pytest.raises(TypeError,
                           match="ResilienceSpec.*run_resilience_spec"):
            run_resilience(spec.config, spec.plan, duration=60.0,
                           rng=spec.seed)


class TestEmptyCampaigns:
    def test_empty_sweep_result_and_journal(self, tmp_path):
        # Every grid value invalid (cluster 500 > 200 peers) -> 0 points.
        spec = small_sweep(grid={"cluster_size": (500,)})
        journal = tmp_path / "sweep.jsonl"
        result = run_sweep(spec, journal=str(journal))
        assert len(result) == 0
        assert result.points == []
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        assert records[0]["record"] == "campaign"
        assert records[0]["total_points"] == 0
        assert records[-1]["record"] == "campaign-end"

    def test_empty_chaos_report(self, tmp_path):
        spec = ChaosSpec(cases=0, graph_size=150, cluster_size=10,
                         duration=60.0)
        journal = tmp_path / "chaos.jsonl"
        report = run_chaos(spec, journal=str(journal))
        assert report.passed
        assert len(report.cases) == 0
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        assert records[-1]["record"] == "campaign-end"

    def test_empty_resilience_result(self, tmp_path):
        spec = small_resilience(replicates=0)
        journal = tmp_path / "res.jsonl"
        result = run_resilience_spec(spec, journal=str(journal))
        assert len(result) == 0
        with pytest.raises(ValueError, match="empty"):
            result.report
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        assert records[-1]["record"] == "campaign-end"


class TestSpecExecutorField:
    def test_sweep_spec_validates_executor(self):
        with pytest.raises(ValueError, match="executor"):
            small_sweep(executor="mainframe")
        spec = small_sweep(executor="serial")
        assert SweepSpec.from_dict(spec.to_dict()).executor == "serial"

    def test_spec_executor_drives_run(self):
        result = run_sweep(small_sweep(executor="serial"))
        assert result.jobs == 1
        assert result.manifest.extra["executor"] == "serial"

    def test_argument_overrides_spec(self):
        result = run_sweep(small_sweep(executor="thread"), executor="serial")
        assert result.manifest.extra["executor"] == "serial"
