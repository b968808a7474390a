"""The pluggable executor subsystem (``repro.exec``).

The load-bearing contracts:

* every backend — serial, thread, process — returns bit-identical
  results in stable task order (the dispatch strategy may move work,
  never change it);
* ``make_executor`` resolves names/instances under the documented rules
  (``jobs`` without an executor implies ``process``; ``jobs`` is at
  least 1 on every backend);
* retry budgets behave as specified;
* empty campaigns return well-formed empty results and still close the
  run journal.
"""

from __future__ import annotations

import json
import pickle
import threading
import time

import pytest

from repro.api import SweepSpec, run_sweep
from repro.config import Configuration
from repro.core.design import DesignConstraints
from repro.exec import (
    EXECUTOR_NAMES,
    ProcessExecutor,
    SerialExecutor,
    Task,
    ThreadExecutor,
    make_executor,
)
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

    def test_instance_passes_through(self):
        backend = SerialExecutor()
        assert make_executor(backend) is backend

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            make_executor(jobs=-1)

    def test_jobs_zero_rejected(self):
        for name in (None, *EXECUTOR_NAMES):
            with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
                make_executor(name, jobs=0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="mainframe"):
            make_executor("mainframe")

    def test_jobfile_is_an_unknown_name(self):
        with pytest.raises(ValueError,
                           match="expected one of serial, thread, process"):
            make_executor("jobfile")

    def test_names_registry_is_exhaustive(self):
        assert EXECUTOR_NAMES == ("serial", "thread", "process")
        for name in EXECUTOR_NAMES:
            assert make_executor(name, jobs=1).name == name


SPECS_WITH_EXECUTOR = {
    "SweepSpec": lambda **kw: small_sweep(**kw),
    "ChaosSpec": lambda **kw: ChaosSpec(**kw),
    "ResilienceSpec": lambda **kw: small_resilience(**kw),
    "RiskSpec": lambda **kw: RiskSpec(**kw),
}


@pytest.mark.parametrize("spec", SPECS_WITH_EXECUTOR)
def test_spec_executor_field_refuses_jobfile(spec):
    """Every spec's ``executor`` field takes only the three backends,
    whether it is set directly or read back from JSON."""
    build = SPECS_WITH_EXECUTOR[spec]
    message = (r"executor must be one of \('serial', 'thread', 'process'\) "
               r"or None, got 'jobfile'")
    with pytest.raises(ValueError, match=message):
        build(executor="jobfile")
    payload = build().to_dict()
    payload["executor"] = "jobfile"
    with pytest.raises(ValueError, match=message):
        type(build()).from_dict(payload)


class TestExecutorValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            SerialExecutor(retries=-1)


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


def _fail_first_or_mark(payload):
    """Task 0 fails at once; every other task sleeps, then leaves a
    marker file."""
    index, directory = payload
    if index == 0:
        raise RuntimeError("first task fails")
    time.sleep(0.2)
    (directory / f"task{index}").touch()
    return index


def test_process_failure_cancels_queued_tasks(tmp_path):
    tasks = [Task(i, f"t{i}", (i, tmp_path)) for i in range(10)]
    with pytest.raises(RuntimeError, match="first task fails"):
        ProcessExecutor(jobs=2).submit_map(_fail_first_or_mark, tasks)
    assert len(list(tmp_path.iterdir())) < 9


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

    @pytest.mark.parametrize("name", ("thread", "process"))
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

    @pytest.mark.parametrize("name", ("thread", "process"))
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
            assert other.to_dict() == serial.to_dict()

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
        with pytest.raises(ValueError, match="executor"):
            small_resilience(executor="mainframe")

    def test_replicate_zero_reuses_seed(self):
        spec = small_resilience(seed=7)
        assert spec.replicate_seed(0) == 7
        seeds = [spec.replicate_seed(r) for r in range(4)]
        assert len(set(seeds)) == 4

    def test_json_round_trip(self):
        from repro.sim.chaos import generate_recovery_policy

        spec = small_resilience(
            recovery=generate_recovery_policy(3, detector="gossip"),
            executor="process")
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
