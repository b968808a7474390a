"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import compare
import measure
import probes
import tracing
from workloads import WORKLOADS, failed_ops

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_subtracts_nested_spans(monkeypatch):
    # rep [0, 10] encloses a [1, 6], which encloses b [2, 5]; b again [7, 8].
    monkeypatch.setattr(tracing, "perf_counter", FakeClock(0, 1, 2, 5, 6, 7, 8, 10))
    tracer = tracing.Tracer()
    tracer.enter("rep")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    assert tracer.stats == {"b": [4, 4, 2], "a": [2, 5, 1], "rep": [4, 10, 1]}
    assert sum(tally[0] for tally in tracer.stats.values()) == 10


def test_install_wraps_where_looked_up_and_uninstall_restores():
    import repro.core.load as load
    import repro.sim.engine as engine

    originals = load.propagate_query, engine.Simulator.__dict__["run_until"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert load.propagate_query is not originals[0]
        assert load.propagate_query.__wrapped__ is originals[0]
    finally:
        tracer.uninstall()
    assert (load.propagate_query, engine.Simulator.__dict__["run_until"]) == originals


def test_traced_call_tallies_and_returns_result():
    tracer = tracing.Tracer()
    double = tracer.wrap(lambda x: 2 * x, "layer.double")
    tracer.enter("rep")
    assert double(3) == 6
    tracer.exit()
    assert tracer.stats["layer.double"][2] == 1
    self_total = sum(tally[0] for tally in tracer.stats.values())
    assert self_total == pytest.approx(tracer.stats["rep"][1], rel=1e-9)


def test_pool_worker_spans_travel_home_in_the_task_registry(monkeypatch):
    from repro.obs.metrics import MetricsRegistry

    tracer = tracing.Tracer()
    registry = MetricsRegistry()
    layer = tracer.wrap(lambda: None, "layer.x")

    def task(payload):
        layer()
        layer()
        return "case", registry, "fragment"

    lane = tracer._lane(task)
    monkeypatch.setattr(tracing.os, "getpid", lambda: -1)  # as in a forked worker
    assert lane(None) == ("case", registry, "fragment")
    stats = tracing.lane_stats(registry)
    assert list(stats) == ["layer.x"] and stats["layer.x"][2] == 2
    assert stats["layer.x"][0] == pytest.approx(stats["layer.x"][1])


def test_reference_seconds_scale_by_the_mean_of_both_refs():
    assert measure.normalise(2.0, 0.1, 0.3) == pytest.approx(2.0 * measure.REF0 / 0.2)
    assert measure.normalise(1.0, measure.REF0, measure.REF0) == pytest.approx(1.0)


def test_summarise_uses_statistics_quartiles():
    s = measure.summarise([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, 1.5, 4.5, 5)
    assert measure.summarise([7.0])["q1"] == 7.0


def _summary(*values):
    return measure.summarise(list(values))


@pytest.mark.parametrize("base, new, better, expected", [
    ((10, 10.1, 10.2), (10, 10.1, 10.2), "lower", "within bound"),
    ((10, 10.1, 10.2), (12, 12.1, 12.2), "lower", "worse"),
    ((10, 10.1, 10.2), (8, 8.1, 8.2), "lower", "better"),
    ((10, 10.1, 10.2), (8, 8.1, 8.2), "higher", "worse"),
    ((10, 10.1, 10.2), (10.5, 10.6, 10.7), "lower", "within bound"),
    # Spread wider than the bound: unresolved either way...
    ((5, 10, 15), (6, 11, 16), "lower", "unresolved"),
    ((5, 10, 15), (4, 9, 14), "lower", "unresolved"),
    # ...unless every new value beats every base value.
    ((9, 10, 15), (4, 6, 8), "lower", "better"),
    # One value per side (peak RSS): no spread, so never better.
    ((100,), (99,), "lower", "within bound"),
    ((100,), (120,), "lower", "worse"),
])
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(_summary(*base), _summary(*new), better, 0.1) == expected


def _results(wall, failed=0):
    metrics = {m["name"]: {**_summary(*wall), "unit": m["unit"]}
               for m in json.loads(compare.BENCHMARK.read_text())["end_to_end"]}
    return {"workloads": {"w": {"attempted": 10, "failed": failed, "metrics": metrics}}}


def test_compare_gate_fails_on_worse_metric_or_more_failures():
    spec = json.loads(compare.BENCHMARK.read_text())
    base = _results((1.0, 1.01, 1.02))
    assert compare.compare(base, _results((1.0, 1.01, 1.02)), spec)[1]
    assert not compare.compare(base, _results((1.0, 1.01, 1.02), failed=1), spec)[1]
    assert not compare.compare(base, {"workloads": {}}, spec)[1]
    rows, ok = compare.compare(base, _results((2.0, 2.01, 2.02)), spec)
    assert not ok and any(row.endswith("worse") for row in rows)


def test_output_check_accepts_the_reference_and_rejects_perturbations():
    references = json.loads((HERE / "references.json").read_text())
    workload = WORKLOADS["mva_sweep"]
    expected = references["0"]["mva_sweep"]
    digest = workload.digest(workload.run(workload.build(0)))
    assert failed_ops(digest, expected) == set()

    op = sorted(expected)[0]
    perturbed = copy.deepcopy(expected)
    perturbed[op]["results_per_query"] *= 1 + 1e-6
    assert failed_ops(digest, perturbed) == {op}
    missing = copy.deepcopy(expected)
    missing["extra-op"] = missing[op]
    assert failed_ops(digest, missing) == {"extra-op"}
    broken = copy.deepcopy(digest)
    broken[op]["finite_positive"] = False
    assert failed_ops(broken, None) == {op}


def test_chaos_digest_mismatch_fails_only_that_case():
    expected = json.loads((HERE / "references.json").read_text())["1"]["chaos_campaign"]
    case = sorted(expected)[3]
    got = copy.deepcopy(expected)
    got[case]["digest"] = "0" * 16
    assert failed_ops(got, expected) == {case}


def test_import_seconds_counts_outermost_package_modules_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy",
        "import time:       200 |        200 |       scipy._lib",
        "import time:       300 |        500 |     scipy.stats",
        "import time:        50 |         50 |     networkx",
        "import time:        10 |       1160 |   repro.stats",
        "import time:        40 |       1200 | repro",
    ])
    times = probes.import_seconds(text)
    assert times == pytest.approx({"import.repro_s": 1200e-6,
                                   "import.scipy_s": 600e-6,
                                   "import.networkx_s": 50e-6})


def test_fit_exponent_recovers_a_power_law():
    sizes = (1000, 5000, 20000)
    assert probes.fit_exponent(sizes, [3e-9 * n ** 1.7 for n in sizes]) == pytest.approx(1.7)
