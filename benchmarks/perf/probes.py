"""Measurements a single traced rep cannot give: imports, dispatch, scaling.

* :func:`import_seconds` reads ``python -X importtime`` output.
* :func:`noop_task_ms` is the per-task cost of each executor backend on
  tasks that do nothing, so what remains is dispatch.
* :func:`scaling_exponents` fits ``seconds ~ peers ** k`` over a size
  ladder for the exact mean-value analysis and the array simulator.
* :func:`journal_overhead` compares warmed, interleaved ``sim_array`` reps
  with and without a journaled one-point campaign around them.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from time import perf_counter

PACKAGES = ("repro", "scipy", "networkx")


def import_seconds(importtime: str) -> dict[str, float]:
    """Cumulative import seconds per package from ``-X importtime`` stderr.

    A package's time is the sum of the cumulative times of its outermost
    modules, so a submodule imported while its package was importing is not
    counted twice.  ``repro`` includes the scipy and networkx it imports.
    """
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(),
                     int(parts[1]) / 1e6))
    totals = dict.fromkeys(PACKAGES, 0.0)
    ancestors: list[tuple[int, str]] = []
    # Lines are printed in post-order; reversed, each parent precedes its
    # children, so the stack holds exactly the enclosing imports.
    for depth, name, seconds in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if package in totals and all(a.split(".")[0] != package
                                     for _, a in ancestors):
            totals[package] += seconds
        ancestors.append((depth, name))
    return {f"import.{p}_s": s for p, s in totals.items()}


def _seconds(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def _noop(payload):
    return payload


def noop_task_ms(tasks: int = 64, trials: int = 3) -> dict[str, float]:
    """Median milliseconds per no-op task on each executor backend.

    ``process`` takes the chunked ``pool.map`` path; ``retries=1`` selects
    the one-future-per-task path (``process_futures``).  No journal is
    attached: a journal also switches the process pool to futures.
    """
    from repro.exec import Task
    from repro.exec.local import ProcessExecutor, SerialExecutor, ThreadExecutor

    backends = {
        "serial": SerialExecutor(),
        "thread": ThreadExecutor(jobs=2),
        "process": ProcessExecutor(jobs=2),
        "process_futures": ProcessExecutor(jobs=2, retries=1),
    }
    batch = [Task(i, f"noop[{i}]", i) for i in range(tasks)]
    out = {}
    for name, backend in backends.items():
        times = [_seconds(lambda: backend.submit_map(_noop, batch))
                 for _ in range(trials)]
        out[f"exec.{name}.noop_task_ms"] = 1000 * statistics.median(times) / tasks
    return out


def fit_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def scaling_exponents(seed: int) -> dict[str, float]:
    """Size-ladder exponents of exact MVA and of the array simulator."""
    from repro.core.load import evaluate_instance
    from repro.sim.network import simulate_instance
    from repro.topology.builder import build_instance
    from workloads import power_law

    def ladder(sizes, run) -> float:
        seconds = []
        for peers in sizes:
            instance = build_instance(power_law(peers), seed=seed)
            seconds.append(_seconds(lambda: run(instance)))
        return fit_exponent(sizes, seconds)

    return {
        "scaling.mva_exact.exponent": ladder(
            (1000, 5000, 20000), evaluate_instance),
        "scaling.sim_array.exponent": ladder(
            (2000, 5000, 20000), lambda instance: simulate_instance(
                instance, duration=600.0, rng=seed, engine="array")),
    }


def journal_overhead(seed: int, scratch: Path, pairs: int = 3) -> float:
    """Median over adjacent pairs of journaled / plain ``sim_array`` rep, minus 1.

    Pairs alternate which side runs first, so drift in host speed falls
    on both sides equally.
    """
    from repro.obs.progress import ProgressTracker, start_campaign
    from workloads import WORKLOADS

    sim = WORKLOADS["sim_array"]
    inputs = sim.build(seed)

    def plain() -> None:
        sim.run(inputs)

    def journaled() -> None:
        campaign = start_campaign(scratch / "journal.jsonl",
                                  ProgressTracker(stream=None),
                                  name="perfbench", total=1)
        campaign.point_started(0, sim.name)
        rep = sim.run(inputs)
        campaign.point_finished(0, sim.name,
                                counters=rep.registry.snapshot()["counters"])
        campaign.finish()

    plain()  # warm-up
    ratios = []
    for i in range(pairs):
        order = (plain, journaled) if i % 2 == 0 else (journaled, plain)
        times = {fn: _seconds(fn) for fn in order}
        ratios.append(times[journaled] / times[plain])
    return statistics.median(ratios) - 1.0
