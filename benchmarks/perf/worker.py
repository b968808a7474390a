"""One workload's long-lived process: build the inputs once, then run reps.

``run.py`` starts one :func:`serve` process per workload and sends it
commands over a pipe: ``"rep"`` (one timed, checked rep), ``"trace"`` (one
traced rep plus the probes) and ``"stop"``.  Every rep runs between two
reference-kernel runs, after the instance cache is cleared, because a
user pays the instance build on every command-line run.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from measure import normalise, ref_kernel

REFERENCES = Path(__file__).resolve().parent / "references.json"
#: Where probes may write; inside the checkout, ignored by git.
SCRATCH = Path(__file__).resolve().parents[2] / ".bench_build" / "perfbench"

#: Spans reported as ``<span>.s`` (self seconds) and ``<span>.calls``.
COUNTED_SPANS = ("topology.build_instance", "querymodel.cluster_expectations",
                 "core.routing.propagate_query", "sim.fastcore.flood_block",
                 "sim.faults.sampled_propagation", "sim.gossip.on_flood")
#: Spans reported as ``<span>.s`` alone.
SPANS = ("sim.schedule.generate_workload", "sim.faults.lossy_accumulate",
         "exec.submit_map")
#: Spans that enclose other traced spans, reported as ``<span>.self_s``.
ENCLOSING_SPANS = ("core.load.evaluate_instance", "sim.engine.run_until")
#: The repository's own registry timers, reported as ``<timer>.s``.
TIMERS = ("load.expectations", "load.queries", "load.joins", "load.updates",
          "sim.array.flood", "sim.array.delivery", "sim.array.churn",
          "sim.array.updates")
COUNTERS = ("load.query_sources_evaluated", "sim.query_messages",
            "sim.engine.events", "sim.flood_messages_dropped",
            "sim.gossip_rumors")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(stats: dict, rep, factor: float) -> dict:
    """Per-layer metrics of one traced rep; times in reference seconds."""
    def tally(name: str) -> list:
        return stats.get(name, [0.0, 0.0, 0])

    snapshot = rep.registry.snapshot()
    counters, timers = snapshot["counters"], snapshot["timers"]
    out = {}
    for name in COUNTED_SPANS:
        out[f"{name}.calls"] = tally(name)[2]
    for name in COUNTED_SPANS + SPANS:
        out[f"{name}.s"] = tally(name)[0] * factor
    for name in ENCLOSING_SPANS:
        out[f"{name}.self_s"] = tally(name)[0] * factor
    for kind in ("baseline", "faulty"):
        out[f"sim.resilience.{kind}_s"] = tally(f"sim.resilience.{kind}")[1] * factor
    for name in TIMERS:
        out[f"{name}.s"] = timers.get(name, {}).get("total_seconds", 0.0) * factor
    for name in COUNTERS:
        out[name] = counters.get(name, 0.0)
    out["sim.array.messages_per_s"] = _rate(out["sim.query_messages"],
                                            out["sim.array.flood.s"])
    out["sim.engine.events_per_s"] = _rate(
        out["sim.engine.events"], tally("sim.engine.run_until")[1] * factor)
    tasks = list(rep.phases.values())
    dispatch = tally("exec.submit_map")[1]
    out["exec.task_busy_s"] = sum(tasks) * factor
    out["exec.lane_idle_frac"] = (max(0.0, 1.0 - sum(tasks) / (rep.jobs * dispatch))
                                  if dispatch > 0 else 0.0)
    out["exec.straggler_ratio"] = (max(tasks) / statistics.median(tasks)
                                   if tasks else 0.0)
    return out


class Runner:
    """The workload's inputs, its output references and its check tallies."""

    def __init__(self, name: str, seed: int) -> None:
        from workloads import WORKLOADS

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.inputs = self.workload.build(seed)
        references = json.loads(REFERENCES.read_text())
        self.expected = references.get(str(seed), {}).get(name)
        self.first: dict | None = None
        self.walls: list[float] = []
        self.attempted = self.failed = 0

    def _rep(self, tracer=None):
        from repro.topology.builder import clear_instance_cache
        from workloads import failed_ops

        clear_instance_cache()
        before = ref_kernel()
        if tracer is not None:
            tracer.install()
            tracer.enter("rep")
        start = perf_counter()
        try:
            rep = self.workload.run(self.inputs)
        finally:
            raw = perf_counter() - start
            if tracer is not None:
                tracer.exit()
                tracer.uninstall()
        after = ref_kernel()
        digest = self.workload.digest(rep)
        self.first = self.first or digest
        bad = failed_ops(digest, self.expected) | failed_ops(digest, self.first)
        self.attempted += len(set(digest) | set(self.expected or ()))
        self.failed += len(bad)
        return rep, raw, before, after

    def rep(self) -> dict:
        rep, raw, before, after = self._rep()
        wall = normalise(raw, before, after)
        self.walls.append(wall)
        # The largest process of the workload's tree: a forked child's peak
        # already counts the pages it shares with this process, so a sum
        # would count them twice.
        peak_kb = max(resource.getrusage(who).ru_maxrss for who in
                      (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        return {"raw": raw, "ref": (before + after) / 2, "wall": wall,
                "work": self.workload.work(rep), "peak_rss_mb": peak_kb / 1024}

    def trace(self) -> dict:
        from probes import journal_overhead, noop_task_ms, scaling_exponents
        from tracing import Tracer, lane_stats

        tracer = Tracer()
        rep, _, before, after = self._rep(tracer)
        factor = normalise(1.0, before, after)
        root_self, root_total, _ = tracer.stats.pop("rep")
        attributed = sum(tally[0] for tally in tracer.stats.values())
        identity_ok = abs(attributed + root_self - root_total) <= 0.01 * root_total
        stats = tracer.stats
        for name, tally in lane_stats(rep.registry).items():
            stats[name] = [a + b for a, b in zip(stats.get(name, [0.0, 0.0, 0]), tally)]
        out = layer_metrics(stats, rep, factor)
        out["trace.wall_s"] = root_total * factor
        out["unattributed_s"] = root_self * factor
        out["trace.overhead"] = (root_total * factor / statistics.median(self.walls)
                                 - 1.0)

        before = ref_kernel()
        noop = noop_task_ms()
        after = ref_kernel()
        out.update({k: normalise(v, before, after) for k, v in noop.items()})
        out.update(scaling_exponents(self.seed))
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            out["obs.journal_overhead"] = journal_overhead(self.seed, Path(tmp))
        return {"metrics": out, "identity_ok": identity_ok}

    def stop(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed}


def serve(conn, name: str, seed: int) -> None:
    """Answer ``run.py``'s commands until ``"stop"``; errors travel home."""
    # A spawned process inherits "spawn" as its default start method; give
    # the repository's process pools the platform default a user's
    # process has, or every pool worker would re-import repro.
    multiprocessing.set_start_method(multiprocessing.get_all_start_methods()[0],
                                     force=True)
    try:
        runner = Runner(name, seed)
        conn.send(("ok", None))
        while True:
            command = conn.recv()
            conn.send(("ok", getattr(runner, command)()))
            if command == "stop":
                return
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()
