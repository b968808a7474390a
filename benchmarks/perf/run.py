"""Time the benchmark workloads and check their outputs.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--out results.json]

Run from the repository root; ``src/`` is put on the path.  Each workload
runs in its own long-lived process (``worker.py``): one warm-up rep, then
reps interleaved round-robin across workloads until ``--seconds`` per
workload have passed and every workload has at least ``MIN_REPS`` reps.
Set-up time is measured first, in fresh interpreters.  ``--trace 1`` adds
one traced rep and the probes per workload.

The human-readable table goes to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` (medians) without tracing, its
per-layer metrics with it.  With several workloads each metric name is
prefixed by ``<workload>.``.  ``--out`` writes every rep's values.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

from measure import normalise, ref_kernel, summarise
from probes import import_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
MIN_REPS = 7
SETUP_SPAWNS = 5
#: Seconds one worker command may take before the run is abandoned.
COMMAND_TIMEOUT = 170.0


def setup_probe(name: str, seed: int, trace: bool) -> dict:
    """Median over fresh interpreters of import + input build, in ref-s."""
    walls, builds, imports = [], [], []
    command = [sys.executable, *(["-X", "importtime"] if trace else []),
               str(HERE / "setup_probe.py"), name, str(seed)]
    for _ in range(SETUP_SPAWNS):
        before = ref_kernel()
        start = perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              check=True, timeout=COMMAND_TIMEOUT)
        raw = perf_counter() - start
        after = ref_kernel()
        factor = normalise(1.0, before, after)
        walls.append(raw * factor)
        builds.append(json.loads(done.stdout.splitlines()[-1])["build_s"] * factor)
        imports.append({k: v * factor for k, v in import_seconds(done.stderr).items()})
    layers = {k: statistics.median(i[k] for i in imports) for k in imports[0]}
    layers["setup.build_s"] = statistics.median(builds)
    return {"setup_s": walls, "layers": layers}


class Worker:
    """A workload's process and the pipe ``run.py`` commands it through."""

    def __init__(self, context, name: str, seed: int) -> None:
        import worker

        self.conn, child = context.Pipe()
        self.process = context.Process(target=worker.serve,
                                       args=(child, name, seed))
        self.process.start()
        child.close()
        try:
            self._reply()
        except BaseException:
            self.close()
            raise

    def _reply(self):
        if not self.conn.poll(COMMAND_TIMEOUT):
            raise RuntimeError("worker did not answer in time")
        status, payload = self.conn.recv()
        if status != "ok":
            raise RuntimeError(payload)
        return payload

    def ask(self, command: str):
        self.conn.send(command)
        return self._reply()

    def close(self) -> None:
        self.process.join(timeout=10)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self.conn.close()


def measure(names, seed: int, seconds: float, trace: bool) -> dict:
    """Run every workload; returns per-workload reps, layers and check tallies."""
    setups = {name: setup_probe(name, seed, trace) for name in names}
    context = multiprocessing.get_context("spawn")
    workers: dict[str, Worker] = {}
    try:
        for name in names:
            workers[name] = Worker(context, name, seed)
        for name in names:
            workers[name].ask("rep")  # warm-up
        reps: dict[str, list] = {name: [] for name in names}
        start = perf_counter()
        while (len(reps[names[0]]) < MIN_REPS
               or perf_counter() - start < seconds * len(names)):
            for name in names:
                reps[name].append(workers[name].ask("rep"))
        traces = {name: workers[name].ask("trace") for name in names} if trace else {}
        tallies = {name: workers[name].ask("stop") for name in names}
    finally:
        for w in workers.values():
            w.close()
        # Starting spawn processes also started multiprocessing's resource
        # tracker; stop it and wait for it like every other child.
        resource_tracker._resource_tracker._stop()
    return {name: {"setup": setups[name], "reps": reps[name],
                   "trace": traces.get(name), **tallies[name]}
            for name in names}


def results_of(run: dict, spec: dict) -> dict:
    """One workload's metrics, context and per-layer values."""
    reps = run["reps"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    values = {
        "setup_s": run["setup"]["setup_s"],
        "wall_s": [r["wall"] for r in reps],
        "work_per_s": [r["work"] / r["wall"] for r in reps],
        "peak_rss_mb": [reps[-1]["peak_rss_mb"]],
    }
    out = {
        "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {m: {"unit": units[m], **summarise(v)} for m, v in values.items()},
        "context": {"raw_wall_s": summarise([r["raw"] for r in reps]),
                    "ref_s": summarise([r["ref"] for r in reps])},
    }
    if run["trace"] is not None:
        layers = {**run["trace"]["metrics"], **run["setup"]["layers"]}
        out["per_layer"] = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                            for m in spec["per_layer"]}
        out["identity_ok"] = run["trace"]["identity_ok"]
    return out


def print_table(results: dict) -> None:
    for name, res in results.items():
        print(f"== {name}: {res['failed']} of {res['attempted']} operations failed")
        for metric, s in {**res["metrics"], **res["context"]}.items():
            iqr = s["q3"] - s["q1"]
            print(f"  {metric:<14} {s['median']:>12.4f} {s.get('unit', 's'):<6}"
                  f" n={s['n']:<3} IQR {iqr:.4f} ({iqr / s['median']:.1%})")
        for metric, v in res.get("per_layer", {}).items():
            print(f"  {metric:<40} {v['value']:>14.6g} {v['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    names = list(dict.fromkeys(args.workload or known))
    # Workers and set-up probes inherit these: they find this checkout's
    # repro, and numpy starts no thread pools beyond the two cores.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        runs = measure(names, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    results = {name: results_of(run, spec) for name, run in runs.items()}
    print_table(results)
    if args.out is not None:
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                        "trace": args.trace, "workloads": results},
                                       indent=1))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, res in results.items():
        for m in wanted:
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            value = (res["per_layer"][m["name"]]["value"] if args.trace
                     else res["metrics"][m["name"]]["median"])
            metrics[key] = {"value": value, "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(r.get("identity_ok", True) for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
