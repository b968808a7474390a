"""Benchmark-harness plumbing.

Every file in this directory regenerates one table or figure of the
paper (see DESIGN.md section 4 for the index).  Each benchmark runs the
experiment once under pytest-benchmark's timer and *emits* the paper-style
rows/series: printed to stdout (visible with ``pytest -s`` or in the
captured-output section) and written to ``benchmarks/results/<id>.txt``
so EXPERIMENTS.md can cite them.

Scale: benches run at the paper's network sizes where that stays within
tens of seconds and at documented reduced sizes otherwise.  The sizes
are fixed: the paper's shape assertions hold at them, not at arbitrary
smaller ones.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def emit():
    """Print a result block and persist it under benchmarks/results/."""

    def _emit(experiment_id: str, text: str) -> None:
        banner = f"===== {experiment_id} ====="
        print(f"\n{banner}\n{text}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")

    return _emit


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer and return its value.

    The experiments are deterministic analyses, not microbenchmarks, so a
    single round is both honest and fast.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
