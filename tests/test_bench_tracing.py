"""The benchmark's per-layer tracer still finds every function it wraps.

``benchmarks/perf/tracing.py`` patches repository functions by name, so
a rename in ``src/`` would crash ``benchmarks/perf/run.py --trace 1``.
These tests read its target list and resolve each target the way
``Tracer._patch`` does, then trace one small resilience run to check
that its faulty and baseline halves still land in separate spans.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.config import Configuration
from repro.sim.faults import FaultPlan
from repro.sim.resilience import run_resilience
from repro.topology.builder import build_instance

TRACING = (Path(__file__).resolve().parents[1]
           / "benchmarks" / "perf" / "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perf_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
#: Every (module, attribute) the tracer patches, its chaos lane included.
TARGETS = ([(module, attr) for module, attr, _ in tracing.LAYERS]
           + [("repro.sim.chaos", "_case_worker")])


@pytest.mark.parametrize("module, attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves_through_its_owner_dict(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in owner.__dict__, f"{module}.{attr} is gone"
    assert callable(owner.__dict__[leaf])


def test_traced_resilience_run_splits_faulty_and_baseline_spans():
    instance = build_instance(Configuration(graph_size=120, cluster_size=10),
                              seed=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_resilience(instance, FaultPlan(message_loss=0.05), duration=60.0,
                       rng=2)
    finally:
        tracer.uninstall()
    assert tracer.stats["sim.resilience.faulty"][2] == 1
    assert tracer.stats["sim.resilience.baseline"][2] == 1
    assert tracer.stats["sim.resilience.faulty"][1] > 0
    assert tracer.stats["sim.resilience.baseline"][1] > 0
