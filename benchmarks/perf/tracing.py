"""Per-layer self times, taken from outside by wrapping each layer's functions.

:func:`install` replaces the public functions of each repository layer
where they are looked up (``repro.core.load.propagate_query``, not only
``repro.core.routing.propagate_query``) with wrappers that open a span
around the call; :func:`uninstall` restores them, so untraced reps run the
untouched code.  A span's self time is its duration minus the durations of
the wrapped spans it encloses, so the self times of all spans inside the
rep's root span add up to the root's duration.

Chaos cases run in forked pool workers.  The wrapper around
``repro.sim.chaos._case_worker`` records each case's spans in the worker
and ships them home inside the case's own metrics registry, which
``run_chaos`` already merges; those lane spans are summed over the worker
processes and are not part of the parent's self-time identity.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

#: Prefix of the registry timers that carry pool-worker spans home.
LANE = "perfbench.lane."


def _resilience_run(args, kwargs) -> str:
    faulty = kwargs.get("faults") is not None
    return "sim.resilience.faulty" if faulty else "sim.resilience.baseline"


#: (module, attribute, span name or name-of-call function).
LAYERS = (
    ("repro.topology.builder", "build_instance", "topology.build_instance"),
    ("repro.sim.chaos", "build_instance", "topology.build_instance"),
    ("repro.core.load", "cluster_expectations", "querymodel.cluster_expectations"),
    ("repro.core.load", "propagate_query", "core.routing.propagate_query"),
    ("repro.sim.network", "propagate_query", "core.routing.propagate_query"),
    ("repro.core.analysis", "evaluate_instance", "core.load.evaluate_instance"),
    ("repro.sim.network", "generate_workload", "sim.schedule.generate_workload"),
    ("repro.sim.fastcore", "generate_workload", "sim.schedule.generate_workload"),
    ("repro.sim.fastcore", "flood_block", "sim.fastcore.flood_block"),
    ("repro.sim.engine", "Simulator.run_until", "sim.engine.run_until"),
    ("repro.sim.network", "sampled_propagation", "sim.faults.sampled_propagation"),
    ("repro.sim.network", "lossy_accumulate", "sim.faults.lossy_accumulate"),
    ("repro.sim.gossip", "GossipDetector.on_flood", "sim.gossip.on_flood"),
    ("repro.sim.resilience", "simulate_instance", _resilience_run),
    ("repro.exec.local", "SerialExecutor.submit_map", "exec.submit_map"),
    ("repro.exec.local", "ProcessExecutor.submit_map", "exec.submit_map"),
)


class Tracer:
    """Span stack plus per-name ``[self_s, total_s, calls]`` tallies."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []  # [name, start, seconds in children]
        self._patches: list[tuple] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        tally = self.stats.setdefault(name, [0.0, 0.0, 0])
        tally[0] += duration - children
        tally[1] += duration
        tally[2] += 1

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name(args, kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def _lane(self, fn):
        """Wrap a pool-worker task so its spans travel home in its registry."""
        home = os.getpid()

        @functools.wraps(fn)
        def traced(payload):
            if os.getpid() == home:  # ran in-process: spans are already ours
                return fn(payload)
            self.stats, self._stack = {}, []
            case, registry, fragment = fn(payload)
            for name, (self_s, total_s, calls) in self.stats.items():
                own = registry.timer(f"{LANE}self.{name}")
                own.count += calls
                own.total_seconds += self_s
                registry.timer(f"{LANE}total.{name}").total_seconds += total_s
            return case, registry, fragment
        return traced

    def install(self) -> None:
        for module, attr, name in LAYERS:
            self._patch(module, attr, functools.partial(self.wrap, name=name))
        self._patch("repro.sim.chaos", "_case_worker", self._lane)

    def _patch(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        self._patches.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)


def lane_stats(registry) -> dict[str, list]:
    """Pool-worker span tallies recovered from a merged campaign registry."""
    timers = registry.snapshot()["timers"]
    stats = {}
    for key, timer in timers.items():
        if key.startswith(LANE + "self."):
            name = key[len(LANE + "self."):]
            total = timers[f"{LANE}total.{name}"]["total_seconds"]
            stats[name] = [timer["total_seconds"], total, timer["count"]]
    return stats
