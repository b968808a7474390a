"""The four benchmark workloads: inputs from a seed, one rep, an output digest.

Each workload is one closed loop driven by one process: the next rep
starts only when the previous one returned.  ``build(seed)`` makes the
inputs (the only place the seed enters), ``run(inputs)`` is one timed rep,
and ``digest(rep)`` reduces its outputs to the values the output check
compares, keyed by operation (a sweep point, a run, or a chaos case).
Boolean digest fields are invariants that must hold for any seed.

Sizes are chosen so one rep takes about a second on a 2-core host, which
lets a 12-second run hold one warm-up and at least seven reps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.api import SweepSpec, run_sweep
from repro.config import Configuration, GraphType
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.chaos import ChaosSpec, run_chaos
from repro.sim.faults import CrashSpec, FaultPlan
from repro.sim.monitor import DetectorSpec
from repro.sim.network import simulate_instance
from repro.sim.recovery import RecoveryPolicy
from repro.sim.resilience import run_resilience
from repro.topology.builder import build_instance


@dataclass
class Rep:
    """What one rep returns: its output plus the run's observability record."""

    output: object
    registry: MetricsRegistry
    #: Per-task seconds of an executor campaign (empty without one).
    phases: dict = field(default_factory=dict)
    jobs: int = 1


def power_law(graph_size: int) -> Configuration:
    return Configuration(graph_type=GraphType.POWER_LAW, graph_size=graph_size,
                         cluster_size=10, avg_outdegree=3.1, ttl=7)


def _finite_positive(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


class MvaSweep:
    """Serial exact mean-value sweep over cluster size (Figs. 4-8 path)."""

    name = "mva_sweep"

    def build(self, seed: int) -> SweepSpec:
        return SweepSpec(name=self.name, base=power_law(4000),
                         grid={"cluster_size": (5, 10, 20, 50, 100)},
                         trials=1, seed=seed, max_sources=None)

    def run(self, spec: SweepSpec) -> Rep:
        result = run_sweep(spec, jobs=1)
        return Rep(result, result.registry, dict(result.manifest.phases),
                   result.jobs)

    def work(self, rep: Rep) -> float:
        return rep.registry.counter("load.query_sources_evaluated").value

    def digest(self, rep: Rep) -> dict:
        out = {}
        for point in rep.output.points:
            values = {name: point.summary.mean(name) for name in (
                "aggregate_incoming_bps", "aggregate_outgoing_bps",
                "aggregate_processing_hz", "results_per_query")}
            values["finite_positive"] = _finite_positive(*values.values())
            out[point.label] = values
        return out


class SimArray:
    """Fault-free vectorised simulation (``engine="array"``)."""

    name = "sim_array"
    duration = 3600.0

    def build(self, seed: int):
        return build_instance(power_law(10000), seed=seed), seed

    def run(self, inputs) -> Rep:
        instance, seed = inputs
        registry = MetricsRegistry()
        with use_registry(registry):
            report = simulate_instance(instance, duration=self.duration,
                                       rng=seed, engine="array")
        return Rep(report, registry)

    def work(self, rep: Rep) -> float:
        return self.duration

    def digest(self, rep: Rep) -> dict:
        report = rep.output
        messages = int(rep.registry.counter("sim.query_messages").value)
        load = float(report.superpeer_incoming_bps.mean())
        return {"run": {
            "num_queries": report.num_queries,
            "num_joins": report.num_joins,
            "num_updates": report.num_updates,
            "query_messages": messages,
            "superpeer_incoming_bps": load,
            "flooded": report.num_queries > 0 and messages >= report.num_queries,
            "finite_positive": _finite_positive(load),
        }}


class ResilienceGossip:
    """One faulty run with gossip detection and recovery, plus its baseline."""

    name = "resilience_gossip"
    duration = 100.0

    def build(self, seed: int):
        instance = build_instance(
            Configuration(graph_size=600, cluster_size=10, redundancy=True),
            seed=seed)
        plan = FaultPlan(message_loss=0.03, crash=CrashSpec(mean_recovery=90.0))
        policy = RecoveryPolicy(detector=DetectorSpec(mode="gossip"))
        return instance, plan, policy, seed

    def run(self, inputs) -> Rep:
        instance, plan, policy, seed = inputs
        registry = MetricsRegistry()
        with use_registry(registry):
            report = run_resilience(instance, plan, duration=self.duration,
                                    rng=seed, recovery=policy)
        return Rep(report, registry)

    def work(self, rep: Rep) -> float:
        return 2 * self.duration  # the faulty run and its baseline

    def digest(self, rep: Rep) -> dict:
        out = rep.output.outcome
        values = {name: int(getattr(out, name)) for name in (
            "queries_attempted", "queries_failed", "partner_crashes",
            "promotions", "gossip_rumors_sent", "gossip_suspicions",
            "gossip_refutations")}
        values["conserved"] = (
            out.flood_messages_attempted
            == out.flood_messages_delivered + out.flood_messages_lost
            and 0 <= out.queries_failed <= out.queries_attempted
            and out.queries_attempted > 0)
        return {"run": values}


class ChaosCampaign:
    """Many small seeded chaos cases fanned out over two worker processes."""

    name = "chaos_campaign"
    cases = 24

    def build(self, seed: int) -> ChaosSpec:
        return ChaosSpec(cases=self.cases, base_seed=seed * self.cases,
                         graph_size=60, duration=60.0, recovery=True,
                         replay=True, detector="gossip", executor="process")

    def run(self, spec: ChaosSpec) -> Rep:
        report = run_chaos(spec, jobs=2)
        return Rep(report, report.registry, dict(report.manifest.phases),
                   report.jobs)

    def work(self, rep: Rep) -> float:
        return len(rep.output.cases)

    def digest(self, rep: Rep) -> dict:
        return {f"chaos[{case.seed}]": {"digest": case.digest,
                                        "passed": case.passed}
                for case in rep.output.cases}


WORKLOADS = {w.name: w for w in (MvaSweep(), SimArray(), ResilienceGossip(),
                                 ChaosCampaign())}


def _same(got, want) -> bool:
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9)
    return got == want


def failed_ops(digest: dict, expected: dict | None) -> set[str]:
    """Operations whose invariants fail or whose values differ from ``expected``.

    ``expected`` is a committed reference or the run's first rep; ``None``
    checks the invariants alone.  An expected operation the digest lacks
    counts as failed.
    """
    bad = {op for op, values in digest.items()
           if not all(v for v in values.values() if isinstance(v, bool))}
    if expected is not None:
        for op in set(digest) | set(expected):
            got, want = digest.get(op), expected.get(op)
            if (got is None or want is None or set(got) != set(want)
                    or not all(_same(got[k], want[k]) for k in want)):
                bad.add(op)
    return bad
