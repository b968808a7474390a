"""Degraded-mode measurement: run the simulator under a fault plan.

Section 3.2's reliability claim — "if one partner fails, the others may
continue to service clients ... the probability that all partners will
fail before any failed partner can be replaced is much lower than the
probability of a single super-peer failing" — is checked here at the
message level rather than by the isolated renewal model in
:mod:`repro.sim.churn`: the same workload is simulated fault-free and
under a :class:`~repro.sim.faults.FaultPlan`, and the difference is
summarized as user-visible degradation (query success rate, results
lost, orphaned-client-seconds, failovers, time-to-recover) plus the load
inflation the survivors absorb.

The fault layer is pay-for-what-you-use: under a null plan the degraded
run *is* the baseline run (bit-identical loads), which
``tests/test_resilience.py`` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codec import Codec, encode
from ..config import Configuration
from ..exec import EXECUTOR_NAMES
from ..exec.base import Executor, Task, collect, run_campaign
from ..obs.manifest import RunManifest
from ..obs.metrics import MetricsRegistry, get_registry
from ..querymodel.distributions import QueryModel
from ..stats.rng import derive_seed
from ..topology.builder import NetworkInstance, build_instance_cached
from .faults import FaultOutcome, FaultPlan
from .network import ENGINES, SimulationReport, simulate_instance
from .recovery import RecoveryPolicy


@dataclass(frozen=True)
class ResilienceReport(Codec):
    """Fault-free baseline vs degraded run of one instance, one plan.

    When the degraded run carried a :class:`RecoveryPolicy` it is
    recorded here and the recovery fields (``detection_lag``,
    ``rehomed_clients``, ``promotions``, ``repair_cost``) are live;
    without one they are inert zeros and the report reads exactly as it
    did before the recovery subsystem existed.
    """

    plan: FaultPlan
    duration: float
    baseline: SimulationReport
    degraded: SimulationReport
    outcome: FaultOutcome
    recovery: RecoveryPolicy | None = None

    @property
    def partners(self) -> int:
        """Partners per cluster (k) of the measured instance."""
        return self.degraded.partners

    # --- headline degradation metrics ----------------------------------------

    @property
    def query_success_rate(self) -> float:
        """Fraction of attempted queries whose user got >= 1 result."""
        return self.outcome.query_success_rate

    @property
    def results_lost_fraction(self) -> float:
        """Fraction of the fault-free run's results that never arrived.

        The two runs share one workload stream (common random numbers),
        so total delivered results are directly comparable — and totals,
        unlike per-query means, charge an orphaned query for everything
        it would have returned.
        """
        base = self.baseline.mean_results_per_query * self.baseline.num_queries
        if base <= 0:
            return 0.0
        degraded = (
            self.degraded.mean_results_per_query * self.degraded.num_queries
        )
        return 1.0 - degraded / base

    @property
    def orphaned_client_seconds(self) -> float:
        return self.outcome.orphaned_client_seconds

    @property
    def failover_count(self) -> int:
        return self.outcome.failovers

    @property
    def longest_outage(self) -> float:
        return self.outcome.longest_outage

    @property
    def mean_time_to_recover(self) -> float:
        return self.outcome.mean_time_to_recover

    # --- recovery metrics (zero/empty without a RecoveryPolicy) ---------------

    @property
    def detection_lag(self) -> float:
        """Mean crash -> confirmed-detection delay, seconds."""
        return self.outcome.mean_detection_lag

    @property
    def false_suspicion_count(self) -> int:
        """Live partners wrongly suspected by the failure detector."""
        return self.outcome.false_suspicions

    @property
    def gossip_overhead(self) -> float:
        """Total membership-protocol traffic in bytes (zero under the
        oracle detector, which learns about crashes for free)."""
        return self.outcome.gossip_bytes

    def detection_lag_distribution(self) -> dict[str, float]:
        """Summary of the crash -> confirmed-detection delays.

        Returns ``{count, min, mean, p50, p90, max}`` (an empty dict when
        nothing was detected).  Under the oracle the spread is one
        heartbeat interval wide; under gossip it also carries suspicion
        timers, corroboration, and partition-induced stragglers.
        """
        lags = self.outcome.detection_lags
        if not lags:
            return {}
        arr = np.asarray(lags, dtype=float)
        return {
            "count": int(arr.size),
            "min": float(arr.min()),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
            "max": float(arr.max()),
        }

    @property
    def rehomed_clients(self) -> int:
        """Orphaned clients moved to surviving super-peers."""
        return self.outcome.rehomed_clients

    @property
    def promotions(self) -> int:
        """Clients promoted into dead partner slots."""
        return self.outcome.promotions

    @property
    def repair_cost(self) -> float:
        """Total repair traffic in bytes (detection + promotion + re-home
        + healing), also visible per-cluster via ``repair_attribution``."""
        return self.outcome.repair_cost

    @property
    def cluster_availability(self) -> float:
        """Time-averaged fraction of clusters with a live partner."""
        downtime = self.outcome.cluster_downtime
        if downtime is None or downtime.size == 0:
            return 1.0
        return 1.0 - float(downtime.mean()) / self.duration

    def load_inflation(self) -> dict[str, float]:
        """Relative load change on serving partners vs the baseline.

        Positive values mean the survivors work harder than the
        fault-free per-partner mean (retries, rebuilds, failover);
        negative values mean lost traffic outweighed the overhead.
        """
        return self.degraded.relative_error_vs(self.baseline)

    def summary_rows(self) -> list[list[object]]:
        """(metric, value) rows for the reporting renderer."""
        out = self.outcome
        rows: list[list[object]] = [
            ["fault plan", self.plan.describe()],
            ["partners per cluster (k)", self.partners],
            ["queries attempted", out.queries_attempted],
            ["query success rate", f"{self.query_success_rate:.4f}"],
            ["orphaned queries", out.orphaned_queries],
            ["truncated floods", out.truncated_floods],
            ["retries issued", out.retries],
            ["results/query (baseline)", f"{self.baseline.mean_results_per_query:.1f}"],
            ["results/query (degraded)", f"{self.degraded.mean_results_per_query:.1f}"],
            ["results lost", f"{self.results_lost_fraction:.1%}"],
            ["flood messages lost", out.flood_messages_lost],
            ["response messages lost", f"{out.response_messages_lost:.0f}"],
            ["partner crashes", out.partner_crashes],
            ["failovers absorbed", out.failovers],
            ["cluster blackouts", out.outages],
            ["cluster availability", f"{self.cluster_availability:.5f}"],
            ["orphaned client-seconds", f"{self.orphaned_client_seconds:.0f}"],
            ["mean time-to-recover (s)", f"{self.mean_time_to_recover:.1f}"],
            ["longest outage (s)", f"{self.longest_outage:.1f}"],
            ["deferred joins", out.deferred_joins],
            ["lost updates", out.lost_updates],
        ]
        if self.recovery is not None:
            rows.extend([
                ["recovery policy", self.recovery.describe()],
                ["failures detected", out.detections],
                ["false suspicions", out.false_suspicions],
                ["mean detection lag (s)", f"{self.detection_lag:.1f}"],
                ["partner promotions", out.promotions],
                ["clients re-homed", out.rehomed_clients],
                ["links healed / restored",
                 f"{out.links_healed} / {out.links_restored}"],
                ["repair messages", out.repair_messages],
                ["repair cost (bytes)", f"{self.repair_cost:.0f}"],
                ["permanently orphaned clients",
                 out.permanently_orphaned_clients],
            ])
            if self.recovery.detector.mode == "gossip":
                lag = self.detection_lag_distribution()
                rows.extend([
                    ["gossip rumors sent", out.gossip_rumors_sent],
                    ["gossip suspicions / refutations",
                     f"{out.gossip_suspicions} / {out.gossip_refutations}"],
                    ["gossip dead declarations", out.gossip_declarations],
                    ["gossip control messages", out.gossip_messages],
                    ["gossip overhead (bytes)", f"{self.gossip_overhead:.0f}"],
                    ["detection lag p50 / p90 (s)",
                     f"{lag.get('p50', 0.0):.1f} / {lag.get('p90', 0.0):.1f}"],
                    ["stale view entries at end", out.stale_view_entries],
                ])
        return rows


@dataclass(frozen=True)
class ResilienceSpec(Codec):
    """A declarative resilience campaign: one scenario, N replicates.

    The resilience twin of :class:`~repro.api.ExperimentSpec` /
    :class:`~repro.api.SweepSpec` / :class:`~repro.sim.chaos.ChaosSpec`:
    everything :func:`run_resilience_spec` needs travels inside the
    (picklable) spec, so replicates ship to any executor backend verbatim
    and the same spec evaluated anywhere yields bit-identical reports.

    Replicate 0 runs at exactly ``seed`` — bit-identical to the
    historical single ``run_resilience`` call on the instance built from
    that seed — and replicate ``r > 0`` runs at
    ``derive_seed(seed, "replicate", r)``, giving mutually independent
    instances/workloads for confidence intervals over the degradation
    metrics.
    """

    config: Configuration = Configuration()
    plan: FaultPlan = FaultPlan()
    duration: float = 1800.0
    seed: int | None = 0
    replicates: int = 1
    recovery: RecoveryPolicy | None = None
    engine: str = "event"
    enable_churn: bool = True
    enable_updates: bool = True
    #: Default dispatch backend for :func:`run_resilience_spec` — one of
    #: :data:`repro.exec.EXECUTOR_NAMES` — or ``None`` for the jobs rule.
    executor: str | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        # replicates == 0 is a legal empty campaign (well-formed empty
        # result), mirroring cases == 0 on ChaosSpec.
        if self.replicates < 0:
            raise ValueError("replicates must be >= 0")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.executor is not None and self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES} or None, "
                f"got {self.executor!r}"
            )

    def replicate_seed(self, replicate: int) -> int | None:
        """The seed replicate ``replicate`` builds and simulates from."""
        if replicate == 0:
            return self.seed
        return derive_seed(self.seed, "replicate", replicate)


@dataclass
class ResilienceResult:
    """Every replicate of a resilience campaign plus merged observability."""

    spec: ResilienceSpec
    reports: list[ResilienceReport]
    manifest: RunManifest
    registry: MetricsRegistry = field(repr=False,
                                      default_factory=MetricsRegistry)
    jobs: int = 1

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    @property
    def report(self) -> ResilienceReport:
        """Replicate 0's report — the historical single-run view."""
        if not self.reports:
            raise ValueError("empty resilience campaign has no reports")
        return self.reports[0]

    def to_dict(self) -> dict:
        # ``jobs`` is a dispatch setting, not a result: every backend
        # writes the same payload.
        return {
            "spec": self.spec.to_dict(),
            "reports": encode(self.reports),
        }


def _half_worker(payload: tuple) -> tuple:
    """One half of a resilience comparison under private collectors.

    Module-level and picklable (mirrors ``api._evaluate_point``): the one
    worker behind :func:`run_resilience` and :func:`run_resilience_spec`.
    ``payload`` is ``(label, source, plan, options)``: ``source`` is a
    built instance or the ``(config, seed)`` pair the instance cache
    builds it from, ``plan`` is the degraded half's fault plan or
    ``None`` for the fault-free baseline, and ``options`` go to
    :func:`simulate_instance`.
    """
    label, source, plan, options = payload
    return collect(label, _run_half, source, plan, options)


def _run_half(source, plan: FaultPlan | None, options: dict):
    instance = (source if isinstance(source, NetworkInstance)
                else build_instance_cached(*source))
    if plan is None:
        return simulate_instance(instance, **options)
    half = run_degraded(instance, plan, **options)
    tracer = options["tracer"]
    if tracer is not None and getattr(tracer, "_sink", None) is not None:
        # Streaming tracer: drain the ring so the sink holds the full run
        # before the (untraced) baseline replays the stream.
        tracer.flush()
    return half


def _halves(source, plan: FaultPlan, replicate: int,
            recovery: RecoveryPolicy | None, tracer=None,
            baseline: bool = True, **options) -> list[tuple[Task, dict]]:
    """One replicate's degraded task and, when ``baseline``, its baseline
    task, each with its journal detail.  ``options`` are the
    :func:`simulate_instance` arguments both halves share; only the
    degraded half carries the recovery policy and the tracer."""
    halves = [("degraded", plan,
               {**options, "recovery": recovery, "tracer": tracer})]
    if baseline:
        halves.append(("baseline", None, options))
    detail = {"replicate": replicate, "seed": options["rng"],
              "plan": plan.describe(), "engine": options["engine"],
              "detector": recovery and recovery.detector.mode,
              "duration": options["duration"]}
    return [(Task(2 * replicate + i, f"{half}[{replicate}]",
                  (f"{half}[{replicate}]", source, half_plan, half_options)),
             detail)
            for i, (half, half_plan, half_options) in enumerate(halves)]


def _report(plan: FaultPlan, duration: float, recovery: RecoveryPolicy | None,
            degraded: tuple, baseline: SimulationReport) -> ResilienceReport:
    report, outcome = degraded
    return ResilienceReport(
        plan=plan, duration=duration, baseline=baseline,
        degraded=report, outcome=outcome,
        recovery=None if plan.is_null else recovery,
    )


def run_resilience_spec(
    spec: ResilienceSpec,
    jobs: int | None = None,
    journal=None,
    progress=None,
    *,
    executor: Executor | str | None = None,
) -> ResilienceResult:
    """Run every replicate of ``spec`` on a pluggable executor backend.

    The resilience campaign runner, on the same
    :func:`repro.exec.base.run_campaign` fan-out as
    :func:`repro.api.run_sweep` and :func:`repro.sim.chaos.run_chaos`:
    each replicate fans out as two self-contained tasks, its degraded
    half and its fault-free baseline (each carries the replicate's
    derived seed), journalled as ``degraded[r]`` and ``baseline[r]`` —
    the same two points a journalled :func:`run_resilience` writes.
    Forking backends build every replicate's instance in the parent
    before the pool forks (the instance cache, as
    :func:`repro.api.run_sweep` does), so neither half rebuilds it.
    Results return in stable replicate order and every backend is
    bit-identical.  ``journal``/``progress`` attach the usual campaign
    telemetry; a spec with ``replicates=0`` returns a well-formed empty
    result.
    """
    replicates = range(spec.replicates)
    halves = [half for r in replicates for half in _halves(
        (spec.config, spec.replicate_seed(r)), spec.plan, r, spec.recovery,
        duration=spec.duration, rng=spec.replicate_seed(r),
        enable_churn=spec.enable_churn, enable_updates=spec.enable_updates,
        engine=spec.engine,
    )]
    campaign = run_campaign(
        _half_worker,
        [task for task, _ in halves],
        name="resilience",
        plan=[detail for _, detail in halves],
        config=spec.config,
        seed=spec.seed,
        manifest={
            "replicates": spec.replicates, "duration": spec.duration,
            "plan": spec.plan.describe(),
            "recovery": (None if spec.recovery is None
                         else spec.recovery.describe()),
            "detector": spec.recovery and spec.recovery.detector.mode,
            "engine": spec.engine,
        },
        prewarm=lambda: [build_instance_cached(spec.config,
                                               spec.replicate_seed(r))
                         for r in replicates],
        executor=executor if executor is not None else spec.executor,
        jobs=jobs, journal=journal, progress=progress,
    )
    results = campaign.results
    reports = [
        _report(spec.plan, spec.duration, spec.recovery, degraded, baseline)
        for degraded, baseline in zip(results[::2], results[1::2])
    ]
    return ResilienceResult(spec=spec, reports=reports,
                            manifest=campaign.manifest,
                            registry=campaign.registry, jobs=campaign.jobs)


def run_degraded(instance: NetworkInstance, plan: FaultPlan, duration: float,
                 **options) -> tuple[SimulationReport, FaultOutcome]:
    """``instance`` simulated under ``plan`` alone: the run's loads and its
    fault outcome.  ``options`` go to :func:`simulate_instance`."""
    outcome = FaultOutcome()
    report = simulate_instance(instance, duration=duration, faults=plan,
                               fault_metrics=outcome, **options)
    return report, outcome


def run_resilience(
    instance: NetworkInstance,
    plan: FaultPlan,
    duration: float = 3600.0,
    model: QueryModel | None = None,
    rng: int | None = None,
    baseline: SimulationReport | None = None,
    enable_churn: bool = True,
    enable_updates: bool = True,
    recovery: RecoveryPolicy | None = None,
    tracer=None,
    engine: str = "event",
    journal=None,
    progress=None,
) -> ResilienceReport:
    """Measure an instance's degraded-mode behaviour under ``plan``.

    Runs :func:`simulate_instance` twice from the same seed — once
    fault-free, once under the plan — and packages the comparison.
    ``rng`` must be a seed (or None), not a Generator: both runs must be
    able to start from the same stream.  Pass ``baseline`` to reuse a
    fault-free report measured earlier (e.g. when sweeping plans over
    one instance).  ``tracer`` (a :class:`~repro.obs.trace.Tracer`)
    records the *degraded* run's event stream; the baseline is never
    traced, so the trace reads as "what the faults did".

    ``recovery`` (a :class:`RecoveryPolicy`) arms the self-healing
    layer for the degraded run only — the baseline never needs it and
    the comparison then reads as "what the repairs bought".

    The failure detector is the policy's: ``recovery.detector.mode``
    ("oracle" or "gossip") picks the control plane.

    ``engine`` selects the simulation backend for *both* runs
    (``"event"`` or ``"array"``, see :func:`simulate_instance`): the
    baseline/degraded comparison only makes sense within one engine.

    The two runs are the degraded and baseline tasks of
    :func:`run_resilience_spec`'s replicate 0, run in order through
    :func:`repro.exec.base.run_campaign` on the serial executor (a pure-CPU
    pair gains little from two processes).  Each half collects into its
    own registry, and the folded registry lands in the caller's
    (:func:`repro.obs.metrics.get_registry`), so a ``use_registry``
    block sees the same counters as two direct
    :func:`simulate_instance` calls.  ``journal``/``progress`` attach
    the usual campaign telemetry: the halves journal as the points
    ``degraded[0]`` and ``baseline[0]``, with the seconds and registry
    counters each one measured, so even a single resilience run is
    watchable with ``repro watch`` and a killed run leaves a readable
    record.  Observation-only, as everywhere else.

    To start from a :class:`~repro.config.Configuration`, declare a
    :class:`ResilienceSpec` and call :func:`run_resilience_spec`.
    """
    if isinstance(rng, np.random.Generator):
        raise TypeError(
            "run_resilience needs a seed (int or None), not a Generator: "
            "the baseline and degraded runs must replay the same stream"
        )
    if isinstance(instance, Configuration):
        raise TypeError(
            "run_resilience takes a built NetworkInstance; for a "
            "Configuration declare a ResilienceSpec and call "
            "run_resilience_spec"
        )
    halves = _halves(
        instance, plan, 0, recovery, tracer, baseline=baseline is None,
        duration=duration, model=model, rng=rng, enable_churn=enable_churn,
        enable_updates=enable_updates, engine=engine,
    )
    campaign = run_campaign(
        _half_worker, [task for task, _ in halves], name="resilience",
        plan=[detail for _, detail in halves],
        config=instance.config, seed=rng, executor="serial",
        journal=journal, progress=progress,
    )
    get_registry().absorb(campaign.registry)
    degraded, *rest = campaign.results
    return _report(plan, duration, recovery, degraded,
                   rest[0] if rest else baseline)
