"""Seeded chaos harness: random fault plans vs the invariant suite.

"Handle as many scenarios as you can imagine" (ROADMAP) is not checkable
one hand-written scenario at a time.  This module generates *random but
valid* :class:`~repro.sim.faults.FaultPlan`s from a seed, runs each one
through :func:`~repro.sim.resilience.run_degraded` with a seeded
:class:`~repro.sim.recovery.RecoveryPolicy` (no fault-free baseline:
no invariant reads one), and checks a suite of invariants that must
hold for **every** plan:

* **no client orphaned forever** — once recovery is on, every outage
  older than one repair cycle has either promoted a replacement partner
  or re-homed its clients (``permanently_orphaned_clients == 0``);
* **overlay reconnects** — after all partition windows close, the
  healing links are torn down and the simulation is back on the
  pristine overlay object (``overlay_restored``);
* **message conservation** — every attempted flood message is either
  delivered or lost, never both, never neither;
* **bounded time-to-recover** — with promotion enabled (and clients to
  promote), no blackout outlives detection lag + promotion time;
* **bit-identical replay** — re-running the degraded simulation from
  the same seed reproduces the loads and counters exactly.

Cases fan out across seeds the same way :func:`repro.api.run_sweep`
fans out grid points: a module-level picklable worker, one private
``MetricsRegistry``/``RunManifest`` fragment per case, merged
associatively — so ``jobs=N`` equals ``jobs=1`` case for case.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from ..codec import Codec, encode
from ..config import Configuration
from ..exec import EXECUTOR_NAMES
from ..exec.base import Executor, Task, collect, run_campaign
from ..obs.manifest import RunManifest
from ..obs.metrics import MetricsRegistry
from ..obs.progress import ProgressTracker
from ..stats.rng import derive_rng
from ..topology.builder import build_instance
from .faults import (CrashSpec, FaultOutcome, FaultPlan, PartitionWindow,
                     RetryPolicy, SlowSpec)
from .gossip import GossipSpec
from .monitor import DETECTOR_MODES, DetectorSpec
from .network import ENGINES
from .recovery import RecoveryPolicy
from .resilience import run_degraded

__all__ = [
    "ChaosSpec",
    "ChaosCaseError",
    "ChaosCaseResult",
    "ChaosReport",
    "generate_fault_plan",
    "generate_recovery_policy",
    "run_chaos",
    "run_chaos_case",
]


class ChaosCaseError(RuntimeError):
    """A chaos case crashed; carries the failing seed and spec.

    Raised by the pool worker instead of letting the original exception
    propagate as a bare pickled traceback: whoever reads the failure
    (CI logs, a sweep driver) gets the seed and full spec needed to
    reproduce the case with ``run_chaos_case``.
    """

#: Slack on the time-to-recover bound (event-time comparisons only).
_TTR_EPS = 1e-6


def generate_fault_plan(seed: int, num_clusters: int,
                        duration: float) -> FaultPlan:
    """A random, *valid* fault plan, deterministic in ``seed``.

    Windows are laid out sequentially in time (so the construction-time
    overlap validation can never fire) and every window closes by
    ``0.85 * duration`` — partitions always end well before the run
    does, which is what makes the overlay-reconnects invariant
    checkable.  All draws come from a dedicated ``"chaos"`` stream.
    """
    rng = derive_rng(seed, "chaos", "plan")
    loss = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.005, 0.12))
    crash = None
    if rng.random() < 0.75:
        crash = CrashSpec(
            mean_recovery=float(rng.uniform(45.0, 240.0)),
            lifespan_scale=float(rng.uniform(0.5, 1.5)),
        )
    partitions: list[PartitionWindow] = []
    cursor = 0.15 * duration
    for _ in range(int(rng.integers(0, 3))):
        start = cursor + float(rng.uniform(0.0, 0.05 * duration))
        end = start + float(rng.uniform(0.05, 0.2) * duration)
        if end > 0.85 * duration:
            break
        island_size = int(rng.integers(1, max(2, num_clusters // 5)))
        island = tuple(
            int(c) for c in rng.choice(num_clusters, size=island_size,
                                       replace=False)
        )
        partitions.append(PartitionWindow(start, end, island))
        cursor = end + 0.02 * duration
    slow = None
    if rng.random() < 0.3:
        slow = SlowSpec(fraction=float(rng.uniform(0.05, 0.3)),
                        factor=float(rng.uniform(1.5, 6.0)))
    retry = RetryPolicy(
        timeout=float(rng.uniform(2.0, 8.0)),
        max_retries=int(rng.integers(1, 4)),
        backoff=float(rng.uniform(1.5, 3.0)),
        ceiling=120.0,
    )
    plan = FaultPlan(message_loss=loss, crash=crash,
                     partitions=tuple(partitions), slow=slow, retry=retry)
    if plan.is_null:
        # Chaos wants chaos: a fully-null draw gets a token loss rate.
        plan = plan.with_changes(message_loss=0.01)
    return plan


def generate_recovery_policy(seed: int,
                             detector: str = "oracle") -> RecoveryPolicy:
    """A random recovery policy, deterministic in ``seed``.

    Re-homing is always armed — every generated policy has *some*
    remedy for orphaned clients, which is what entitles the harness to
    assert ``permanently_orphaned_clients == 0`` unconditionally.

    ``detector="gossip"`` additionally draws a random
    :class:`~repro.sim.gossip.GossipSpec` (from draws *after* the oracle
    fields, so the oracle policy for a seed is unchanged by the switch)
    and flips the detector into gossip mode.
    """
    if detector not in DETECTOR_MODES:
        raise ValueError(
            f"detector must be one of {DETECTOR_MODES}, got {detector!r}"
        )
    rng = derive_rng(seed, "chaos", "policy")
    spec = DetectorSpec(
        heartbeat_interval=float(rng.uniform(2.0, 8.0)),
        timeout_beats=int(rng.integers(2, 5)),
        false_positive_rate=(
            0.0 if rng.random() < 0.5 else float(rng.uniform(0.0005, 0.005))
        ),
    )
    policy = RecoveryPolicy(
        detector=spec,
        promote=bool(rng.random() < 0.8),
        rehome=True,
        heal_partitions=True,
        promotion_time=float(rng.uniform(5.0, 20.0)),
        rehome_time=float(rng.uniform(1.0, 5.0)),
    )
    if detector == "gossip":
        gossip = GossipSpec(
            probe_interval=float(rng.uniform(1.0, 4.0)),
            suspect_timeout=float(rng.uniform(4.0, 10.0)),
            fanout=int(rng.integers(1, 4)),
            anti_entropy_interval=float(rng.uniform(6.0, 20.0)),
            corroboration_m=int(rng.integers(1, 4)),
            monitors_n=int(rng.integers(4, 7)),
            corroboration_timeout=float(rng.uniform(4.0, 10.0)),
        )
        policy = replace(
            policy, detector=replace(spec, mode="gossip", gossip=gossip)
        )
    return policy


@dataclass(frozen=True)
class ChaosSpec(Codec):
    """A batch of chaos cases: seeds plus the shared scenario shape."""

    cases: int = 20
    base_seed: int = 0
    graph_size: int = 250
    cluster_size: int = 10
    redundancy: bool = True
    duration: float = 400.0
    recovery: bool = True
    replay: bool = True
    detector: str = "oracle"
    engine: str = "event"
    #: Default dispatch backend for :func:`run_chaos` — one of
    #: :data:`repro.exec.EXECUTOR_NAMES` — or ``None`` for the jobs rule
    #: (``jobs > 1`` implies ``process``).  Inert to the case results.
    executor: str | None = None

    def __post_init__(self) -> None:
        # cases == 0 is a legal empty campaign: it returns a well-formed
        # empty report (and a campaign-end journal record) rather than
        # dying in pool construction.
        if self.cases < 0:
            raise ValueError("cases must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.detector not in DETECTOR_MODES:
            raise ValueError(
                f"detector must be one of {DETECTOR_MODES}, "
                f"got {self.detector!r}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.executor is not None and self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES} or None, "
                f"got {self.executor!r}"
            )
        # Bad graph_size / cluster_size fail here, named by Configuration.
        self.configuration()

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(range(self.base_seed, self.base_seed + self.cases))

    def configuration(self) -> Configuration:
        return Configuration(
            graph_size=self.graph_size,
            cluster_size=self.cluster_size,
            redundancy=self.redundancy,
        )


@dataclass(frozen=True)
class ChaosCaseResult:
    """One chaos case: what ran, what it measured, what it violated."""

    seed: int
    plan: str
    policy: str
    digest: str
    violations: tuple[str, ...]
    summary: dict

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**encode(self), "passed": self.passed}


@dataclass
class ChaosReport:
    """Every case of a chaos batch plus the merged observability record."""

    spec: ChaosSpec
    cases: list[ChaosCaseResult]
    manifest: RunManifest
    registry: MetricsRegistry = field(repr=False, default_factory=MetricsRegistry)
    jobs: int = 1

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def failures(self) -> list[ChaosCaseResult]:
        return [case for case in self.cases if not case.passed]

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "passed": self.passed,
            "cases": [case.to_dict() for case in self.cases],
        }


def _load_digest(report) -> str:
    """Stable digest of the six load arrays (replay comparisons)."""
    h = hashlib.sha256()
    for name in ("superpeer_incoming_bps", "superpeer_outgoing_bps",
                 "superpeer_processing_hz", "client_incoming_bps",
                 "client_outgoing_bps", "client_processing_hz"):
        h.update(np.ascontiguousarray(getattr(report, name)).tobytes())
    return h.hexdigest()


def check_invariants(out: FaultOutcome, plan: FaultPlan, instance,
                     policy: RecoveryPolicy | None) -> list[str]:
    """The invariant suite for one chaos case's degraded run outcome."""
    violations: list[str] = []

    # Message conservation: attempted = delivered + lost, and the
    # dedicated lost counter agrees with the difference.
    if out.flood_messages_attempted != (
        out.flood_messages_delivered + out.flood_messages_lost
    ):
        violations.append(
            "message conservation: attempted "
            f"{out.flood_messages_attempted} != delivered "
            f"{out.flood_messages_delivered} + lost {out.flood_messages_lost}"
        )
    if out.flood_messages_delivered < 0 or out.flood_messages_lost < 0:
        violations.append("message conservation: negative delivery counter")
    if out.queries_failed > out.queries_attempted:
        violations.append(
            f"more failed queries ({out.queries_failed}) than attempted "
            f"({out.queries_attempted})"
        )

    if policy is not None:
        if out.permanently_orphaned_clients != 0:
            violations.append(
                f"{out.permanently_orphaned_clients} clients orphaned "
                "past the repair grace window with recovery on"
            )
        if not out.overlay_restored:
            violations.append(
                "overlay not restored after all partition windows closed"
            )
        if out.links_healed != out.links_restored:
            violations.append(
                f"healed {out.links_healed} links but restored "
                f"{out.links_restored}"
            )
        # Bounded blackouts: with promotion armed and clients available
        # in every cluster, no closed outage may outlive one detection
        # plus one promotion.
        if (policy.promote and plan.crash is not None
                and int(instance.clients.min()) > 0 and out.recovery_times):
            bound = policy.detector.max_lag + policy.promotion_time + _TTR_EPS
            worst = max(out.recovery_times)
            if worst > bound:
                violations.append(
                    f"time-to-recover {worst:.2f}s exceeds detection+repair "
                    f"bound {bound:.2f}s"
                )
        # Repairs only ever follow confirmed detections.
        if out.promotions > out.detections:
            violations.append(
                f"{out.promotions} promotions exceed {out.detections} "
                "confirmed detections"
            )
        if policy.detector.mode == "gossip":
            # The scalar gossip bill must re-sum from the per-cluster
            # tables (both are sealed from the same meters).
            if out.gossip_cluster_bytes_in is not None:
                resum = float(
                    (out.gossip_cluster_bytes_in.sum()
                     + out.gossip_cluster_bytes_out.sum())
                    * instance.partners
                )
                if abs(resum - out.gossip_bytes) > 1e-6 * max(1.0, resum):
                    violations.append(
                        f"gossip bytes {out.gossip_bytes:.3f} do not re-sum "
                        f"from cluster tables ({resum:.3f})"
                    )
            # Every false suspicion must have been refuted (or still be
            # in flight is impossible after finish: refutation episodes
            # close before declarations, so refutations >= the false
            # suspicions that were declared on).  The cheap invariant:
            # declared deaths never exceed raised suspicions.
            if out.gossip_declarations > out.gossip_suspicions:
                violations.append(
                    f"{out.gossip_declarations} dead declarations exceed "
                    f"{out.gossip_suspicions} suspicions"
                )
    return violations


def run_chaos_case(spec: ChaosSpec, seed: int) -> ChaosCaseResult:
    """Run one seeded chaos case (module-level: process-pool friendly)."""
    instance = build_instance(spec.configuration(), seed=seed)
    plan = generate_fault_plan(seed, num_clusters=instance.num_clusters,
                               duration=spec.duration)
    policy = (
        generate_recovery_policy(seed, detector=spec.detector)
        if spec.recovery else None
    )
    run = partial(run_degraded, instance, plan, spec.duration, rng=seed,
                  recovery=policy, engine=spec.engine)
    degraded, out = run()
    violations = check_invariants(out, plan, instance, policy)
    digest = _load_digest(degraded)
    if spec.replay:
        # Determinism is itself an invariant: the same seed must replay
        # to the bit.
        replayed, again = run()
        if _load_digest(replayed) != digest:
            violations.append("replay: degraded loads are not bit-identical")
        for name in ("queries_attempted", "queries_failed", "partner_crashes",
                     "promotions", "rehomed_clients", "links_healed",
                     "repair_messages", "flood_messages_attempted"):
            if getattr(out, name) != getattr(again, name):
                violations.append(
                    f"replay: {name} diverged "
                    f"({getattr(out, name)} vs {getattr(again, name)})"
                )
    summary = {
        "queries": out.queries_attempted,
        "success_rate": round(out.query_success_rate, 4),
        "crashes": out.partner_crashes,
        "outages": out.outages,
        "detections": out.detections,
        "promotions": out.promotions,
        "rehomed_clients": out.rehomed_clients,
        "links_healed": out.links_healed,
        "repair_messages": out.repair_messages,
        "repair_bytes": round(out.repair_bytes, 1),
        "orphaned_client_seconds": round(out.orphaned_client_seconds, 1),
        "longest_outage": round(out.longest_outage, 2),
    }
    if policy is not None and policy.detector.mode == "gossip":
        summary.update({
            "false_suspicions": out.false_suspicions,
            "gossip_rumors_sent": out.gossip_rumors_sent,
            "gossip_refutations": out.gossip_refutations,
            "gossip_bytes": round(out.gossip_bytes, 1),
        })
    return ChaosCaseResult(
        seed=seed,
        plan=plan.describe(),
        policy=policy.describe() if policy is not None else "off",
        digest=digest[:16],
        violations=tuple(violations),
        summary=summary,
    )


def _case_worker(args: tuple) -> tuple:
    """One case under private collectors (mirrors ``api._evaluate_point``)."""
    spec, seed = args
    try:
        return collect(f"chaos[{seed}]", run_chaos_case, spec, seed)
    except Exception as exc:
        # Surface the reproduction recipe instead of a bare pickled
        # traceback from inside the pool.
        raise ChaosCaseError(
            f"chaos case seed={seed} failed "
            f"({type(exc).__name__}: {exc}); spec={spec.to_dict()}"
        ) from exc


def run_chaos(
    spec: ChaosSpec,
    jobs: int | None = None,
    journal: str | Path | None = None,
    progress: ProgressTracker | bool | None = None,
    *,
    executor: Executor | str | None = None,
) -> ChaosReport:
    """Run every case of ``spec`` on a pluggable executor backend.

    The same campaign runner as :func:`repro.api.run_sweep`
    (:func:`repro.exec.base.run_campaign`): the backend resolves through
    :func:`repro.exec.make_executor` (``executor`` argument, then
    ``spec.executor``, then the jobs rule), and every backend returns
    identical case results in stable seed order with one merged
    registry/manifest — each case is evaluated by the module-level
    :func:`_case_worker` under private collectors, so where it runs
    cannot change what it computes.

    ``journal``/``progress`` attach the campaign-telemetry layer
    (:mod:`repro.obs.journal` / :mod:`repro.obs.progress`) exactly as in
    :func:`repro.api.run_sweep`: a streaming JSONL journal for ``repro
    watch`` and a live heartbeat/straggler view.  Observation-only —
    case results are bit-identical with telemetry on or off.  A spec
    with ``cases=0`` returns a well-formed empty report.
    """
    campaign = run_campaign(
        _case_worker,
        [Task(i, f"chaos[{seed}]", (spec, seed))
         for i, seed in enumerate(spec.seeds)],
        name="chaos",
        plan=[{"seed": seed, "detector": spec.detector, "engine": spec.engine}
              for seed in spec.seeds],
        config=spec.configuration(),
        seed=spec.base_seed,
        manifest={"cases": spec.cases, "duration": spec.duration,
                  "recovery": spec.recovery, "replay": spec.replay,
                  "detector": spec.detector, "engine": spec.engine},
        executor=executor if executor is not None else spec.executor,
        jobs=jobs, journal=journal, progress=progress,
    )
    return ChaosReport(spec=spec, cases=campaign.results,
                       manifest=campaign.manifest, registry=campaign.registry,
                       jobs=campaign.jobs)
