"""The executor protocol and the one campaign runner built on it.

Every campaign in this repo — a :func:`repro.api.run_sweep` grid, a
:func:`repro.sim.chaos.run_chaos` seed batch, a
:func:`repro.sim.resilience.run_resilience_spec` fan-out of degraded and
baseline halves (``run_resilience`` runs one replicate's pair), a
:func:`repro.risk.evaluate.evaluate_designs` (design × scenario) grid —
is the same shape: a list of independent, picklable tasks evaluated by
one module-level function, whose results must come back **in stable
task order** and **bit-identical** no matter where the work physically
ran.  :func:`run_campaign` owns that shape once: it resolves the
backend, starts the campaign telemetry, dispatches the tasks through
:meth:`Executor.submit_map`, finishes the campaign (status ``error``
when it re-raises) and folds the per-task metrics registries and
manifest fragments in task order.  The runners only build their tasks
and unpack the results.  The dispatch strategy is a plugin:

* :class:`~repro.exec.local.SerialExecutor` — the in-process reference
  implementation every other backend must match bit-for-bit;
* :class:`~repro.exec.local.ThreadExecutor` — a thread pool, with no
  fork or pickling;
* :class:`~repro.exec.local.ProcessExecutor` — one future per task over
  a fork-prewarmed ``ProcessPoolExecutor``.

The contract of :meth:`Executor.submit_map`:

* ``fn`` is a **module-level picklable** callable; ``fn(task.payload)``
  evaluates one task.  Determinism is the caller's promise — given that,
  every backend returns byte-equal results.
* results return as a list aligned with ``tasks`` (stable order), no
  matter the completion order.
* a task that raises is retried up to the executor's ``retries`` times;
  when the budget is exhausted the exception propagates (after the
  campaign is told via ``point_error``), aborting the campaign.
* ``campaign`` (a :class:`repro.obs.progress.Campaign` or ``None``)
  receives ``point_started`` / ``point_finished`` / ``point_error``
  calls and, for process backends, the workers' start heartbeats —
  feeding the run journal and the live progress view.  The parent's
  finish record is the only one; it carries the fields
  :func:`fragment_describer` reads off the task's outcome, so the
  task's runtime is the one :func:`collect` measured: executors time
  nothing themselves.  Telemetry is observation-only: results are
  bit-identical with or without it.
* ``prewarm`` is an optional zero-arg callable that backends running
  tasks in **forked** children invoke once, pre-fork, so expensive
  caches (the fingerprint-keyed instance cache) are inherited through
  copy-on-write memory.  In-process backends skip it: their caches warm
  lazily on first use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..obs.manifest import RunManifest, config_fingerprint, git_revision
from ..obs.metrics import MetricsRegistry, use_registry

__all__ = [
    "Task",
    "Executor",
    "CampaignResult",
    "collect",
    "fragment_describer",
    "run_campaign",
]


@dataclass(frozen=True)
class Task:
    """One unit of campaign work: a stable index, a label, a payload.

    ``index`` is the campaign-wide point index (what the journal and
    progress view key on); ``label`` is the human-readable point name;
    ``payload`` is the picklable argument handed to the campaign's
    worker function.
    """

    index: int
    label: str
    payload: Any


def collect(label: str, fn: Callable, *args) -> tuple:
    """``fn(*args)`` under private collectors: ``(result, registry, fragment)``.

    The body of every campaign worker.  The call runs under its own
    :class:`~repro.obs.metrics.MetricsRegistry` and is timed as the
    phase ``label`` of a :class:`~repro.obs.manifest.RunManifest`
    fragment, so :func:`run_campaign` can fold the per-task records in
    task order no matter where each task ran.
    """
    registry = MetricsRegistry()
    fragment = RunManifest(name=label)
    with use_registry(registry), fragment.phase(label):
        result = fn(*args)
    fragment.finish()
    return result, registry, fragment


def fragment_describer(task: Task, outcome: Any) -> dict:
    """Finish-record fields for the :func:`collect` worker convention.

    Every campaign worker returns its result alongside a private
    registry and manifest fragment; the executors apply this describer
    to extract the point's wall-clock (the fragment's phase keyed by the
    task label) and counter snapshot for the journal's authoritative
    finish record.  Outcomes of any other shape describe as ``{}``.
    """
    try:
        _result, registry, fragment = outcome
    except (TypeError, ValueError):
        return {}
    fields: dict = {}
    phases = getattr(fragment, "phases", None)
    if phases and task.label in phases:
        fields["seconds"] = phases[task.label]
    snapshot = getattr(registry, "snapshot", None)
    if snapshot is not None:
        fields["counters"] = snapshot()["counters"]
    return fields


class Executor(ABC):
    """The pluggable dispatch strategy behind every campaign runner.

    Subclasses implement :meth:`submit_map`; the base class provides the
    retrying serial loop (:meth:`_run_serial`) that doubles as the
    reference semantics — every backend is required to reproduce its
    results bit-for-bit.
    """

    #: Registry name ("serial", "thread", "process").
    name: str = "executor"

    def __init__(self, retries: int = 0) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries

    @abstractmethod
    def submit_map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Task],
        *,
        campaign=None,
        prewarm: Callable[[], None] | None = None,
    ) -> list:
        """Evaluate ``fn(task.payload)`` for every task; results in task
        order.  See the module docstring for the full contract."""

    # --- shared serial reference loop ----------------------------------------

    def _run_serial(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Task],
        campaign=None,
    ) -> list:
        """The reference implementation: in-process, in order, retrying.

        Used directly by :class:`SerialExecutor` and as the pool
        backends' short-circuit for trivially small batches (one task,
        or one worker) where pool overhead buys nothing.
        """
        results = []
        for task in tasks:
            if campaign is not None:
                campaign.point_started(task.index, task.label)
            try:
                result = self._call_with_retries(fn, task)
            except BaseException as exc:
                if campaign is not None:
                    campaign.point_error(task.index, task.label, exc)
                raise
            results.append(result)
            if campaign is not None:
                campaign.point_finished(task.index, task.label,
                                        **fragment_describer(task, result))
        return results

    def _call_with_retries(self, fn: Callable[[Any], Any], task: Task) -> Any:
        """``fn(task.payload)`` under the retry budget."""
        attempt = 0
        while True:
            try:
                return fn(task.payload)
            except Exception:
                if attempt >= self.retries:
                    raise
                attempt += 1


@dataclass
class CampaignResult:
    """What :func:`run_campaign` returns: task results in task order plus
    the registry and manifest folded from the per-task fragments."""

    results: list
    registry: MetricsRegistry
    manifest: RunManifest
    jobs: int


def run_campaign(
    worker: Callable[[Any], tuple],
    tasks: Sequence[Task],
    *,
    name: str,
    plan: Sequence[dict],
    config: Any = None,
    seed: Any = None,
    manifest: Mapping | None = None,
    header: Mapping | None = None,
    prewarm: Callable[[], None] | None = None,
    executor: "Executor | str | None" = None,
    jobs: int | None = None,
    journal=None,
    progress=None,
) -> CampaignResult:
    """Fan ``worker`` out over ``tasks``: the one campaign runner.

    ``worker`` is the module-level callable handed to the executor; it
    returns ``(result, registry, fragment)``, normally via
    :func:`collect`.  ``plan`` holds one journal detail dict per task.
    ``config`` and ``seed`` are the campaign's provenance, recorded in
    the journal header and the merged manifest; ``manifest`` adds extra
    manifest fields and ``header`` extra journal-header fields.
    ``executor`` and ``jobs`` resolve through
    :func:`repro.exec.make_executor`; ``journal`` and ``progress``
    attach campaign telemetry (:func:`repro.obs.progress.start_campaign`).

    The campaign finishes with status ``error`` when dispatch raises,
    and the exception propagates.  Registries and fragments fold in
    task order — the merge never sees dispatch order, which is what
    keeps the fold identical on every backend.
    """
    from ..obs.progress import start_campaign
    from . import make_executor  # the package imports the backends, which import us

    backend = make_executor(executor, jobs=jobs)
    config_hash = config_fingerprint(config) if config is not None else None
    git_rev = git_revision(Path(__file__).resolve().parent)
    campaign = start_campaign(
        journal, progress,
        name=name, total=len(tasks), jobs=backend.jobs,
        plan=[{"index": task.index, "label": task.label, "detail": detail}
              for task, detail in zip(tasks, plan)],
        config_hash=config_hash, git_rev=git_rev, seed=seed,
        extra={"executor": backend.name, **(header or {})},
    )
    try:
        outcomes = backend.submit_map(worker, tasks, campaign=campaign,
                                      prewarm=prewarm)
    except BaseException:
        if campaign is not None:
            campaign.finish(status="error")
        raise
    if campaign is not None:
        campaign.finish()

    merged = RunManifest(
        name=name, config_hash=config_hash, git_rev=git_rev, seed=seed,
        extra={**(manifest or {}), "jobs": backend.jobs,
               "executor": backend.name},
    )
    registry = MetricsRegistry()
    results = []
    for result, frag_registry, fragment in outcomes:
        registry.absorb(frag_registry)
        merged = merged.merge(fragment, name=name)
        results.append(result)
    merged.finish(registry)
    return CampaignResult(results, registry, merged, backend.jobs)
