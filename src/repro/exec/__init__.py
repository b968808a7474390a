"""Pluggable campaign executors: one runner, four dispatch strategies.

See :mod:`repro.exec.base` for :func:`run_campaign`, the one fan-out
that :func:`repro.api.run_sweep`, :func:`repro.sim.chaos.run_chaos`,
:func:`repro.sim.resilience.run_resilience_spec` and
:func:`repro.risk.evaluate.evaluate_designs` share, the
:class:`Executor` protocol under it, and :func:`make_executor` for the
name → backend resolution the specs and the CLI share.
"""

from __future__ import annotations

from .base import (
    CampaignResult,
    Executor,
    Task,
    TaskError,
    TaskTimeoutError,
    collect,
    fragment_describer,
    run_campaign,
)
from .jobfile import JobFileExecutor, run_worker
from .local import ProcessExecutor, SerialExecutor, ThreadExecutor

__all__ = [
    "Executor",
    "Task",
    "TaskError",
    "TaskTimeoutError",
    "CampaignResult",
    "collect",
    "fragment_describer",
    "run_campaign",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "JobFileExecutor",
    "run_worker",
    "make_executor",
    "EXECUTOR_NAMES",
]

#: The names ``--executor`` and the spec ``executor`` fields accept.
EXECUTOR_NAMES = ("serial", "thread", "process", "jobfile")


def make_executor(
    executor: "Executor | str | None" = None,
    *,
    jobs: int | None = None,
    jobdir=None,
    retries: int = 0,
    task_timeout: float | None = None,
    lease: float | None = None,
):
    """Resolve an executor name (or pass an instance through) to a backend.

    The resolution rule shared by the specs and the CLI:

    * an :class:`Executor` instance is returned unchanged;
    * ``None`` keeps the historical semantics — ``jobs`` > 1 implies
      ``process`` (the documented "``--jobs`` without ``--executor``"
      rule), anything else runs ``serial``;
    * ``"serial" | "thread" | "process" | "jobfile"`` select explicitly.

    ``jobs=0`` is only meaningful for ``jobfile`` (the job waits for
    external ``repro worker`` processes); every other backend needs at
    least one lane.
    """
    if isinstance(executor, Executor):
        return executor
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if executor is None:
        executor = "process" if jobs is not None and jobs > 1 else "serial"
    name = str(executor).lower()
    if name != "jobfile" and jobs == 0:
        raise ValueError(
            "jobs=0 means 'external workers only' and requires "
            "executor='jobfile'"
        )
    if name == "serial":
        return SerialExecutor(retries=retries, task_timeout=task_timeout)
    if name == "thread":
        return ThreadExecutor(jobs=jobs, retries=retries,
                              task_timeout=task_timeout)
    if name == "process":
        return ProcessExecutor(jobs=jobs, retries=retries,
                               task_timeout=task_timeout)
    if name == "jobfile":
        return JobFileExecutor(
            jobdir=jobdir, workers=1 if jobs is None else jobs,
            retries=retries, task_timeout=task_timeout, lease=lease,
        )
    raise ValueError(
        f"unknown executor {executor!r}; expected one of "
        f"{', '.join(EXECUTOR_NAMES)} or an Executor instance"
    )
