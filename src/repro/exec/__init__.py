"""Pluggable campaign executors: one runner, three dispatch strategies.

See :mod:`repro.exec.base` for :func:`run_campaign`, the one fan-out
that :func:`repro.api.run_sweep`, :func:`repro.sim.chaos.run_chaos`,
:func:`repro.sim.resilience.run_resilience_spec`, ``run_resilience``
and :func:`repro.risk.evaluate.evaluate_designs` share, the
:class:`Executor` protocol under it, and :func:`make_executor` for the
name → backend resolution the specs and the CLI share.
"""

from __future__ import annotations

from .base import Executor, Task  # Task: for the benchmarks/perf probes
from .local import ProcessExecutor, SerialExecutor, ThreadExecutor

__all__ = [
    "Executor",
    "Task",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "EXECUTOR_NAMES",
]

#: The names ``--executor`` and the spec ``executor`` fields accept.
EXECUTOR_NAMES = ("serial", "thread", "process")


def make_executor(
    executor: "Executor | str | None" = None,
    *,
    jobs: int | None = None,
):
    """Resolve an executor name (or pass an instance through) to a backend.

    The resolution rule shared by the specs and the CLI:

    * an :class:`Executor` instance is returned unchanged;
    * ``None`` keeps the historical semantics — ``jobs`` > 1 implies
      ``process`` (the documented "``--jobs`` without ``--executor``"
      rule), anything else runs ``serial``;
    * ``"serial" | "thread" | "process"`` select explicitly.

    ``jobs``, when given, must be at least 1 on every backend.
    """
    if isinstance(executor, Executor):
        return executor
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if executor is None:
        executor = "process" if jobs is not None and jobs > 1 else "serial"
    name = str(executor).lower()
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(jobs=jobs)
    if name == "process":
        return ProcessExecutor(jobs=jobs)
    raise ValueError(
        f"unknown executor {executor!r}; expected one of "
        f"{', '.join(EXECUTOR_NAMES)} or an Executor instance"
    )
