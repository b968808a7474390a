"""Single-host executors: serial, thread pool, process pool.

:class:`SerialExecutor` is the reference implementation — the other
backends exist to go faster while reproducing its results bit-for-bit.
The thread and process pools share one dispatch loop,
:class:`_FutureDispatcher`: one future per task, finish records
streaming in completion order, results reassembled in task order.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from contextlib import nullcontext
from typing import Callable, Sequence

from .base import Executor, Task, fragment_describer

__all__ = ["SerialExecutor", "ThreadExecutor", "ProcessExecutor"]


class SerialExecutor(Executor):
    """In-process, in-order evaluation: the bit-identity oracle, on
    exactly one lane."""

    name = "serial"
    jobs = 1

    def submit_map(self, fn, tasks, *, campaign=None, prewarm=None) -> list:
        return self._run_serial(fn, tasks, campaign=campaign)


def _tracked_process_task(args: tuple) -> tuple:
    """Pool entry point wrapping a task with a start heartbeat.

    Module-level so it pickles.  The beat carries labels only — never
    results — so losing it degrades the view, not the run; the parent
    writes the one finish record when the future resolves, crediting
    this worker's pid.
    """
    from ..obs.progress import heartbeat

    fn, index, label, payload = args
    heartbeat("point-start", index=index, label=label)
    return os.getpid(), fn(payload)


class _FutureDispatcher:
    """Shared future-per-task loop for the thread and process pools.

    Streams finish records in *completion* order (so the journal shows
    live progress) while reassembling results in stable task order, and
    resubmits failed tasks while retry budget remains.  A task that fails
    for good cancels every task not yet started before its error
    propagates.
    """

    def __init__(self, executor: Executor, tasks: Sequence[Task], campaign,
                 submit: Callable, worker_of: Callable) -> None:
        self.executor = executor
        self.tasks = tasks
        self.campaign = campaign
        self._submit = submit
        self._worker_of = worker_of

    def run(self) -> list:
        results: list = [None] * len(self.tasks)
        attempts = [0] * len(self.tasks)
        pending: dict = {}

        def dispatch(pos: int) -> None:
            pending[self._submit(self.tasks[pos])] = pos

        for pos in range(len(self.tasks)):
            dispatch(pos)
        while pending:
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for future in done:
                pos = pending.pop(future)
                task = self.tasks[pos]
                try:
                    outcome = future.result()
                except BaseException as exc:
                    if (attempts[pos] < self.executor.retries
                            and isinstance(exc, Exception)):
                        attempts[pos] += 1
                        dispatch(pos)
                        continue
                    if self.campaign is not None:
                        self.campaign.point_error(task.index, task.label, exc)
                    # The pool's exit waits for every future it still
                    # holds; only the running ones need to finish.
                    for queued in pending:
                        queued.cancel()
                    raise
                worker, result = self._worker_of(outcome)
                results[pos] = result
                if self.campaign is not None:
                    self.campaign.point_finished(
                        task.index, task.label, worker=worker,
                        **fragment_describer(task, result))
        return results


class ThreadExecutor(Executor):
    """A thread pool: ``jobs`` concurrent in-process lanes.

    No fork and no pickling, for environments where process pools are
    unavailable.  It is not a speed-up: on a 2-core host a 12-case
    ``repro chaos`` campaign at ``--jobs 2`` took 18.1–18.4 s on threads
    against 11.5–12.9 s serial.  Per-task metric attribution is exact
    because :func:`repro.obs.metrics.use_registry` scopes the
    collecting registry per thread.
    """

    name = "thread"

    def __init__(self, jobs: int | None = None, retries: int = 0) -> None:
        super().__init__(retries=retries)
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def submit_map(self, fn, tasks, *, campaign=None, prewarm=None) -> list:
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            return self._run_serial(fn, tasks, campaign=campaign)

        def call(task: Task):
            # The dispatcher credits the finish to this same lane name.
            worker = threading.current_thread().name
            if campaign is not None:
                campaign.point_started(task.index, task.label, worker=worker)
            return worker, fn(task.payload)

        with ThreadPoolExecutor(
            max_workers=min(self.jobs, len(tasks)),
            thread_name_prefix="exec",
        ) as pool:
            return _FutureDispatcher(
                self, tasks, campaign,
                submit=lambda task: pool.submit(call, task),
                worker_of=lambda outcome: outcome,
            ).run()


class ProcessExecutor(Executor):
    """A fork-based process pool with one future per task.

    The ``prewarm`` hook runs in the parent before the pool forks, so
    the workers inherit warmed caches copy-on-write.  Each task is its
    own future: journal records stream in completion order and failed
    tasks resubmit under the retry budget.  ``jobs=1`` short-circuits
    in-process: a pool of one is pure overhead, and the results are
    bit-identical either way.
    """

    name = "process"

    def __init__(self, jobs: int | None = None, retries: int = 0) -> None:
        super().__init__(retries=retries)
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def submit_map(self, fn, tasks, *, campaign=None, prewarm=None) -> list:
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            return self._run_serial(fn, tasks, campaign=campaign)
        if prewarm is not None:
            prewarm()
        attach = (campaign.workers_attached() if campaign is not None
                  else nullcontext())
        # The heartbeat queue must be attached before the pool forks.
        with attach, ProcessPoolExecutor(
            max_workers=min(self.jobs, len(tasks))
        ) as pool:
            return _FutureDispatcher(
                self, tasks, campaign,
                submit=lambda task: pool.submit(
                    _tracked_process_task,
                    (fn, task.index, task.label, task.payload),
                ),
                worker_of=lambda outcome: (f"pid{outcome[0]}", outcome[1]),
            ).run()
