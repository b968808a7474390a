"""Multi-host executor: a shared job directory of claimable task files.

The wire protocol is plain files, so "a cluster" can be anything that
shares a directory — NFS mounts across hosts, or N local processes in
CI.  Layout of one job directory::

    jobdir/
      job.json            # header, written LAST (workers wait on it):
                          #   {"schema": 1, "fn": "module:qualname",
                          #    "total": N, "lease": seconds}
      tasks/task-00007.pkl         # unclaimed pickled Task
      claims/task-00007.pkl.<wid>  # claimed: atomically renamed here
      results/task-00007.pkl       # ("ok"|"error", payload, wid)
      stop                # sentinel: parent is gone, workers exit

Claiming is a single ``os.rename`` from ``tasks/`` into ``claims/`` —
atomic on POSIX, so two workers can never both win one task.  A live
worker refreshes its claim's mtime from a daemon thread every
``lease/3`` seconds; a claim whose mtime goes stale past the lease
belonged to a crashed worker, and the parent renames the task back into
``tasks/`` for someone else to claim.  Results are written to a temp
name and ``os.replace``d in, so readers never observe a torn file.

Bit-identity holds because dispatch decides *where* a task runs, never
*what* it computes: each payload carries its own seed, and the parent
reassembles results in stable task order.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from ..obs.metrics import get_registry
from .base import Executor, Task, TaskError, fragment_describer

__all__ = ["JobFileExecutor", "run_worker", "worker_id"]

_HEADER = "job.json"
_TASKS = "tasks"
_CLAIMS = "claims"
_RESULTS = "results"
_STOP = "stop"

#: Claim lease when no task timeout maps onto it: generous enough for
#: the heaviest golden-config points, short enough that CI notices a
#: crashed worker within one smoke job.
DEFAULT_LEASE = 30.0


def worker_id() -> str:
    """This process's claim suffix: host + pid, unique per live worker."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _task_name(pos: int) -> str:
    return f"task-{pos:05d}.pkl"


def _task_pos(name: str) -> int:
    # "task-00007.pkl[.<wid>]" -> 7
    return int(name.split(".", 1)[0].split("-", 1)[1])


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _resolve_fn(ref: str):
    """Import ``"module:qualname"`` back into the callable it names."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise TaskError(f"malformed worker function reference: {ref!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _refresh_claim(claim: Path, interval: float,
                   stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            os.utime(claim)
        except OSError:
            return  # claim re-claimed away or job torn down


def run_worker(
    jobdir: str | Path,
    *,
    poll: float = 0.05,
    startup_timeout: float | None = 120.0,
    max_tasks: int | None = None,
    max_idle: float | None = None,
) -> int:
    """Drain tasks from a job directory until the job completes.

    The ``repro worker <jobdir>`` subcommand is a thin wrapper around
    this.  Returns the number of tasks this worker evaluated.  Exits
    when every result is present or the parent leaves its ``stop``
    sentinel; ``max_tasks`` bounds the drain for tests.

    ``max_idle`` (seconds) auto-exits a worker that has found nothing to
    claim for that long in a row — the clock resets on every successful
    claim.  Externally-launched workers (``repro worker --max-idle``)
    use it so a drained or abandoned job directory cannot strand them
    forever when the parent dies without leaving its ``stop`` sentinel.
    """
    if max_idle is not None and max_idle <= 0:
        raise ValueError(f"max_idle must be positive, got {max_idle}")
    root = Path(jobdir)
    header_path = root / _HEADER
    waited = 0.0
    while not header_path.exists():
        if (root / _STOP).exists():
            return 0
        if startup_timeout is not None and waited >= startup_timeout:
            raise TaskError(
                f"no {_HEADER} appeared in {root} within {startup_timeout}s"
            )
        time.sleep(0.1)
        waited += 0.1
    header = json.loads(header_path.read_text())
    fn = _resolve_fn(header["fn"])
    lease = float(header.get("lease", DEFAULT_LEASE))
    total = int(header["total"])
    tasks_dir = root / _TASKS
    claims_dir = root / _CLAIMS
    results_dir = root / _RESULTS
    wid = worker_id()
    done = 0
    idle = 0.0
    while True:
        if (root / _STOP).exists():
            return done
        if len(list(results_dir.glob("task-*.pkl"))) >= total:
            return done
        candidates = sorted(
            p.name for p in tasks_dir.glob("task-*.pkl")
        )
        if not candidates:
            if max_idle is not None and idle >= max_idle:
                return done
            time.sleep(poll)
            idle += poll
            continue
        name = candidates[0]
        claim = claims_dir / f"{name}.{wid}"
        try:
            os.rename(tasks_dir / name, claim)
        except OSError:
            continue  # another worker won the rename
        idle = 0.0
        task: Task = pickle.loads(claim.read_bytes())
        stop = threading.Event()
        refresher = threading.Thread(
            target=_refresh_claim,
            args=(claim, max(lease / 3.0, 0.01), stop),
            name=f"claim-refresh-{task.index}", daemon=True,
        )
        refresher.start()
        try:
            try:
                outcome = ("ok", fn(task.payload), wid)
            except Exception as exc:
                try:
                    pickle.dumps(exc)
                except Exception:
                    exc = TaskError(f"{type(exc).__name__}: {exc}")
                outcome = ("error", exc, wid)
            _atomic_write(
                results_dir / name,
                pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL),
            )
        finally:
            stop.set()
        claim.unlink(missing_ok=True)
        done += 1
        if max_tasks is not None and done >= max_tasks:
            return done


class JobFileExecutor(Executor):
    """Cooperative multi-host dispatch over a shared job directory.

    ``workers`` local ``repro worker`` subprocesses are spawned against
    the directory (``workers=0`` spawns none — the job waits for
    external workers started by other hosts or the CI script), and the
    parent polls claims and results: new claims become ``point_started``
    records credited to the claiming worker, results become finish
    records, stale claims are re-queued, failed tasks retry under the
    executor's budget, and dead spawned workers are respawned while work
    remains.  ``task_timeout`` maps onto the claim lease — an overrun
    task is *re-claimed* rather than fatal, which is the only meaningful
    timeout on hosts the parent cannot signal.
    """

    name = "jobfile"

    def __init__(
        self,
        jobdir: str | Path | None = None,
        workers: int = 1,
        retries: int = 0,
        task_timeout: float | None = None,
        lease: float | None = None,
        poll: float = 0.05,
    ) -> None:
        super().__init__(retries=retries, task_timeout=task_timeout)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if lease is not None and lease <= 0:
            raise ValueError(f"lease must be positive, got {lease}")
        self.jobdir = Path(jobdir) if jobdir is not None else None
        self.workers = workers
        self.jobs = workers
        self.lease = lease if lease is not None else (
            task_timeout if task_timeout is not None else DEFAULT_LEASE
        )
        self.poll = poll
        #: Stale claims re-queued over this executor's lifetime — each
        #: one is a worker that died (or stalled past its lease)
        #: mid-task.  Surfaced to the campaign journal as
        #: ``lease-reclaimed`` records and to the metrics registry as
        #: the ``jobfile.leases_reclaimed`` counter.
        self.leases_reclaimed = 0

    # --- worker process management --------------------------------------------

    def _spawn(self, root: Path) -> subprocess.Popen:
        env = dict(os.environ)
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else src + os.pathsep + existing
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", str(root)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    # --- the parent loop ------------------------------------------------------

    def submit_map(self, fn, tasks, *, campaign=None, prewarm=None) -> list:
        if not tasks:
            return []
        fn_ref = f"{fn.__module__}:{fn.__qualname__}"
        if "<" in fn_ref:
            raise TaskError(
                f"jobfile workers import the task function by name; "
                f"{fn_ref} is not importable (lambda/local function?)"
            )
        owns_dir = self.jobdir is None
        root = (Path(tempfile.mkdtemp(prefix="repro-job-"))
                if owns_dir else self.jobdir)
        root.mkdir(parents=True, exist_ok=True)
        for sub in (_TASKS, _CLAIMS, _RESULTS):
            (root / sub).mkdir(exist_ok=True)
        (root / _STOP).unlink(missing_ok=True)
        blobs = [pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                 for task in tasks]
        for pos, blob in enumerate(blobs):
            _atomic_write(root / _TASKS / _task_name(pos), blob)
        # The header is written last: a worker that sees job.json sees a
        # fully-populated task directory.
        _atomic_write(root / _HEADER, json.dumps({
            "schema": 1, "fn": fn_ref, "total": len(tasks),
            "lease": self.lease,
        }, indent=2).encode())

        procs = [self._spawn(root)
                 for _ in range(min(self.workers, len(tasks)))]
        respawn_budget = max(4, 2 * len(tasks))
        results: list = [None] * len(tasks)
        have = [False] * len(tasks)
        attempts = [0] * len(tasks)
        announced: set[int] = set()
        ok = False
        try:
            while not all(have):
                self._observe_claims(root, tasks, have, announced, blobs,
                                     campaign)
                self._collect_results(root, tasks, results, have, attempts,
                                      announced, blobs, campaign)
                if procs and not all(have):
                    for i, proc in enumerate(procs):
                        if proc.poll() is not None:
                            if respawn_budget <= 0:
                                raise TaskError(
                                    "jobfile workers keep dying with work "
                                    f"remaining (exit {proc.returncode})"
                                )
                            respawn_budget -= 1
                            procs[i] = self._spawn(root)
                if not all(have):
                    time.sleep(self.poll)
            ok = True
            return results
        finally:
            try:
                _atomic_write(root / _STOP, b"")
            except OSError:
                pass
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            if owns_dir and ok:
                shutil.rmtree(root, ignore_errors=True)

    def _observe_claims(self, root: Path, tasks, have, announced, blobs,
                        campaign) -> None:
        now = time.time()
        for claim in (root / _CLAIMS).glob("task-*.pkl.*"):
            try:
                pos = _task_pos(claim.name)
            except (ValueError, IndexError):
                continue
            if pos >= len(tasks) or have[pos]:
                continue
            task = tasks[pos]
            if pos not in announced:
                announced.add(pos)
                if campaign is not None:
                    wid = claim.name.partition(".pkl.")[2] or "worker"
                    campaign.point_started(task.index, task.label, worker=wid)
            try:
                age = now - claim.stat().st_mtime
            except OSError:
                continue  # finished (or refreshed) between glob and stat
            if age > self.lease:
                # Stale claim: the worker died mid-task.  Re-queue the
                # task, then drop the claim; a crash costs a lease, not
                # the campaign, and does not spend the retry budget.
                _atomic_write(root / _TASKS / _task_name(pos), blobs[pos])
                claim.unlink(missing_ok=True)
                announced.discard(pos)
                self.leases_reclaimed += 1
                get_registry().counter("jobfile.leases_reclaimed").add()
                if campaign is not None and campaign.journal is not None:
                    # Custom record kind: the campaign reducer ignores
                    # kinds it does not know, so old readers stay
                    # compatible while new ones see the reclaim trail.
                    campaign.journal.write({
                        "record": "lease-reclaimed",
                        "point": int(task.index),
                        "label": task.label,
                        "worker": claim.name.partition(".pkl.")[2] or "worker",
                        "lease": self.lease,
                        "total_reclaimed": self.leases_reclaimed,
                    })

    def _collect_results(self, root: Path, tasks, results, have, attempts,
                         announced, blobs, campaign) -> None:
        for res in sorted((root / _RESULTS).glob("task-*.pkl")):
            try:
                pos = _task_pos(res.name)
            except (ValueError, IndexError):
                continue
            if pos >= len(tasks) or have[pos]:
                continue
            task = tasks[pos]
            try:
                status, payload, wid = pickle.loads(res.read_bytes())
            except (OSError, EOFError, pickle.UnpicklingError, ValueError):
                continue  # not readable yet; next poll
            if status == "ok":
                results[pos] = payload
                have[pos] = True
                if campaign is not None:
                    fields = fragment_describer(task, payload)
                    fields.setdefault("worker", wid)
                    campaign.point_finished(task.index, task.label, **fields)
                continue
            # A task *error* (the function raised) spends the retry
            # budget — unlike a worker crash, which only costs a lease.
            res.unlink(missing_ok=True)
            attempts[pos] += 1
            if attempts[pos] <= self.retries:
                announced.discard(pos)
                _atomic_write(root / _TASKS / _task_name(pos), blobs[pos])
                continue
            error = (payload if isinstance(payload, BaseException)
                     else TaskError(str(payload)))
            if campaign is not None:
                campaign.point_error(task.index, task.label, error)
            raise error
