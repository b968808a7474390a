"""Live campaign progress: heartbeats, straggler detection, summaries.

The layer has three parts, all fed by the *same* record dicts the run
journal stores (:mod:`repro.obs.journal`):

* :class:`CampaignState` — a pure reducer: ``apply(record)`` folds one
  journal/heartbeat record into campaign state (points done/total,
  throughput, ETA, per-worker last-seen, runtimes).  Because the live
  tracker and ``repro watch`` share this one reducer, what the file
  replays is exactly what the live view showed.
* worker heartbeats — pool workers call :func:`heartbeat` when a point
  starts, which writes to a ``multiprocessing.SimpleQueue`` inherited
  over ``fork`` via a module-level global set by the parent *before*
  the pool spawns.  When no queue is attached (telemetry off,
  in-process execution, or a ``spawn`` start method that does not
  inherit globals) the call is a no-op, so workers never block and
  jobs=N output stays bit-identical to jobs=1.  Heartbeats carry labels
  only — never results — so losing every heartbeat degrades the *view*,
  not the run.
* :class:`Campaign` — the parent-side bundle of journal + tracker: one
  object the executors drive (``point_started`` / ``point_finished`` /
  ``point_error`` / ``finish``).  It builds and stamps each record once,
  from one clock, and hands the same dict to the journal file and the
  live view; worker heartbeats are drained on a background thread and
  stamped on arrival.  A point's ``seconds`` is the runtime the worker
  measured (:func:`repro.exec.base.collect`); the parent's finish record is
  the only finish record.

Straggler detection follows the usual robust rule: a point is flagged
when its runtime exceeds ``straggler_factor`` x the median finished
runtime (in-flight points are flagged on elapsed time the same way),
and the flag carries the point's configuration from the campaign plan
so a slow corner of the design space is identifiable from the report
alone.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from .journal import JOURNAL_SCHEMA, RunJournal

#: Default straggler threshold: runtime > factor x median flags a point.
STRAGGLER_FACTOR = 3.0

#: A campaign writes a ``snapshot`` record every this many finishes.
SNAPSHOT_EVERY = 10

#: Seconds between two live progress lines.
RENDER_EVERY = 5.0

# The heartbeat queue workers inherit over fork.  Module-level on
# purpose: ProcessPoolExecutor pickles work items but not closures over
# queues, while a fork()ed child sees this global as the parent set it.
_worker_queue = None


def heartbeat(kind: str, **fields) -> None:
    """Emit one worker heartbeat record; a no-op when no queue is attached.

    Never raises: a full or torn-down queue silently drops the beat —
    heartbeats are advisory, results travel through the pool.
    """
    queue = _worker_queue
    if queue is None:
        return
    record = {"record": kind, "worker": f"pid{os.getpid()}", **fields}
    try:
        queue.put(record)
    except Exception:
        pass


class CampaignState:
    """Campaign progress folded from journal/heartbeat records.

    ``apply`` is idempotent per point: a repeated finish record lands on
    the same point entry, and ``done``/``errors`` are derived from point
    status, so record duplication or loss never corrupts the totals.
    """

    def __init__(self) -> None:
        self.campaign = "campaign"
        self.schema: int | None = None
        self.total: int | None = None
        self.jobs: int | None = None
        self.config_hash: str | None = None
        self.git_rev: str | None = None
        self.seed: object = None
        self.started_at: float | None = None
        self.last_t: float | None = None
        self.end_status: str | None = None
        self.last_snapshot: dict | None = None
        self.skipped_lines = 0
        #: index -> {label, detail, start, finish, seconds, worker,
        #:           status (planned|running|done|error), error, counters}
        self.points: dict[int, dict] = {}
        #: worker id -> {last_seen, done, running (index | None)}
        self.workers: dict[str, dict] = {}

    # --- the reducer ----------------------------------------------------------

    def apply(self, record: dict) -> None:
        kind = record.get("record")
        t = record.get("t")
        if isinstance(t, (int, float)):
            self.last_t = t if self.last_t is None else max(self.last_t, t)
        worker = record.get("worker")
        if worker:
            entry = self.workers.setdefault(
                worker, {"last_seen": t, "done": 0, "running": None})
            if isinstance(t, (int, float)):
                last = entry.get("last_seen")
                entry["last_seen"] = t if last is None else max(last, t)
        if kind == "campaign":
            self.campaign = record.get("campaign", self.campaign)
            self.schema = record.get("schema", self.schema)
            self.total = record.get("total_points", self.total)
            self.jobs = record.get("jobs", self.jobs)
            self.config_hash = record.get("config_hash")
            self.git_rev = record.get("git_rev")
            self.seed = record.get("seed")
            if self.started_at is None:
                self.started_at = t
            for planned in record.get("plan") or []:
                point = self._point(planned.get("index"))
                if point is not None:
                    point["label"] = planned.get("label", point["label"])
                    point["detail"] = planned.get("detail")
        elif kind == "point-start":
            point = self._point(record.get("index"))
            if point is None:
                return
            point["label"] = record.get("label", point["label"])
            if point["status"] == "planned":
                point["status"] = "running"
            if point["start"] is None:
                point["start"] = t
            # A start beat can reach the parent after the point's finish
            # record: it must not leave its worker marked as running.
            if worker and point["status"] == "running":
                point["worker"] = worker
                self.workers[worker]["running"] = record.get("index")
        elif kind in ("point-finish", "point-error"):
            point = self._point(record.get("index"))
            if point is None:
                return
            point["label"] = record.get("label", point["label"])
            already_settled = point["status"] in ("done", "error")
            point["status"] = "error" if kind == "point-error" else "done"
            point["finish"] = t
            if record.get("seconds") is not None:
                point["seconds"] = record["seconds"]
            elif point["seconds"] is None and None not in (t, point["start"]):
                point["seconds"] = max(t - point["start"], 0.0)
            if record.get("counters"):
                point["counters"] = record["counters"]
            if kind == "point-error":
                point["error"] = record.get("error")
                point["error_type"] = record.get("error_type", "error")
            # Credit the worker that ran the point, not the parent that
            # journaled the result.
            ran_on = point["worker"] = point.get("worker") or worker
            if ran_on and not already_settled:
                entry = self.workers.setdefault(
                    ran_on, {"last_seen": t, "done": 0, "running": None})
                entry["done"] += 1
                if entry.get("running") == record.get("index"):
                    entry["running"] = None
            if worker == "main" and ran_on != "main":
                # The parent's bookkeeping record should not make "main"
                # look like a busy worker.
                self.workers.pop("main", None)
        elif kind == "snapshot":
            self.last_snapshot = record
        elif kind == "campaign-end":
            self.end_status = record.get("status", "complete")
        # Unknown kinds are ignored: newer writers stay readable.

    def _point(self, index) -> dict | None:
        if not isinstance(index, int):
            return None
        return self.points.setdefault(index, {
            "label": f"point[{index}]", "detail": None, "start": None,
            "finish": None, "seconds": None, "worker": None,
            "status": "planned", "error": None, "counters": None,
        })

    # --- derived campaign health ----------------------------------------------

    @property
    def done(self) -> int:
        return sum(1 for p in self.points.values()
                   if p["status"] in ("done", "error"))

    @property
    def errors(self) -> int:
        return sum(1 for p in self.points.values() if p["status"] == "error")

    @property
    def running(self) -> list[int]:
        return sorted(i for i, p in self.points.items()
                      if p["status"] == "running")

    @property
    def finished(self) -> bool:
        return self.end_status is not None

    def elapsed(self, now: float | None = None) -> float:
        if self.started_at is None:
            return 0.0
        now = self.last_t if now is None else now
        return max((now or self.started_at) - self.started_at, 0.0)

    def throughput(self, now: float | None = None) -> float:
        elapsed = self.elapsed(now)
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self, now: float | None = None) -> float | None:
        if self.total is None:
            return None
        rate = self.throughput(now)
        if rate <= 0:
            return None
        return max(self.total - self.done, 0) / rate

    # --- runtimes and stragglers ----------------------------------------------

    def runtimes(self) -> list[tuple[int, float]]:
        """(index, seconds) of every settled point with a known runtime."""
        return sorted(
            (i, p["seconds"]) for i, p in self.points.items()
            if p["status"] in ("done", "error") and p["seconds"] is not None
        )

    def median_runtime(self) -> float | None:
        seconds = sorted(s for _, s in self.runtimes())
        if not seconds:
            return None
        mid = len(seconds) // 2
        if len(seconds) % 2:
            return seconds[mid]
        return 0.5 * (seconds[mid - 1] + seconds[mid])

    def stragglers(
        self,
        factor: float = STRAGGLER_FACTOR,
        now: float | None = None,
    ) -> list[dict]:
        """Points slower than ``factor`` x the median finished runtime.

        Includes in-flight points on elapsed-so-far, so a hung worker
        surfaces before it finishes.  Each entry carries the point's
        plan detail (sweep overrides / chaos seed) — the flagged
        *configuration*, not just an index.
        """
        median = self.median_runtime()
        if median is None or median <= 0:
            return []
        now = self.last_t if now is None else now
        flagged = []
        for index, point in sorted(self.points.items()):
            if point["status"] in ("done", "error"):
                seconds = point["seconds"]
                state = point["status"]
            elif point["status"] == "running" and None not in (now, point["start"]):
                seconds = max(now - point["start"], 0.0)
                state = "running"
            else:
                continue
            if seconds is not None and seconds > factor * median:
                flagged.append({
                    "index": index, "label": point["label"], "state": state,
                    "seconds": seconds, "median": median,
                    "ratio": seconds / median, "detail": point["detail"],
                })
        flagged.sort(key=lambda f: -f["seconds"])
        return flagged

    def slowest(self, n: int = 5) -> list[dict]:
        ranked = sorted(self.runtimes(), key=lambda item: -item[1])[:n]
        return [{"index": i, "label": self.points[i]["label"], "seconds": s,
                 "detail": self.points[i]["detail"]} for i, s in ranked]

    def runtime_histogram(self, bins: int = 8) -> list[tuple[float, float, int]]:
        """Equal-width ``(lo, hi, count)`` bins over finished runtimes."""
        seconds = [s for _, s in self.runtimes()]
        if not seconds:
            return []
        lo, hi = min(seconds), max(seconds)
        if hi <= lo:
            return [(lo, hi, len(seconds))]
        width = (hi - lo) / bins
        counts = [0] * bins
        for s in seconds:
            counts[min(int((s - lo) / width), bins - 1)] += 1
        return [(lo + b * width, lo + (b + 1) * width, counts[b])
                for b in range(bins)]

    def error_rollup(self) -> dict[str, dict]:
        """Errors grouped by exception type: ``{type: {count, example}}``."""
        rollup: dict[str, dict] = {}
        for index, point in sorted(self.points.items()):
            if point["status"] != "error":
                continue
            kind = point.get("error_type") or "error"
            entry = rollup.setdefault(kind, {"count": 0, "example": None,
                                             "indices": []})
            entry["count"] += 1
            entry["indices"].append(index)
            if entry["example"] is None:
                entry["example"] = point.get("error")
        return rollup

    def worker_rows(self, now: float | None = None) -> list[dict]:
        """Per-worker status: points done, current point, seconds since seen."""
        now = self.last_t if now is None else now
        rows = []
        for worker in sorted(self.workers):
            entry = self.workers[worker]
            last_seen = entry.get("last_seen")
            idle = (max(now - last_seen, 0.0)
                    if None not in (now, last_seen) else None)
            running = entry.get("running")
            rows.append({
                "worker": worker, "done": entry.get("done", 0),
                "running": running,
                "running_label": (self.points[running]["label"]
                                  if running in self.points else None),
                "idle_seconds": idle,
            })
        return rows


class ProgressTracker:
    """A :class:`CampaignState` plus throttled live rendering.

    ``stream=None`` keeps the tracker silent (state only) — the mode
    tests and library callers use; the CLI passes ``sys.stderr``.  The
    campaign name and size come from the header record, like every
    other field of the state.
    """

    def __init__(self, stream: io.TextIOBase | None = None) -> None:
        self.state = CampaignState()
        self.stream = stream
        self._last_render = 0.0

    def apply(self, record: dict) -> None:
        self.state.apply(record)
        if self.stream is not None and record.get("record") != "campaign":
            now = time.time()
            if now - self._last_render >= RENDER_EVERY:
                self._last_render = now
                print(self.progress_line(now), file=self.stream, flush=True)

    def progress_line(self, now: float | None = None) -> str:
        from ..reporting import render_progress_line

        return render_progress_line(self.state, now=now)

    def render_summary(self) -> None:
        if self.stream is None:
            return
        from ..reporting import render_campaign

        print(render_campaign(self.state), file=self.stream, flush=True)


class Campaign:
    """Parent-side telemetry for one campaign: journal + live progress.

    Every record — the header, each point's start, finish or error, the
    snapshots and the end — is built and stamped here once, from one
    clock, and the same dict goes to the journal file and to the one
    :class:`CampaignState` reducer (the tracker's, or a private one when
    only the journal is on, which the snapshots are computed from).  So
    :func:`~repro.obs.journal.replay_journal` of the file rebuilds the
    live state.  Thread-safe: the heartbeat drain thread and the
    parent's result loop both emit under one lock, so the file order is
    the order the reducer saw.
    """

    def __init__(
        self,
        header: dict,
        journal: str | Path | None = None,
        tracker: ProgressTracker | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.tracker = tracker
        self.state = tracker.state if tracker is not None else CampaignState()
        self._clock = clock
        self._lock = threading.Lock()
        self._queue = None
        self._drain: threading.Thread | None = None
        self._finished = False
        header = {"record": "campaign", "t": clock(),
                  "schema": JOURNAL_SCHEMA, **header}
        self.journal = None if journal is None else RunJournal(journal, header)
        self._reduce(header)

    # --- record fan-out -------------------------------------------------------

    def _reduce(self, record: dict) -> None:
        if self.tracker is not None:
            self.tracker.apply(record)
        else:
            self.state.apply(record)

    def _write(self, record: dict) -> None:
        """Stamp, journal and reduce one record; the caller holds the lock."""
        record.setdefault("t", self._clock())
        if self.journal is not None:
            self.journal.write(record)
        self._reduce(record)

    def _emit(self, record: dict) -> None:
        with self._lock:
            self._write(record)

    def _snapshot(self) -> dict:
        """The campaign roll-up, read off the reducer."""
        state, now = self.state, self._clock()
        record = {"record": "snapshot", "t": now, "done": state.done,
                  "errors": state.errors, "total": state.total,
                  "elapsed_seconds": state.elapsed(now),
                  "throughput": state.throughput(now)}
        eta = state.eta_seconds(now)
        if eta is not None:
            record["eta_seconds"] = eta
        return record

    def point_started(self, index: int, label: str,
                      worker: str = "main") -> None:
        self._emit({"record": "point-start", "index": index, "label": label,
                    "worker": worker})

    def point_finished(
        self,
        index: int,
        label: str,
        seconds: float | None = None,
        counters: dict | None = None,
        worker: str = "main",
    ) -> None:
        record = {"record": "point-finish", "index": index, "label": label,
                  "worker": worker}
        if seconds is not None:
            record["seconds"] = seconds
        if counters:
            record["counters"] = counters
        with self._lock:
            self._write(record)
            if self.state.done % SNAPSHOT_EVERY == 0:
                self._write(self._snapshot())

    def point_error(self, index: int, label: str, error: BaseException | str,
                    worker: str = "main") -> None:
        self._emit({
            "record": "point-error", "index": index, "label": label,
            "worker": worker, "error": str(error),
            "error_type": type(error).__name__
            if isinstance(error, BaseException) else "error",
        })

    # --- worker heartbeat plumbing --------------------------------------------

    @contextmanager
    def workers_attached(self) -> Iterator[None]:
        """Attach the heartbeat queue for the duration of a worker pool.

        Must wrap pool *creation*: the queue global is inherited at
        ``fork`` time.  The drain thread stamps each worker beat and
        emits it like any other record.
        """
        global _worker_queue
        self._queue = multiprocessing.SimpleQueue()
        _worker_queue = self._queue
        self._drain = threading.Thread(target=self._drain_loop,
                                       name="campaign-heartbeats", daemon=True)
        self._drain.start()
        try:
            yield
        finally:
            _worker_queue = None
            try:
                self._queue.put(None)
            except Exception:
                pass
            self._drain.join(timeout=5.0)
            self._drain = None
            self._queue.close()
            self._queue = None

    def _drain_loop(self) -> None:
        while True:
            try:
                record = self._queue.get()
            except (EOFError, OSError):
                return
            if record is None:
                return
            self._emit(record)

    # --- teardown -------------------------------------------------------------

    def finish(self, status: str = "complete") -> None:
        """Final snapshot and ``campaign-end``; safe to call more than once."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
            self._write(self._snapshot())
            self._write({"record": "campaign-end", "status": status,
                         "done": self.state.done,
                         "errors": self.state.errors})
            if self.journal is not None:
                self.journal.close()
        if self.tracker is not None:
            self.tracker.render_summary()


def start_campaign(
    journal: str | Path | None,
    progress: ProgressTracker | bool | None,
    *,
    name: str,
    total: int,
    plan: list[dict] | None = None,
    config_hash: str | None = None,
    git_rev: str | None = None,
    seed: object = None,
    jobs: int = 1,
    extra: dict | None = None,
) -> Campaign | None:
    """Build the :class:`Campaign` for a run, or ``None`` when telemetry
    is off (the executors then skip every journal and progress call).

    ``journal`` is the path the JSONL journal is written to;
    ``progress`` accepts ``True`` (live view on stderr) or a configured
    :class:`ProgressTracker`.
    """
    if journal is None and not progress:
        return None
    if isinstance(progress, ProgressTracker):
        tracker = progress
    else:
        tracker = ProgressTracker(stream=sys.stderr) if progress else None
    header = {"campaign": name, "total_points": total, "jobs": jobs,
              "config_hash": config_hash, "git_rev": git_rev, "seed": seed}
    if plan is not None:
        header["plan"] = plan
    if extra:
        header["extra"] = extra
    return Campaign(header, journal=journal, tracker=tracker)
