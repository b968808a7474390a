"""Append-only JSONL run journal for long campaigns.

``run_sweep``/``run_chaos`` used to be black boxes until they returned;
the journal turns a campaign into a streaming, restart-tolerant record
that a separate process (``repro watch``) can render live or post-hoc
from the file alone.

The format is one JSON object per line, discriminated by ``"record"``:

* ``campaign`` — the header, written at construction time: campaign
  name, schema version, config fingerprint, git revision, seed, total
  point count, worker count, and the point *plan* (index -> label +
  per-point detail such as sweep overrides or a chaos seed), so every
  later record can be resolved to its configuration without re-deriving
  the sweep grid.
* ``point-start`` / ``point-finish`` / ``point-error`` — per-point
  lifecycle with wall-clock and (on finish) the point's runtime and
  counter snapshot.  Start records may come from worker heartbeats;
  finish and error records are written by the parent as results arrive.
* ``snapshot`` — periodic campaign roll-up (done/total, errors,
  elapsed, throughput, ETA), one every
  :data:`repro.obs.progress.SNAPSHOT_EVERY` finishes and one at the
  end, so a glance at the tail shows campaign health without replaying
  the whole file.
* ``campaign-end`` — terminal status.

:class:`RunJournal` only writes lines: every record, header included,
is built and stamped once by :class:`repro.obs.progress.Campaign`,
which hands the same dict to the journal and to the live progress view.
Each record is a single ``write()`` of one newline-terminated line
followed by a flush, guarded by a lock: only the parent process writes,
so the file never interleaves partial lines and a reader can tail it
while the campaign runs.  A campaign killed mid-write leaves at most one
truncated final line, which :func:`read_journal` skips — a journal is
readable after any crash.

Like the rest of the obs layer this is observation-only: the journal
reads wall-clock and finished counters, never an RNG stream, so a
journaled run is bit-identical to an unjournaled one
(``tests/test_journal.py`` pins that neutrality).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

#: Journal format version, bumped on incompatible record changes.
JOURNAL_SCHEMA = 1


class RunJournal:
    """Locked JSONL line writer for one campaign.

    The header is written immediately on construction, so even a
    campaign killed before its first point leaves a parseable journal.
    """

    def __init__(self, path: str | Path, header: dict) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._sink = self.path.open("w", encoding="utf-8")
        self.write(header)

    def write(self, record: dict) -> None:
        """Append one record: a single locked write of one full line."""
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            if not self._sink.closed:
                self._sink.write(line)
                self._sink.flush()

    def close(self) -> None:
        with self._lock:
            self._sink.close()


def read_journal(source: str | Path) -> tuple[list[dict], int]:
    """Parse a journal tolerantly: ``(records, skipped_line_count)``.

    A campaign killed mid-write leaves a truncated final line; any line
    that does not parse as a JSON object is counted and skipped rather
    than raised, so ``repro watch`` always renders what *is* readable.
    """
    records: list[dict] = []
    skipped = 0
    with Path(source).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped


def replay_journal(source: str | Path):
    """Reconstruct a :class:`~repro.obs.progress.CampaignState` from a file.

    The journal records *are* the progress-tracker records, so the live
    view and the post-hoc view share one reducer — what ``repro watch``
    renders from the file is exactly what ``--progress`` rendered live.
    """
    from .progress import CampaignState

    records, skipped = read_journal(source)
    state = CampaignState()
    for record in records:
        state.apply(record)
    state.skipped_lines = skipped
    return state
