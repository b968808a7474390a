"""Run manifests: the provenance + performance record of one run.

A :class:`RunManifest` captures everything needed to interpret (and
later beat) a measured number: the configuration fingerprint, the git
revision of the code that produced it, the seed, wall-clock per phase,
peak RSS and a metrics snapshot.  Benchmarks write one manifest next to
every result file so the repo accumulates a perf trajectory — a later
optimisation PR reruns the same benchmark at the same seed and compares
manifests instead of anecdotes.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from .metrics import MetricsRegistry


def config_fingerprint(config: Any) -> str:
    """Stable short hash of a configuration-like object.

    Dataclasses hash their sorted field dict (enums by value); anything
    else hashes its ``repr``.  Equal configurations get equal
    fingerprints across processes and sessions.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = {}
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            payload[f.name] = value.value if isinstance(value, enum.Enum) else value
        raw = json.dumps(payload, sort_keys=True, default=repr)
    else:
        raw = repr(config)
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def git_revision(cwd: str | Path | None = None) -> str | None:
    """Current git commit hash, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, in bytes (None if unknown).

    Degrades gracefully: platforms without the ``resource`` module
    (e.g. Windows) or whose ``getrusage`` refuses the query return
    ``None`` instead of raising, and :meth:`RunManifest.finish` records
    a note alongside the null value.
    """
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, AttributeError, OSError, ValueError):
        # pragma: no cover - non-POSIX platform or restricted runtime
        return None
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


@dataclass
class RunManifest:
    """Provenance and per-phase timing of one measured run."""

    name: str
    config_hash: str | None = None
    git_rev: str | None = None
    seed: int | None = None
    created_unix: float = field(default_factory=time.time)
    python: str = field(default_factory=platform.python_version)
    phases: dict[str, float] = field(default_factory=dict)
    peak_rss: int | None = None
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock of the enclosed block under ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def finish(self, registry: MetricsRegistry | None = None) -> "RunManifest":
        """Seal the manifest: capture peak RSS and a metrics snapshot.

        Peak RSS only ever grows: a manifest merged from worker fragments
        keeps the largest worker's footprint if it exceeds this process's.
        """
        measured = peak_rss_bytes()
        candidates = [v for v in (self.peak_rss, measured) if v is not None]
        self.peak_rss = max(candidates) if candidates else None
        if self.peak_rss is None:
            self.extra.setdefault(
                "peak_rss_note",
                "peak RSS unavailable on this platform (no usable "
                "resource.getrusage); recorded as null",
            )
        if registry is not None:
            self.metrics = registry.snapshot()
        return self

    @property
    def total_seconds(self) -> float:
        return sum(self.phases.values())

    def merge(self, other: "RunManifest", name: str | None = None) -> "RunManifest":
        """A new manifest combining both operands (neither is mutated).

        The manifest side of the registry ``merge`` machinery: per-phase
        wall-clock adds key-wise, peak RSS takes the maximum, provenance
        fields keep ``self``'s value when set (else ``other``'s), and
        ``created_unix`` keeps the earliest.  All associative, so the
        per-worker fragments of a parallel sweep fold into one manifest
        in any grouping.  ``metrics`` keeps the first non-empty snapshot;
        callers aggregating registries should re-``finish`` the merged
        manifest with the merged registry instead.
        """
        phases = dict(self.phases)
        for phase, seconds in other.phases.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        rss_values = [v for v in (self.peak_rss, other.peak_rss) if v is not None]
        return RunManifest(
            name=name if name is not None else (self.name or other.name),
            config_hash=self.config_hash or other.config_hash,
            git_rev=self.git_rev or other.git_rev,
            seed=self.seed if self.seed is not None else other.seed,
            created_unix=min(self.created_unix, other.created_unix),
            python=self.python,
            phases=phases,
            peak_rss=max(rss_values) if rss_values else None,
            metrics=dict(self.metrics) if self.metrics else dict(other.metrics),
            extra={**other.extra, **self.extra},
        )

    # --- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config_hash": self.config_hash,
            "git_rev": self.git_rev,
            "seed": self.seed,
            "created_unix": self.created_unix,
            "python": self.python,
            "phases": dict(self.phases),
            "total_seconds": self.total_seconds,
            "peak_rss": self.peak_rss,
            "metrics": self.metrics,
            "extra": self.extra,
        }

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        return cls(**kwargs)

    @classmethod
    def from_json(cls, source: str | Path) -> "RunManifest":
        """Load from JSON text (a ``str`` starting with ``{``) or a path."""
        if isinstance(source, str) and source.lstrip().startswith("{"):
            raw = source
        else:
            raw = Path(source).read_text(encoding="utf-8")
        return cls.from_dict(json.loads(raw))


def manifest_for(
    name: str,
    config: Any = None,
    seed: int | None = None,
    **extra,
) -> RunManifest:
    """A manifest pre-filled with provenance (config hash, git rev)."""
    return RunManifest(
        name=name,
        config_hash=config_fingerprint(config) if config is not None else None,
        git_rev=git_revision(Path(__file__).resolve().parent),
        seed=seed,
        extra=dict(extra),
    )
