"""Trace analytics: per-query lifecycles and outage timelines.

The tracer records *events*; this module reconstructs *stories*.  A
query's lifecycle — its flood fan-out per hop, the drops it suffered,
the retries its source issued, whether it completed and how long the
source waited — is scattered across several events that
``sim/network.py`` emits synchronously at the query's arrival time.
:func:`build_timeline` groups them back together (events of one query
share an exact ``(t, source)`` stamp), pairs crash/recover/outage-end
events into :class:`OutageWindow` spans, and summarizes the result as a
:class:`TimelineReport` with completion-time percentiles and per-hop
fan-out profiles.

Works on a live :class:`~repro.obs.trace.Tracer`, a list of
:class:`~repro.obs.trace.TraceEvent`, or a JSONL path written by
``--trace-out`` — the analytics never require the simulation process
that produced the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .trace import TraceEvent, Tracer, read_jsonl

#: Percentiles reported for time-to-completion and results.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


@dataclass
class QueryLifecycle:
    """One query, reassembled from its trace events."""

    t: float
    source: int
    reach: float = 0.0
    results: float = 0.0
    client: bool = False
    degraded: bool = False
    attempts: int = 1
    #: Seconds the source waited on retry timeouts before giving up or
    #: succeeding — the protocol-level time-to-completion proxy.
    waited: float = 0.0
    #: Messages crossing each hop (index = sender depth).
    fanout: list = field(default_factory=list)
    #: (phase, messages lost) for each drop event of this query.
    drops: list = field(default_factory=list)
    retries: int = 0
    truncated: bool = False

    @property
    def completed(self) -> bool:
        """Did any results reach the source?"""
        return self.results > 0


@dataclass(frozen=True)
class OutageWindow:
    """A contiguous span during which a cluster had no live partner."""

    cluster: int
    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass
class TimelineReport:
    """Everything :func:`build_timeline` reconstructed from one trace."""

    lifecycles: list
    orphans: list            # (t, source) of queries that died on dark clusters
    outages: list            # OutageWindow spans, in end-time order
    crashes: int = 0
    recoveries: int = 0
    failovers: int = 0       # crashes that left >= 1 live partner
    span: tuple = (0.0, 0.0)
    #: (t, kind, cluster) for every self-healing action, in time order:
    #: ``detect`` / ``false-suspicion`` / ``promote`` / ``rehome``;
    #: healing links carry the partition-window index instead of a cluster.
    repairs: list = field(default_factory=list)
    detections: int = 0
    false_suspicions: int = 0
    promotions: int = 0
    rehomed_clients: int = 0
    links_healed: int = 0
    links_restored: int = 0
    detection_lags: list = field(default_factory=list)

    # --- summary statistics ----------------------------------------------------

    @property
    def num_queries(self) -> int:
        return len(self.lifecycles)

    @property
    def completion_rate(self) -> float:
        """Completed queries / (queries + orphans)."""
        attempted = len(self.lifecycles) + len(self.orphans)
        if attempted == 0:
            return 0.0
        done = sum(1 for q in self.lifecycles if q.completed)
        return done / attempted

    def waited_percentiles(
        self, percentiles: Iterable[float] = DEFAULT_PERCENTILES
    ) -> dict[str, float]:
        """Time-to-completion percentiles (seconds waited on retries)."""
        waits = np.array([q.waited for q in self.lifecycles])
        if waits.size == 0:
            return {f"p{p:g}": 0.0 for p in percentiles}
        return {f"p{p:g}": float(np.percentile(waits, p)) for p in percentiles}

    def results_percentiles(
        self, percentiles: Iterable[float] = DEFAULT_PERCENTILES
    ) -> dict[str, float]:
        values = np.array([q.results for q in self.lifecycles])
        if values.size == 0:
            return {f"p{p:g}": 0.0 for p in percentiles}
        return {f"p{p:g}": float(np.percentile(values, p)) for p in percentiles}

    def mean_fanout_by_hop(self) -> list[float]:
        """Average flood fan-out at each hop across all queries."""
        profiles = [q.fanout for q in self.lifecycles if q.fanout]
        if not profiles:
            return []
        width = max(len(p) for p in profiles)
        table = np.zeros((len(profiles), width))
        for i, p in enumerate(profiles):
            table[i, : len(p)] = p
        return [float(x) for x in table.mean(axis=0)]

    def drop_counts(self) -> dict[str, float]:
        """Messages lost per phase (``flood`` / ``response``) over all queries."""
        totals: dict[str, float] = {}
        for q in self.lifecycles:
            for phase, lost in q.drops:
                totals[phase] = totals.get(phase, 0.0) + lost
        return totals

    @property
    def total_retries(self) -> int:
        return sum(q.retries for q in self.lifecycles)

    @property
    def total_outage_seconds(self) -> float:
        return float(sum(w.length for w in self.outages))

    @property
    def mean_detection_lag(self) -> float:
        """Mean crash -> confirmed-detection delay over the trace."""
        if not self.detection_lags:
            return 0.0
        return float(np.mean(self.detection_lags))

    def to_dict(self) -> dict:
        """A stable, JSON-ready summary (no per-query detail)."""
        return {
            "span": [self.span[0], self.span[1]],
            "queries": self.num_queries,
            "orphans": len(self.orphans),
            "completion_rate": self.completion_rate,
            "degraded_queries": sum(1 for q in self.lifecycles if q.degraded),
            "retries": self.total_retries,
            "drops": self.drop_counts(),
            "waited": self.waited_percentiles(),
            "results": self.results_percentiles(),
            "mean_fanout_by_hop": self.mean_fanout_by_hop(),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "failovers": self.failovers,
            "outages": len(self.outages),
            "total_outage_seconds": self.total_outage_seconds,
            "detections": self.detections,
            "false_suspicions": self.false_suspicions,
            "mean_detection_lag": self.mean_detection_lag,
            "promotions": self.promotions,
            "rehomed_clients": self.rehomed_clients,
            "links_healed": self.links_healed,
            "links_restored": self.links_restored,
        }


def _coerce_events(source) -> list[TraceEvent]:
    if isinstance(source, Tracer):
        return source.events()
    if isinstance(source, (str, Path)):
        return read_jsonl(source)
    return list(source)


def build_timeline(source) -> TimelineReport:
    """Reconstruct query lifecycles and outage windows from trace events.

    ``source`` is a :class:`Tracer`, an iterable of events, or a JSONL
    path.  Events emitted synchronously for one query carry the same
    ``(t, source)`` stamp; drop/retry/flood-truncated events are folded
    into the ``query`` event that closes the group.  Crash events with
    no survivors open an outage; ``outage-end`` events (which carry the
    measured length) close them.
    """
    events = sorted(_coerce_events(source), key=lambda e: e.t)

    lifecycles: list[QueryLifecycle] = []
    orphans: list[tuple[float, int]] = []
    outages: list[OutageWindow] = []
    repairs: list[tuple[float, str, int]] = []
    detection_lags: list[float] = []
    crashes = recoveries = failovers = 0
    detections = false_suspicions = promotions = rehomed = 0
    links_healed = links_restored = 0
    # Pending per-(t, source) fragments awaiting their "query" event.
    pending: dict[tuple[float, int], dict] = {}

    for ev in events:
        f = ev.fields
        if ev.kind == "query":
            q = QueryLifecycle(
                t=ev.t,
                source=int(f.get("source", -1)),
                reach=float(f.get("reach", 0.0)),
                results=float(f.get("results", 0.0)),
                client=bool(f.get("client", False)),
                degraded=bool(f.get("degraded", False)),
                attempts=int(f.get("attempts", 1)),
                waited=float(f.get("waited", 0.0)),
                fanout=list(f.get("fanout", [])),
            )
            frag = pending.pop((ev.t, q.source), None)
            if frag:
                q.drops = frag.get("drops", [])
                q.retries = frag.get("retries", 0)
                q.truncated = frag.get("truncated", False)
            lifecycles.append(q)
        elif ev.kind in ("drop", "retry", "flood-truncated"):
            frag = pending.setdefault((ev.t, int(f.get("source", -1))), {})
            if ev.kind == "drop":
                frag.setdefault("drops", []).append(
                    (str(f.get("phase", "?")), float(f.get("lost", 0.0)))
                )
            elif ev.kind == "retry":
                frag["retries"] = frag.get("retries", 0) + 1
            else:
                frag["truncated"] = True
        elif ev.kind == "orphan":
            orphans.append((ev.t, int(f.get("source", -1))))
        elif ev.kind == "crash":
            crashes += 1
            if int(f.get("live", 0)) > 0:
                failovers += 1
        elif ev.kind == "recover":
            recoveries += 1
        elif ev.kind == "outage-end":
            length = float(f.get("length", 0.0))
            outages.append(
                OutageWindow(
                    cluster=int(f.get("cluster", -1)),
                    start=ev.t - length,
                    end=ev.t,
                )
            )
        elif ev.kind == "detect":
            detections += 1
            detection_lags.append(float(f.get("lag", 0.0)))
            repairs.append((ev.t, "detect", int(f.get("cluster", -1))))
        elif ev.kind == "false-suspicion":
            false_suspicions += 1
            repairs.append((ev.t, "false-suspicion", int(f.get("cluster", -1))))
        elif ev.kind == "promote":
            promotions += 1
            repairs.append((ev.t, "promote", int(f.get("cluster", -1))))
        elif ev.kind == "rehome":
            rehomed += int(f.get("moved", 0))
            repairs.append((ev.t, "rehome", int(f.get("cluster", -1))))
        elif ev.kind == "heal":
            links_healed += len(f.get("links", []))
            repairs.append((ev.t, "heal", int(f.get("window", -1))))
        elif ev.kind == "heal-restore":
            links_restored += int(f.get("links", 0))
            repairs.append((ev.t, "heal-restore", int(f.get("window", -1))))

    span = (events[0].t, events[-1].t) if events else (0.0, 0.0)
    return TimelineReport(
        lifecycles=lifecycles,
        orphans=orphans,
        outages=outages,
        crashes=crashes,
        recoveries=recoveries,
        failovers=failovers,
        span=span,
        repairs=repairs,
        detections=detections,
        false_suspicions=false_suspicions,
        promotions=promotions,
        rehomed_clients=rehomed,
        links_healed=links_healed,
        links_restored=links_restored,
        detection_lags=detection_lags,
    )
