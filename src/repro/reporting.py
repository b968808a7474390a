"""ASCII table and series renderers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints it in a terminal-friendly form: tables as aligned columns, figures
as labelled (x, y) series — the same rows/series the paper plots, so the
shapes can be compared side by side with the original.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .obs.progress import STRAGGLER_FACTOR, CampaignState
from .units import format_bps, format_hz

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .obs.attribution import LoadAttribution
    from .obs.metrics import MetricsRegistry
    from .obs.timeline import TimelineReport
    from .sim.chaos import ChaosReport
    from .sim.resilience import ResilienceReport


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    name: str,
    xs: Sequence[float],
    ys: Sequence[float],
    errors: Sequence[float] | None = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one figure curve as labelled (x, y [, +/- err]) rows."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must align")
    if errors is not None and len(errors) != len(xs):
        raise ValueError("errors must align with xs")
    lines = [f"series: {name}  ({x_label} -> {y_label})"]
    for i, (x, y) in enumerate(zip(xs, ys)):
        err = f"  +/- {_cell(errors[i])}" if errors is not None else ""
        lines.append(f"  {_cell(x):>12}  {_cell(y):>14}{err}")
    return "\n".join(lines)


def render_load_row(label: str, incoming_bps: float, outgoing_bps: float,
                    processing_hz: float) -> str:
    """One Figure 11-style row: label + three formatted load cells."""
    return (
        f"{label:<28} in={format_bps(incoming_bps):>12} "
        f"out={format_bps(outgoing_bps):>12} proc={format_hz(processing_hz):>12}"
    )


def render_resilience_report(report: "ResilienceReport",
                             title: str | None = None) -> str:
    """Render a degraded-mode comparison (``sim.resilience``) as tables.

    One metric table (success rate, losses, failovers, recovery times)
    followed by Figure 11-style load rows contrasting what the serving
    partners carry under faults against the fault-free baseline.
    """
    lines = [render_table(
        ["metric", "value"],
        report.summary_rows(),
        title=title or "degraded-mode resilience report",
    )]
    base = report.baseline.mean_superpeer_load()
    degraded = report.degraded.mean_superpeer_load()
    lines.append("")
    lines.append(render_load_row("super-peer (fault-free)", *base))
    lines.append(render_load_row("super-peer (degraded)", *degraded))
    inflation = report.load_inflation()
    lines.append(
        "load inflation on serving partners: "
        f"in {inflation['incoming']:+.1%}  out {inflation['outgoing']:+.1%}  "
        f"proc {inflation['processing']:+.1%}"
    )
    return "\n".join(lines)


def render_chaos_report(report: "ChaosReport",
                        title: str | None = None) -> str:
    """Render a chaos batch: one row per seeded case, then the verdict.

    Failing cases are expanded below the table with their violated
    invariants so a CI log shows *what* broke, not just the exit code.
    """
    rows = []
    for case in report.cases:
        s = case.summary
        rows.append([
            case.seed,
            "pass" if case.passed else f"FAIL({len(case.violations)})",
            s["crashes"],
            s["outages"],
            s["promotions"],
            s["rehomed_clients"],
            s["links_healed"],
            f"{s['success_rate']:.3f}",
            f"{s['longest_outage']:.1f}",
            case.digest,
        ])
    spec = report.spec
    lines = [render_table(
        ["seed", "verdict", "crashes", "outages", "promote", "rehome",
         "heal", "success", "worst(s)", "digest"],
        rows,
        title=title or (
            f"chaos harness: {spec.cases} cases, "
            f"{spec.graph_size} peers, {spec.duration:g}s, "
            f"recovery {'on' if spec.recovery else 'off'}"
        ),
    )]
    for case in report.failures:
        lines.append("")
        lines.append(f"seed {case.seed} violated:")
        for violation in case.violations:
            lines.append(f"  - {violation}")
        lines.append(f"  plan:   {case.plan}")
        lines.append(f"  policy: {case.policy}")
    lines.append("")
    verdict = "all invariants held" if report.passed else (
        f"{len(report.failures)}/{len(report.cases)} cases violated invariants"
    )
    lines.append(f"chaos verdict: {verdict}")
    return "\n".join(lines)


def _format_duration(seconds: float | None) -> str:
    """Compact wall-clock formatting: 12.3s, 4m07s, 2h13m."""
    if seconds is None:
        return "?"
    seconds = max(float(seconds), 0.0)
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def render_progress_line(state: CampaignState,
                         now: float | None = None) -> str:
    """One-line live campaign status: done/total, rate, ETA, workers."""
    total = "?" if state.total is None else str(state.total)
    parts = [f"{state.campaign}: {state.done}/{total}"]
    if state.errors:
        parts.append(f"{state.errors} err")
    rate = state.throughput(now)
    if rate > 0:
        parts.append(f"{rate:.2f} pt/s")
    eta = state.eta_seconds(now)
    if eta is not None and not state.finished:
        parts.append(f"eta {_format_duration(eta)}")
    running = state.running
    if running:
        labels = [state.points[i]["label"] for i in running[:3]]
        suffix = "..." if len(running) > 3 else ""
        parts.append(f"running [{', '.join(labels)}{suffix}]")
    if state.finished:
        parts.append(f"finished ({state.end_status}, "
                     f"{_format_duration(state.elapsed(now))})")
    return "  ".join(parts)


def render_campaign(
    state: CampaignState,
    straggler_factor: float = STRAGGLER_FACTOR,
    now: float | None = None,
    title: str | None = None,
) -> str:
    """Render full campaign telemetry from a replayed or live state.

    Header (progress, throughput, fingerprints), per-worker status,
    the straggler report with each flagged point's plan detail, and —
    once points have settled — the runtime distribution, slowest
    points, and the error roll-up grouped by exception type.
    """
    sections = [title or render_progress_line(state, now)]
    if title:
        sections.append(render_progress_line(state, now))

    meta = []
    if state.config_hash:
        meta.append(f"config {state.config_hash}")
    if state.git_rev:
        meta.append(f"rev {state.git_rev}")
    if state.seed is not None:
        meta.append(f"seed {state.seed}")
    if state.jobs:
        meta.append(f"jobs {state.jobs}")
    if state.skipped_lines:
        meta.append(f"{state.skipped_lines} unreadable journal line(s) skipped")
    if meta:
        sections.append("  ".join(meta))

    workers = state.worker_rows(now)
    if workers:
        sections.append(render_table(
            ["worker", "done", "current point", "last seen"],
            [
                [
                    row["worker"],
                    row["done"],
                    (row["running_label"] or "-") if row["running"] is not None
                    else "-",
                    ("just now" if row["idle_seconds"] is not None
                     and row["idle_seconds"] < 1.0
                     else f"{_format_duration(row['idle_seconds'])} ago"
                     if row["idle_seconds"] is not None else "?"),
                ]
                for row in workers
            ],
            title="workers",
        ))

    stragglers = state.stragglers(straggler_factor, now)
    if stragglers:
        sections.append(render_table(
            ["point", "state", "runtime", "x median", "config"],
            [
                [
                    f"[{f['index']}] {f['label']}",
                    f["state"],
                    _format_duration(f["seconds"]),
                    f"{f['ratio']:.1f}x",
                    f["detail"] if f["detail"] is not None else "-",
                ]
                for f in stragglers
            ],
            title=(f"stragglers (> {straggler_factor:g}x median "
                   f"{_format_duration(stragglers[0]['median'])})"),
        ))

    slowest = state.slowest()
    if slowest:
        sections.append(render_table(
            ["point", "runtime", "config"],
            [
                [
                    f"[{row['index']}] {row['label']}",
                    _format_duration(row["seconds"]),
                    row["detail"] if row["detail"] is not None else "-",
                ]
                for row in slowest
            ],
            title="slowest points",
        ))

    histogram = state.runtime_histogram()
    if len(histogram) > 1:
        peak = max(count for _, _, count in histogram) or 1
        lines = ["runtime distribution"]
        for lo, hi, count in histogram:
            bar = "#" * round(20 * count / peak)
            lines.append(
                f"  {_format_duration(lo):>8} - {_format_duration(hi):<8}"
                f" {count:>4}  {bar}"
            )
        sections.append("\n".join(lines))

    rollup = state.error_rollup()
    if rollup:
        sections.append(render_table(
            ["error type", "count", "points", "example"],
            [
                [
                    kind,
                    entry["count"],
                    ", ".join(str(i) for i in entry["indices"][:6])
                    + ("..." if len(entry["indices"]) > 6 else ""),
                    (entry["example"] or "")[:60],
                ]
                for kind, entry in sorted(rollup.items())
            ],
            title="errors",
        ))
    return "\n\n".join(sections)


def render_metrics(registry: "MetricsRegistry | dict",
                   title: str = "metrics") -> str:
    """Render a metrics registry (or its ``snapshot()``) as tables.

    One section per instrument family — counters, gauges, timers,
    histograms — omitting empty families so ``--metrics`` output stays
    proportional to what actually ran.
    """
    snapshot = registry if isinstance(registry, dict) else registry.snapshot()
    sections: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        sections.append(render_table(
            ["counter", "value"],
            [[name, value] for name, value in counters.items()],
            title=title,
        ))
    dropped = counters.get("trace.dropped_events", 0)
    if dropped:
        sections.append(
            f"WARNING: trace ring saturated — {_cell(dropped)} event(s) "
            "evicted unrecorded; raise the tracer capacity or attach a "
            "--trace-out sink to keep the full stream"
        )
    gauges = snapshot.get("gauges", {})
    if gauges:
        sections.append(render_table(
            ["gauge", "value"],
            [[name, value] for name, value in gauges.items()],
        ))
    timers = snapshot.get("timers", {})
    if timers:
        sections.append(render_table(
            ["timer", "count", "total (s)", "mean (ms)", "max (ms)"],
            [
                [
                    name,
                    t["count"],
                    f"{t['total_seconds']:.4f}",
                    f"{t['mean_seconds'] * 1e3:.3f}",
                    f"{t['max_seconds'] * 1e3:.3f}",
                ]
                for name, t in timers.items()
            ],
        ))
    histograms = snapshot.get("histograms", {})
    if histograms:
        sections.append(render_table(
            ["histogram", "count", "mean", "p50", "p95", "max"],
            [
                [name, h["count"], h["mean"], h["p50"], h["p95"], h["max"]]
                for name, h in histograms.items()
            ],
        ))
    if not sections:
        return f"{title}: (no metrics recorded)"
    return "\n\n".join(sections)


def render_attribution(attribution: "LoadAttribution", top: int = 10) -> str:
    """Render a cost-attribution profile as hotspot tables.

    Three sections: action classes ranked by aggregate bandwidth, the
    top super-peers by per-partner bandwidth (with overlay out-degree,
    so the Figure 7 "high-outdegree nodes dominate" claim is visible at
    a glance), and — on explicit overlays — the hottest directed edges.
    """
    sections = [render_table(
        ["action", "in", "out", "proc", "share"],
        [
            [
                row["action"],
                format_bps(row["incoming_bps"]),
                format_bps(row["outgoing_bps"]),
                format_hz(row["processing_hz"]),
                f"{row['share']:.1%}",
            ]
            for row in attribution.top_actions()
        ],
        title="load by action class (aggregate)",
    )]

    by_hop = attribution.by_hop()
    if len(by_hop) > 1:
        sections.append(render_table(
            ["hop", "in", "out", "proc"],
            [
                [
                    h,
                    format_bps(loads["incoming_bps"]),
                    format_bps(loads["outgoing_bps"]),
                    format_hz(loads["processing_hz"]),
                ]
                for h, loads in by_hop.items()
            ],
            title="load by hop",
        ))

    sections.append(render_table(
        ["cluster", "outdeg", "in", "out", "proc", "share", "dominant"],
        [
            [
                row["cluster"],
                row["outdegree"],
                format_bps(row["incoming_bps"]),
                format_bps(row["outgoing_bps"]),
                format_hz(row["processing_hz"]),
                f"{row['share']:.1%}",
                row["dominant_action"],
            ]
            for row in attribution.top_superpeers(top)
        ],
        title=f"top {top} super-peers by per-partner bandwidth",
    ))

    edges = attribution.top_edges(top)
    if edges:
        sections.append(render_table(
            ["edge", "total", "flood", "response"],
            [
                [
                    f"{row['edge'][0]} -> {row['edge'][1]}",
                    format_bps(row["bandwidth_bps"]),
                    format_bps(row["flood_bps"]),
                    format_bps(row["response_bps"]),
                ]
                for row in edges
            ],
            title=f"top {len(edges)} overlay edges by attributed bandwidth",
        ))
    return "\n\n".join(sections)


def render_timeline(report: "TimelineReport",
                    title: str = "query timeline") -> str:
    """Render trace analytics: lifecycle stats, fan-out profile, outages."""
    summary = report.to_dict()
    rows = [
        ["queries", summary["queries"]],
        ["orphaned", summary["orphans"]],
        ["completion rate", f"{summary['completion_rate']:.1%}"],
        ["degraded queries", summary["degraded_queries"]],
        ["retries", summary["retries"]],
    ]
    for phase, lost in sorted(summary["drops"].items()):
        rows.append([f"messages lost ({phase})", lost])
    for name, value in summary["waited"].items():
        rows.append([f"waited {name} (s)", value])
    for name, value in summary["results"].items():
        rows.append([f"results {name}", value])
    rows += [
        ["crashes / recoveries", f"{summary['crashes']} / {summary['recoveries']}"],
        ["failovers", summary["failovers"]],
        ["outages", summary["outages"]],
        ["outage seconds", summary["total_outage_seconds"]],
    ]
    if report.repairs:
        rows += [
            ["detections", summary["detections"]],
            ["false suspicions", summary["false_suspicions"]],
            ["mean detection lag (s)", summary["mean_detection_lag"]],
            ["promotions", summary["promotions"]],
            ["clients re-homed", summary["rehomed_clients"]],
            ["links healed / restored",
             f"{summary['links_healed']} / {summary['links_restored']}"],
        ]
    sections = [render_table(["metric", "value"], rows, title=title)]
    fanout = report.mean_fanout_by_hop()
    if fanout:
        sections.append(render_series(
            "mean flood fan-out", list(range(len(fanout))), fanout,
            x_label="hop", y_label="messages",
        ))
    return "\n\n".join(sections)


def _cell(value: object) -> str:
    """Format one table cell: compact scientific notation for floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e5 or magnitude < 1e-3:
        return f"{value:.3e}"
    if magnitude >= 100:
        return f"{value:.1f}"
    return f"{value:.3g}"
