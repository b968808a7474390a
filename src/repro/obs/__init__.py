"""Observability: metrics, tracing and run manifests (repo machinery).

This subsystem is *not* part of the paper's cost model — it measures the
reproduction itself (wall-clock per phase, message counters, memory) so
performance work has a baseline.  It is zero-dependency, thread-safe and
pay-for-what-you-use: the default registry/tracer are inert null objects
and instrumented code must be bit-identical with metrics on or off
(``tests/test_obs.py`` enforces neutrality).
"""

from .attribution import (
    ACTIONS,
    AttributionError,
    LoadAttribution,
    RESOURCES,
    profile_instance,
)
from .export import (
    escape_label_value,
    export_bundle,
    metric_name,
    prometheus_exposition,
    write_json,
)
from .journal import (
    JOURNAL_SCHEMA,
    RunJournal,
    read_journal,
    replay_journal,
)
from .manifest import (
    RunManifest,
    config_fingerprint,
    git_revision,
    manifest_for,
    peak_rss_bytes,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Timer,
    disable_metrics,
    enable_metrics,
    get_registry,
    set_registry,
    use_registry,
)
from .progress import (
    Campaign,
    CampaignState,
    ProgressTracker,
    STRAGGLER_FACTOR,
    heartbeat,
    start_campaign,
)
from .timeline import (
    OutageWindow,
    QueryLifecycle,
    TimelineReport,
    build_timeline,
)
from .trace import NULL_TRACER, NullTracer, TraceEvent, Tracer, read_jsonl

__all__ = [
    "ACTIONS",
    "AttributionError",
    "Campaign",
    "CampaignState",
    "Counter",
    "Gauge",
    "Histogram",
    "JOURNAL_SCHEMA",
    "LoadAttribution",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "OutageWindow",
    "ProgressTracker",
    "QueryLifecycle",
    "RESOURCES",
    "RunJournal",
    "RunManifest",
    "STRAGGLER_FACTOR",
    "TimelineReport",
    "Timer",
    "TraceEvent",
    "Tracer",
    "build_timeline",
    "config_fingerprint",
    "disable_metrics",
    "enable_metrics",
    "escape_label_value",
    "export_bundle",
    "get_registry",
    "git_revision",
    "heartbeat",
    "manifest_for",
    "metric_name",
    "peak_rss_bytes",
    "profile_instance",
    "prometheus_exposition",
    "read_journal",
    "read_jsonl",
    "replay_journal",
    "set_registry",
    "start_campaign",
    "use_registry",
    "write_json",
]
