"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``   evaluate a configuration's expected loads
``sweep``     sweep configuration parameters (optionally in parallel
              via ``--jobs``) and tabulate the loads
``design``    run the Figure 10 global design procedure
``design-risk``  risk-aware design: score candidates against weighted
              failure scenarios and pick the cheapest meeting an
              availability target (expected value and CVaR-at-α)
``capacity``  largest cluster size fitting a per-super-peer budget
``simulate``  run the event-driven simulator on a configuration
``resilience``  simulate under a fault plan and measure degradation
              (``--recover`` arms the self-healing layer)
``chaos``     run seeded random fault plans against the invariant suite
``crawl``     synthesize a Gnutella-style crawl and summarize it
``profile``   attribute every unit of load to (node, action, hop) hotspots
``watch``     render live or post-hoc campaign state from a run journal

Defaults live in the spec classes and in the keyword parameters of the
library functions a command calls, not here.  Each command's flags are a
:class:`_Flags` table mapping each flag to a dotted field of its spec
class; the field gives the flag's type and shown default, and
``choices=`` is the constant the spec validates against.  One override
path: the flags the user set (unset ones are ``None``) are written over an
optional file payload that :func:`repro.codec.decode` turns into the spec;
a spec that fails validation is one ``repro: error:`` line naming the
field, exit 2.  Explicit command-line rules: ``--strong`` makes TTL default
to 1; ``--recovery 0``, ``--slow-fraction 0`` and ``--max-retries 0``
switch their fault sub-spec off; ``--recover`` arms the recovery policy;
``--seed`` feeds each spec's seed.

Campaign commands (``sweep``, ``chaos``, ``resilience``,
``design-risk``) share one execution surface:

* ``--executor {serial,thread,process}`` picks the dispatch backend
  (:mod:`repro.exec`); every backend is bit-identical, so the choice is
  purely about where the work runs.
* ``--jobs N`` (N >= 1) sets the worker-lane count.  ``--jobs`` without
  ``--executor`` implies ``--executor process`` (the historical
  behaviour).
* ``--journal PATH`` streams an append-only JSONL run journal and
  ``--progress`` adds a live progress line plus end-of-run campaign
  summary (workers, stragglers, runtime distribution) on stderr.

Every command accepts ``--seed`` for reproducibility and prints the same
tables the library's reporting helpers produce.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
import types
import typing
from typing import Any, NamedTuple

from .codec import decode
from .config import STRONG_BEST_CASE, Configuration, GraphType
from .core.capacity import LoadBudget, max_supported_cluster_size
from .core.design import DesignConstraints
from .exec import EXECUTOR_NAMES
from .obs.trace import Tracer
from .reporting import (
    render_attribution,
    render_campaign,
    render_load_row,
    render_metrics,
    render_resilience_report,
    render_table,
    render_timeline,
)
from .risk.evaluate import TARGET_METRICS, RiskSpec
from .sim.chaos import ChaosSpec
from .sim.monitor import DETECTOR_MODES
from .sim.network import ENGINES, simulate_instance
from .sim.resilience import ResilienceSpec
from .topology.crawl import synthesize_crawl
from .units import format_bps, format_hz


class UsageError(Exception):
    """Bad command-line input: :func:`main` prints it as one
    ``repro: error:`` line and exits 2, like an argparse usage error."""


def _bare(kind):
    """A type hint without its ``| None``."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        return next(a for a in typing.get_args(kind) if a is not type(None))
    return kind


def _field(target, dotted: str) -> tuple[Any, type]:
    """Default (``None`` if it has none) and type of ``target``'s dotted
    field: a spec dataclass's field or a function's keyword parameter.
    Each leading part names a field whose (optional) dataclass type holds
    the next."""
    *outer, name = dotted.split(".")
    for part in outer:
        target = _bare(typing.get_type_hints(target)[part])
    if dataclasses.is_dataclass(target):
        default = {f.name: f.default for f in dataclasses.fields(target)}[name]
    else:
        default = inspect.signature(target).parameters[name].default
    if default in (dataclasses.MISSING, inspect.Parameter.empty):
        default = None
    return default, _bare(typing.get_type_hints(target)[name])


def _reader(kind: type):
    """The function that reads a command-line string as type ``kind``."""
    if kind is bool:
        return lambda raw: raw.lower() in ("1", "true", "yes")
    return kind


class _Flags(NamedTuple):
    """A command's flags over ``target``: a spec dataclass, or a function
    whose keyword parameters serve as its fields.  Each row is ``(flag,
    dotted field, help[, add_argument keywords])``: ``choices=``, or
    ``const=`` for a switch that stores that value when given."""

    target: Any
    rows: tuple

    def add_to(self, parser, required: tuple[str, ...] = ()) -> None:
        """Add every row's flag, typed and documented from its field."""
        for flag, field, help, *extra in self.rows:
            default, kind = _field(self.target, field)
            kwargs = dict(*extra, required=flag in required)
            if "const" in kwargs:
                kwargs["action"] = "store_const"
            else:
                kwargs["type"] = _reader(kind)
                if default is not None:
                    help += f" (default: {default})".replace("%", "%%")
            parser.add_argument(flag, default=None, help=help, **kwargs)

    def payload(self, args: argparse.Namespace, payload: dict | None = None) -> dict:
        """``payload`` (default ``{}``) with every flag the user set
        written into its dotted field.  A section that ``payload`` holds
        as ``None`` is switched off and ignores its flags."""
        payload = {} if payload is None else payload
        for flag, field, *_ in self.rows:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is None:
                continue
            *outer, name = field.split(".")
            node = payload
            for part in outer:
                node = node.setdefault(part, {})
                if node is None:
                    break
            else:
                node[name] = value
        return payload

    def spec(self, args, what: str, payload: dict | None = None,
             path: str | None = None, **overrides):
        """The target spec decoded from :meth:`payload`; ``overrides``
        win over it."""
        return _decode(self.target, self.payload(args, payload), what, path,
                       **overrides)


def _decode(cls, payload: dict, what: str, path: str | None = None, **overrides):
    """``cls`` decoded from ``payload``; a validator's error is the usage
    error ``invalid <what>: <message>``."""
    try:
        return decode(cls, payload, path=path, overrides=overrides)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid {what}: {exc}") from None


_CONFIG = _Flags(Configuration, (
    ("--graph-size", "graph_size", "number of peers"),
    ("--cluster-size", "cluster_size", "peers per cluster, super-peer included"),
    ("--outdegree", "avg_outdegree", "suggested average super-peer outdegree"),
    ("--ttl", "ttl", "query TTL; a --strong overlay defaults to 1"),
    ("--strong", "graph_type", "strongly connected overlay instead of "
     "power-law", {"const": GraphType.STRONG}),
    ("--redundancy", "redundancy", "2-redundant virtual super-peers",
     {"const": True}),
    ("--query-rate", "query_rate", "queries per user per second"),
))

_BUDGET = _Flags(LoadBudget, (
    ("--max-in", "max_incoming_bps", "per-super-peer incoming bps limit"),
    ("--max-out", "max_outgoing_bps", "per-super-peer outgoing bps limit"),
    ("--max-proc", "max_processing_hz", "per-super-peer processing Hz limit"),
))

_CONSTRAINTS = _Flags(DesignConstraints, (
    ("--users", "num_users", "number of users"),
    ("--reach", "desired_reach_peers", "desired reach in peers"),
    *_BUDGET.rows,
    ("--max-connections", "max_connections", "connection budget per node"),
    ("--no-redundancy", "allow_redundancy", "never use redundant super-peers",
     {"const": False}),
))

_RISK = _Flags(RiskSpec, (
    ("--cutoff", "cutoff", "residual scenario probability mass allowed to "
     "stay un-enumerated; covered mass is guaranteed >= 1 - cutoff"),
    ("--alpha", "alpha", "CVaR tail level: the tail is the worst 1 - alpha "
     "of scenario mass"),
    ("--availability-target", "availability_target",
     "availability the chosen design must reach"),
    ("--target-metric", "target_metric", "which availability reading must "
     "meet the target: scenario-weighted mean or the conservative CVaR "
     "tail", {"choices": TARGET_METRICS}),
    ("--mean-recovery", "mean_recovery", "mean partner-recovery time in "
     "seconds feeding the crash-unit weights"),
    ("--duration", "duration", "virtual seconds per scenario cell"),
    ("--partition-units", "partition_units", "number of disjoint partition "
     "islands to add as failure units"),
    ("--partition-probability", "partition_probability",
     "cut probability of each partition unit"),
    ("--max-candidates", "max_candidates", "feasible candidates to assess"),
    ("--max-scenarios", "max_scenarios", "enumeration budget per candidate"),
    ("--engine", "engine", "simulation backend for the scenario cells",
     {"choices": ENGINES}),
))

_CONNECTIONS = _Flags(max_supported_cluster_size, (
    ("--max-connections", "max_connections",
     "connection budget per node (no limit unless given)"),
))

_SIMULATE = _Flags(simulate_instance, (
    ("--duration", "duration", "virtual seconds to simulate"),
    ("--engine", "engine", "simulation backend: 'event' (message-level "
     "oracle) or 'array' (vectorized fastcore)", {"choices": ENGINES}),
))

_RESILIENCE = _Flags(ResilienceSpec, (
    ("--duration", "duration", "virtual seconds to simulate"),
    ("--replicates", "replicates", "independent replicates of the degraded "
     "run (replicate 0 reuses --seed exactly; r>0 derive fresh seeds; "
     "incompatible with --trace-out)"),
    ("--loss", "plan.message_loss", "per-hop message-loss probability"),
    ("--recovery", "plan.crash.mean_recovery", "mean partner-recovery time "
     "in seconds; 0 disables the crash model"),
    ("--slow-fraction", "plan.slow.fraction", "fraction of clusters with "
     "inflated latency (none unless given)"),
    ("--slow-factor", "plan.slow.factor",
     "latency inflation factor for slow clusters"),
    ("--timeout", "plan.retry.timeout",
     "query timeout before the source retries"),
    ("--max-retries", "plan.retry.max_retries",
     "retry budget per query; 0 disables retries"),
    ("--detector", "recovery.detector.mode", "failure-detection mode: "
     "'oracle' observes crashes directly; 'gossip' learns them from in-band "
     "membership rumors with m-of-n corroboration",
     {"choices": DETECTOR_MODES}),
    ("--heartbeat", "recovery.detector.heartbeat_interval",
     "failure-detector heartbeat interval in seconds (oracle mode)"),
    ("--timeout-beats", "recovery.detector.timeout_beats",
     "missed heartbeats before a partner is declared dead"),
    ("--false-positive-rate", "recovery.detector.false_positive_rate",
     "per-heartbeat probability of falsely suspecting a live partner"),
    ("--promotion-time", "recovery.promotion_time",
     "seconds to promote a client into a dead partner slot"),
    ("--rehome-time", "recovery.rehome_time",
     "seconds to move an orphaned client to a new cluster"),
    ("--no-promote", "recovery.promote", "disable partner promotion",
     {"const": False}),
    ("--no-rehome", "recovery.rehome", "disable client re-homing",
     {"const": False}),
    ("--no-heal", "recovery.heal_partitions", "disable partition healing "
     "links", {"const": False}),
    ("--engine", "engine", "simulation backend for both runs",
     {"choices": ENGINES}),
))

#: ``resilience``'s fault sub-specs and their switch fields: a sub-spec
#: runs while its switch, as set or by class default, is positive.
_FAULT_SWITCHES = (("crash", "mean_recovery"), ("slow", "fraction"),
                   ("retry", "max_retries"))

_CHAOS = _Flags(ChaosSpec, (
    ("--cases", "cases", "number of seeded chaos cases (seeds "
     "--seed..+cases)"),
    ("--duration", "duration", "virtual seconds per case"),
    ("--graph-size", "graph_size", "peers per case instance"),
    ("--cluster-size", "cluster_size", "peers per cluster"),
    ("--no-redundancy", "redundancy", "single super-peers instead of "
     "2-redundant partners", {"const": False}),
    ("--no-recovery", "recovery", "run the plans without a recovery policy "
     "(skips the recovery invariants)", {"const": False}),
    ("--detector", "detector", "failure-detection mode for the generated "
     "recovery policies", {"choices": DETECTOR_MODES}),
    ("--no-replay", "replay", "skip the bit-identical replay check (faster)",
     {"const": False}),
    ("--engine", "engine", "simulation backend for every case",
     {"choices": ENGINES}),
))

_CRAWL = _Flags(synthesize_crawl, (
    ("--graph-size", "num_peers", "peers in the crawl"),
    ("--outdegree", "avg_outdegree", "average peer outdegree"),
))

_WATCH = _Flags(render_campaign, (
    ("--straggler-factor", "straggler_factor",
     "flag points slower than this multiple of the median runtime"),
))

_TRACE = _Flags(Tracer.__init__, (
    ("--trace-capacity", "capacity", "ring-buffer size of the event trace"),
))


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON file of Configuration fields "
                             "(Configuration.to_dict form); explicit flags "
                             "override file values")
    _CONFIG.add_to(parser)


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared campaign surface: executor selection plus telemetry.

    One parent for ``sweep``/``chaos``/``resilience`` so the three
    campaign commands stay flag-compatible: same executor names, same
    jobs rule, same journal/progress switches everywhere.
    """
    group = parser.add_argument_group("campaign execution")
    group.add_argument("--executor", choices=EXECUTOR_NAMES, default=None,
                       help="dispatch backend for the campaign's points "
                            "(default: 'process' when --jobs > 1, else "
                            "'serial'; every backend is bit-identical)")
    group.add_argument("--jobs", type=int, default=None,
                       help="worker lanes (>= 1); --jobs N without "
                            "--executor implies --executor process")
    group.add_argument("--journal", metavar="PATH", default=None,
                       help="append a JSONL run journal (readable while the "
                            "campaign runs via 'repro watch PATH')")
    group.add_argument("--progress", action="store_true",
                       help="live progress line and end-of-run campaign "
                            "summary on stderr")


def _load_config_payload(path: str) -> dict:
    """Read a JSON config/sweep file, exiting with a usage error if bad."""
    import json
    from pathlib import Path

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read config file {path}: {exc}")
    if not isinstance(payload, dict):
        raise SystemExit(f"config file {path} must hold a JSON object")
    return payload


def _config_from_args(args: argparse.Namespace) -> Configuration:
    """Build the base configuration from ``--config`` file + flags: the
    file (or a sweep file's ``base`` section) supplies the base fields,
    the flags the user set override them, and ``Configuration``'s
    defaults (Table 1) fill the rest."""
    payload: dict = {}
    where = "Configuration"
    if getattr(args, "config", None):
        payload = _load_config_payload(args.config)
        if "grid" in payload:  # a full sweep file; its base is the config
            extra = sorted(set(payload) - {"base", "grid"})
            if extra:
                raise UsageError(
                    f"unsupported fields {extra} in sweep file "
                    f"{args.config}; a sweep file holds only 'base' and "
                    f"'grid' (flags set the rest)")
            payload = dict(payload.get("base", {}))
            where = "base"
    # One hop reaches every super-peer of a strong overlay; the paper
    # queries it at TTL 1 (``STRONG_BEST_CASE``, Figs. 4-6).  A --ttl
    # flag still wins.
    graph_type = args.strong or payload.get("graph_type")
    if graph_type in (GraphType.STRONG, GraphType.STRONG.value):
        payload.setdefault("ttl", STRONG_BEST_CASE.ttl)
    return _CONFIG.spec(args, "configuration", payload, path=where)


def _print_summary(summary) -> None:
    sp = summary.superpeer_load()
    cl = summary.client_load()
    agg = summary.aggregate_load()
    print(render_load_row("super-peer (individual)",
                          sp.incoming_bps, sp.outgoing_bps, sp.processing_hz))
    print(render_load_row("client (individual)",
                          cl.incoming_bps, cl.outgoing_bps, cl.processing_hz))
    print(render_load_row("aggregate (all nodes)",
                          agg.incoming_bps, agg.outgoing_bps, agg.processing_hz))
    print(f"results per query: {summary.ci('results_per_query')}   "
          f"reach: {summary.mean('reach_peers'):.0f} peers   "
          f"EPL: {summary.mean('epl'):.2f} hops")


def cmd_analyze(args: argparse.Namespace) -> int:
    from .core.analysis import evaluate_configuration

    config = _config_from_args(args)
    print(f"configuration: {config.describe()}")
    summary = evaluate_configuration(
        config, trials=args.trials, seed=args.seed, max_sources=args.max_sources
    )
    _print_summary(summary)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .api import SweepSpec, run_sweep
    from .obs.metrics import get_registry

    base = _config_from_args(args)
    grid: dict = {}
    if args.config:
        payload = _load_config_payload(args.config)
        if "grid" in payload:
            grid = {
                param: [_parse_value(param, str(v)) for v in values]
                for param, values in payload["grid"].items()
            }
    if args.param is not None:
        if args.values is None:
            raise SystemExit("--param requires --values")
        grid[args.param] = [_parse_value(args.param, v)
                            for v in args.values.split(",")]
    if not grid:
        raise SystemExit(
            "nothing to sweep: pass --param/--values or a --config file "
            'with a "grid" section'
        )
    spec = SweepSpec(
        name="sweep",
        base=base,
        grid=grid,
        trials=args.trials,
        seed=args.seed,
        max_sources=args.max_sources,
    )
    result = run_sweep(spec, jobs=args.jobs,
                       journal=args.journal, progress=args.progress,
                       executor=args.executor)
    # Fold the sweep's merged metrics into the --metrics collector (a
    # no-op sink when metrics are disabled).
    get_registry().absorb(result.registry)

    grid_fields = list(grid)
    rows = []
    for point in result.points:
        summary = point.summary
        sp = summary.superpeer_load()
        agg = summary.aggregate_load()
        rows.append(
            [point.value(f) for f in grid_fields] + [
                format_bps(sp.total_bandwidth_bps),
                format_hz(sp.processing_hz),
                format_bps(agg.total_bandwidth_bps),
                f"{summary.mean('results_per_query'):.0f}",
                f"{summary.mean('epl'):.2f}",
            ]
        )
    jobs_note = f", jobs={result.jobs}" if result.jobs > 1 else ""
    print(render_table(
        grid_fields + ["sp bandwidth", "sp processing",
                       "aggregate bandwidth", "results", "EPL"],
        rows,
        title=f"sweep of {', '.join(grid_fields)} over "
              f"{base.describe()}{jobs_note}",
    ))
    if args.results_out:
        from .obs.export import write_json

        print(f"sweep results -> {write_json(result.to_dict(), args.results_out)}")
    if args.manifest_out:
        result.manifest.to_json(args.manifest_out)
        print(f"sweep manifest -> {args.manifest_out}")
    return 0


def _parse_value(param: str, raw: str):
    """``raw`` read as the type of ``Configuration`` field ``param``."""
    field_types = typing.get_type_hints(Configuration)
    if param not in field_types:
        raise SystemExit(
            f"unsupported sweep parameter {param!r}; one of {sorted(field_types)}"
        )
    try:
        return _reader(field_types[param])(raw)
    except ValueError:
        raise UsageError(f"invalid value {raw!r} for sweep parameter {param}") from None


def cmd_design(args: argparse.Namespace) -> int:
    from .core.design import design_topology

    constraints = _CONSTRAINTS.spec(args, "constraints")
    outcome = design_topology(
        constraints, trials=args.trials, seed=args.seed, max_sources=args.max_sources
    )
    print(outcome.describe())
    print()
    _print_summary(outcome.summary)
    return 0 if outcome.feasible else 1


def cmd_design_risk(args: argparse.Namespace) -> int:
    from .risk import design_topology_risk

    spec_payload: dict = {}
    if args.spec:
        spec_payload = _load_config_payload(args.spec)
        unknown = sorted(set(spec_payload) - {"constraints", "risk"})
        if unknown:
            raise UsageError(
                f"spec file {args.spec}: unknown section(s) {unknown}; "
                'expected "constraints" and/or "risk"'
            )

    constraints_payload = _CONSTRAINTS.payload(
        args, dict(spec_payload.get("constraints", {})))
    if ("num_users" not in constraints_payload
            or "desired_reach_peers" not in constraints_payload):
        raise UsageError(
            "design-risk needs --users and --reach (or a --spec file "
            'with a "constraints" section providing them)'
        )
    constraints = _decode(DesignConstraints, constraints_payload,
                          "constraints", path="constraints")
    # The file's risk seed wins over --seed, as any file value does.
    risk_payload = dict(spec_payload.get("risk", {}))
    risk_payload.setdefault("seed", args.seed)
    risk = _RISK.spec(args, "risk spec", risk_payload, path="risk")

    outcome = design_topology_risk(
        constraints, risk, trials=args.trials, max_sources=args.max_sources,
        jobs=args.jobs, journal=args.journal, progress=args.progress,
        executor=args.executor,
    )
    print(outcome.describe())
    if args.out:
        from .obs.export import write_json

        path = write_json(outcome.to_payload(), args.out)
        print(f"ranked designs -> {path}")
    return 0 if outcome.feasible else 1


def cmd_capacity(args: argparse.Namespace) -> int:
    from .core.capacity import saturating_resource

    base = _config_from_args(args)
    budget = _BUDGET.spec(args, "budget")
    best = max_supported_cluster_size(
        base, budget, trials=args.trials, seed=args.seed,
        max_sources=args.max_sources, **_CONNECTIONS.payload(args),
    )
    if best == 0:
        print("even a plain peer (cluster size 1) exceeds the budget")
        return 1
    print(f"largest supportable cluster size: {best}")
    resource, usage = saturating_resource(
        base.with_changes(cluster_size=best), budget,
        trials=args.trials, seed=args.seed, max_sources=args.max_sources,
    )
    print(f"binding resource at that size: {resource} ({usage:.0%} of budget)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .topology.builder import build_instance

    config = _config_from_args(args)
    instance = build_instance(config, seed=args.seed)
    print(instance.describe())
    report = simulate_instance(instance, rng=args.seed, tracer=args.tracer,
                               **_SIMULATE.payload(args))
    sp_in, sp_out, sp_proc = report.mean_superpeer_load()
    print(f"simulated {report.duration:.0f}s: {report.num_queries} queries, "
          f"{report.num_joins} joins, {report.num_updates} updates")
    print(render_load_row("super-peer (measured)", sp_in, sp_out, sp_proc))
    print(f"results per query: {report.mean_results_per_query:.1f}   "
          f"reach: {report.mean_reach_clusters:.1f} clusters")
    return 0


def cmd_resilience(args: argparse.Namespace) -> int:
    from .sim.resilience import run_resilience_spec
    from .topology.builder import build_instance

    config = _config_from_args(args)
    payload = _RESILIENCE.payload(
        args, {"plan": {}, "recovery": {} if args.recover else None})
    plan = payload["plan"]
    for section, switch in _FAULT_SWITCHES:
        fields = plan.get(section, {})
        default, _ = _field(ResilienceSpec, f"plan.{section}.{switch}")
        value = fields.get(switch, default)
        plan[section] = fields if value is not None and value > 0 else None
    spec = _decode(ResilienceSpec, payload, "resilience spec",
                   config=config, seed=args.seed)
    instance = build_instance(config, seed=args.seed)
    print(instance.describe())
    print(f"fault plan: {spec.plan.describe()}")
    if spec.recovery is not None:
        print(f"recovery: {spec.recovery.describe()}")
    if args.tracer is not None:
        # Tracing is a single-run instrument: the ring buffer belongs to
        # one simulation, so fan-out would interleave streams.
        if spec.replicates != 1:
            raise SystemExit("--trace-out needs a single run; "
                             "drop --replicates to trace")
        from .sim.resilience import run_resilience

        report = run_resilience(
            instance, spec.plan, duration=spec.duration, rng=args.seed,
            recovery=spec.recovery, tracer=args.tracer, engine=spec.engine,
            journal=args.journal, progress=args.progress,
        )
    else:
        result = run_resilience_spec(
            spec, jobs=args.jobs, journal=args.journal,
            progress=args.progress, executor=args.executor,
        )
        report = result.report
        if spec.replicates > 1:
            print(f"replicates: {len(result.reports)} "
                  f"(showing replicate 0, seed {spec.replicate_seed(0)})")
    print(render_resilience_report(
        report, title=f"resilience over {spec.duration:.0f}s"
    ))
    if args.repair_top > 0:
        from .sim.recovery import repair_attribution

        if report.outcome.repair_cluster_units is None:
            print("\nno repair attribution: recovery never ran "
                  "(pass --recover with a non-null fault plan)")
        else:
            attribution = repair_attribution(
                instance, report.outcome, spec.duration
            )
            if report.outcome.gossip_cluster_units is not None:
                from .sim.gossip import gossip_attribution

                attribution = gossip_attribution(
                    instance, report.outcome, spec.duration,
                    attribution=attribution,
                )
            print()
            print(render_attribution(attribution, top=args.repair_top))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .obs.metrics import get_registry
    from .reporting import render_chaos_report
    from .sim.chaos import run_chaos

    spec = _CHAOS.spec(args, "chaos spec", base_seed=args.seed)
    result = run_chaos(spec, jobs=args.jobs,
                       journal=args.journal, progress=args.progress,
                       executor=args.executor)
    get_registry().absorb(result.registry)
    print(render_chaos_report(result))
    if args.report:
        from .obs.export import write_json

        print(f"chaos report -> {write_json(result.to_dict(), args.report)}")
    if args.manifest_out:
        result.manifest.to_json(args.manifest_out)
        print(f"chaos manifest -> {args.manifest_out}")
    return 0 if result.passed else 1


def cmd_profile(args: argparse.Namespace) -> int:
    from .obs.attribution import profile_instance
    from .obs.export import export_bundle, prometheus_exposition, write_json
    from .obs.metrics import get_registry
    from .topology.builder import build_instance

    config = _config_from_args(args)
    instance = build_instance(config, seed=args.seed)
    print(instance.describe())
    report, attribution = profile_instance(
        instance, max_sources=args.max_sources, rng=args.seed
    )
    agg = report.aggregate_load()
    print(render_load_row("aggregate (all nodes)",
                          agg.incoming_bps, agg.outgoing_bps, agg.processing_hz))
    print()
    print(render_attribution(attribution, top=args.top))

    timeline = None
    if args.simulate > 0:
        from .obs.timeline import build_timeline

        if args.tracer is None:
            args.tracer = Tracer(**_TRACE.payload(args))
        simulate_instance(instance, duration=args.simulate, rng=args.seed,
                          tracer=args.tracer)
        timeline = build_timeline(args.tracer)
        print()
        print(render_timeline(
            timeline, title=f"query timeline ({args.simulate:.0f}s simulated)"
        ))

    if args.json or args.prom:
        registry = get_registry()
        bundle = export_bundle(
            registry=registry if registry.enabled else None,
            attribution=attribution,
            timeline=timeline,
            top=args.top,
        )
        if args.json:
            print(f"profile bundle -> {write_json(bundle, args.json)}")
        if args.prom:
            from pathlib import Path

            Path(args.prom).write_text(
                prometheus_exposition(registry), encoding="utf-8"
            )
            note = "" if registry.enabled else " (empty: pass --metrics)"
            print(f"prometheus exposition -> {args.prom}{note}")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    import time

    from .obs.journal import replay_journal
    from .reporting import render_progress_line

    while True:
        try:
            state = replay_journal(args.journal)
        except OSError as exc:
            raise SystemExit(f"cannot read journal {args.journal}: {exc}")
        if args.once or state.finished:
            print(render_campaign(state, **_WATCH.payload(args)))
            return 0
        print(render_progress_line(state), flush=True)
        time.sleep(args.interval)


def cmd_crawl(args: argparse.Namespace) -> int:
    crawl = synthesize_crawl(seed=args.seed, **_CRAWL.payload(args))
    summary = crawl.summary()
    rows = [[key, value] for key, value in summary.items()]
    tau, r2 = crawl.powerlaw_fit()
    rows.append(["power-law exponent (fit)", f"{tau:.2f} (R^2 {r2:.2f})"])
    print(render_table(["statistic", "value"], rows,
                       title="synthetic Gnutella crawl"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Super-peer network analysis (Yang & Garcia-Molina, ICDE 2003)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument("--trials", type=int, default=2,
                        help="instances per configuration")
    parser.add_argument("--max-sources", type=int, default=300,
                        help="source-sampling bound for the load analysis")
    parser.add_argument("--metrics", action="store_true",
                        help="collect and print internal metrics "
                             "(counters, phase timers, histograms)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the simulator's event trace as JSONL "
                             "(simulate / resilience commands)")
    _TRACE.add_to(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="expected loads of one configuration")
    _add_config_arguments(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "sweep",
        help="sweep configuration parameters (repro.api.run_sweep)",
    )
    _add_config_arguments(p)
    _add_campaign_arguments(p)
    p.add_argument("--param", default=None,
                   help="field to sweep (e.g. cluster_size, ttl, avg_outdegree); "
                        'optional when --config declares a "grid"')
    p.add_argument("--values", default=None,
                   help="comma-separated values, e.g. 1,10,100,1000")
    p.add_argument("--results-out", metavar="PATH", default=None,
                   help="write per-point metric intervals as deterministic "
                        "JSON (bit-identical across executors, so two runs "
                        "can be compared with a plain diff)")
    p.add_argument("--manifest-out", metavar="PATH", default=None,
                   help="write the merged sweep RunManifest as JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("design", help="run the Figure 10 design procedure")
    _CONSTRAINTS.add_to(p, required=("--users", "--reach"))
    p.set_defaults(func=cmd_design)

    p = sub.add_parser(
        "design-risk",
        help="risk-aware design: score Figure 10 candidates against "
             "weighted failure scenarios and pick the cheapest meeting "
             "an availability target",
    )
    p.add_argument("--spec", metavar="PATH", default=None,
                   help='JSON file with "constraints" and "risk" '
                        "sections; explicit flags override file values, "
                        "and --users and --reach are required unless it "
                        "sets them")
    _CONSTRAINTS.add_to(p)
    _RISK.add_to(p)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the ranked-designs document as "
                        "deterministic JSON (bit-identical across "
                        "executors, so two runs diff cleanly)")
    _add_campaign_arguments(p)
    p.set_defaults(func=cmd_design_risk)

    p = sub.add_parser("capacity", help="largest cluster size under a budget")
    _add_config_arguments(p)
    _BUDGET.add_to(p)
    _CONNECTIONS.add_to(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("simulate", help="run the message-level simulator")
    _add_config_arguments(p)
    _SIMULATE.add_to(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "resilience",
        help="simulate under a fault plan and measure degraded operation",
    )
    _add_config_arguments(p)
    _add_campaign_arguments(p)
    _RESILIENCE.add_to(p)
    p.add_argument("--recover", action="store_true",
                   help="arm the self-healing layer (failure detection, "
                        "partner promotion, client re-homing, partition "
                        "healing) for the degraded run; the detector and "
                        "recovery flags apply only with it")
    p.add_argument("--repair-top", type=int, default=0,
                   help="also print the top-N repair-cost hotspot clusters")
    p.set_defaults(func=cmd_resilience)

    p = sub.add_parser(
        "chaos",
        help="seeded random fault plans vs the self-healing invariant suite",
    )
    _CHAOS.add_to(p)
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write per-case results as JSON")
    p.add_argument("--manifest-out", metavar="PATH", default=None,
                   help="write the merged chaos RunManifest as JSON")
    _add_campaign_arguments(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "profile",
        help="cost-attribution profile: hotspot super-peers, edges, actions",
    )
    _add_config_arguments(p)
    p.add_argument("--top", type=int, default=10,
                   help="rows per hotspot table")
    p.add_argument("--simulate", type=float, default=0.0,
                   help="also simulate this many virtual seconds with "
                        "tracing and render the query timeline")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the attribution/metrics/timeline bundle as JSON")
    p.add_argument("--prom", metavar="PATH", default=None,
                   help="write the metrics registry in Prometheus text format")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("crawl", help="synthesize a Gnutella-style crawl")
    _CRAWL.add_to(p)
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser(
        "watch",
        help="render campaign state (progress, workers, stragglers) "
             "from a run journal, live or post-hoc",
    )
    p.add_argument("journal", metavar="JOURNAL",
                   help="path to a --journal JSONL file (may still be "
                        "growing; unreadable lines are skipped)")
    p.add_argument("--once", action="store_true",
                   help="render the current state once and exit")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between re-reads while the campaign runs")
    _WATCH.add_to(p)
    p.set_defaults(func=cmd_watch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_sources < 1:
        print(f"{parser.prog}: error: --max-sources must be >= 1, "
              f"got {args.max_sources}", file=sys.stderr)
        return 2
    if args.trials < 1:
        print(f"{parser.prog}: error: --trials must be >= 1, "
              f"got {args.trials}", file=sys.stderr)
        return 2
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        print(f"{parser.prog}: error: --jobs must be >= 1, got {jobs}",
              file=sys.stderr)
        return 2
    duration = getattr(args, "duration", None)
    if duration is not None and not duration > 0:
        print(f"{parser.prog}: error: --duration must be > 0, "
              f"got {duration}", file=sys.stderr)
        return 2

    registry = None
    if args.metrics:
        from .obs.metrics import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        previous = set_registry(registry)
    args.tracer = None
    if args.trace_out is not None:
        from .obs.trace import Tracer

        # Streaming sink: evicted events append to the file as the run
        # goes, so the JSONL holds the *full* stream, not just the tail.
        args.tracer = Tracer(sink=args.trace_out, **_TRACE.payload(args))
    try:
        code = args.func(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        code = 2
    finally:
        if registry is not None:
            set_registry(previous)
    if args.tracer is not None:
        total = args.tracer.flush()
        args.tracer.close()
        print(f"trace: {total} events "
              f"({args.tracer.dropped} dropped) -> {args.trace_out}")
    if registry is not None:
        print()
        print(render_metrics(registry, title="metrics"))
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
