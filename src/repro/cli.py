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
``worker``    drain tasks from a jobfile campaign's shared job directory

Campaign commands (``sweep``, ``chaos``, ``resilience``,
``design-risk``) share one execution surface:

* ``--executor {serial,thread,process,jobfile}`` picks the dispatch
  backend (:mod:`repro.exec`); every backend is bit-identical, so the
  choice is purely about where the work runs.
* ``--jobs N`` sets the worker-lane count.  ``--jobs`` without
  ``--executor`` implies ``--executor process`` (the historical
  behaviour); ``--jobs 0`` is only valid with ``jobfile`` and means
  "external workers only" — start ``repro worker JOBDIR`` processes
  (any number, any host sharing the directory) to drain the campaign.
* ``--jobdir PATH`` names the shared job directory for ``jobfile``.
* ``--journal PATH`` streams an append-only JSONL run journal and
  ``--progress`` adds a live progress line plus end-of-run campaign
  summary (workers, stragglers, runtime distribution) on stderr.

Every command accepts ``--seed`` for reproducibility and prints the same
tables the library's reporting helpers produce.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator

from .config import STRONG_BEST_CASE, Configuration, GraphType
from .reporting import (
    render_attribution,
    render_load_row,
    render_metrics,
    render_resilience_report,
    render_table,
    render_timeline,
)
from .units import format_bps, format_hz


class UsageError(Exception):
    """Bad command-line input: :func:`main` prints it as one
    ``repro: error:`` line and exits 2, like an argparse usage error."""


@contextmanager
def _validated(what: str) -> Iterator[None]:
    """Report a spec validator's ``ValueError``/``TypeError`` from the
    block as the :class:`UsageError` ``invalid <what>: <message>``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid {what}: {exc}") from None


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON file of Configuration fields "
                             "(Configuration.to_dict form); explicit flags "
                             "override file values")
    parser.add_argument("--graph-size", type=int, default=None,
                        help="number of peers (Table 1 default: 10000)")
    parser.add_argument("--cluster-size", type=int, default=None,
                        help="peers per cluster, super-peer included "
                             "(default: 10)")
    parser.add_argument("--outdegree", type=float, default=None,
                        help="suggested average super-peer outdegree "
                             "(default: 3.1)")
    parser.add_argument("--ttl", type=int, default=None,
                        help="query TTL (default: 7, or 1 on a --strong "
                             "overlay)")
    parser.add_argument("--strong", action="store_true",
                        help="strongly connected overlay instead of power-law")
    parser.add_argument("--redundancy", action="store_true",
                        help="2-redundant virtual super-peers")
    parser.add_argument("--query-rate", type=float, default=None,
                        help="queries per user per second (default 9.26e-3)")


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared campaign surface: executor selection plus telemetry.

    One parent for ``sweep``/``chaos``/``resilience`` so the three
    campaign commands stay flag-compatible: same executor names, same
    jobs rule, same journal/progress switches everywhere.
    """
    group = parser.add_argument_group("campaign execution")
    group.add_argument("--executor",
                       choices=("serial", "thread", "process", "jobfile"),
                       default=None,
                       help="dispatch backend for the campaign's points "
                            "(default: 'process' when --jobs > 1, else "
                            "'serial'; every backend is bit-identical)")
    group.add_argument("--jobs", type=int, default=None,
                       help="worker lanes; --jobs N without --executor "
                            "implies --executor process; --jobs 0 is "
                            "jobfile-only (external 'repro worker' "
                            "processes drain the campaign)")
    group.add_argument("--jobdir", metavar="PATH", default=None,
                       help="shared job directory for --executor jobfile "
                            "(default: a private temp dir; point N hosts "
                            "or 'repro worker' processes at the same path "
                            "to drain one campaign cooperatively)")
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
    """Build the base configuration from ``--config`` file + flags.

    A thin wrapper over :meth:`Configuration.from_dict`: the file (if
    given) supplies the base fields and explicitly passed flags override
    them.  ``--strong``/``--redundancy`` are store-true flags, so they
    only override when asserted.
    """
    payload: dict = {}
    if getattr(args, "config", None):
        payload = _load_config_payload(args.config)
        if "grid" in payload:  # a full sweep file; its base is the config
            payload = dict(payload.get("base", {}))
    flag_fields = {
        "graph_size": args.graph_size,
        "cluster_size": args.cluster_size,
        "avg_outdegree": args.outdegree,
        "ttl": args.ttl,
        "query_rate": args.query_rate,
    }
    for field_name, value in flag_fields.items():
        if value is not None:
            payload[field_name] = value
    if args.strong:
        payload["graph_type"] = GraphType.STRONG
    if args.redundancy:
        payload["redundancy"] = True
    # Table 1 defaults for whatever neither the file nor a flag set.
    payload.setdefault("graph_type", GraphType.POWER_LAW)
    payload.setdefault("graph_size", 10_000)
    payload.setdefault("cluster_size", 10)
    payload.setdefault("avg_outdegree", 3.1)
    # One hop reaches every super-peer of a strong overlay; the paper
    # queries it at TTL 1 (``STRONG_BEST_CASE``, Figs. 4-6).
    strong = payload["graph_type"] in (GraphType.STRONG, GraphType.STRONG.value)
    payload.setdefault("ttl", STRONG_BEST_CASE.ttl if strong else 7)
    with _validated("configuration"):
        return Configuration.from_dict(payload)


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
                       executor=args.executor, jobdir=args.jobdir)
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

        print(f"sweep results -> "
              f"{write_json(_sweep_results_payload(result), args.results_out)}")
    if args.manifest_out:
        result.manifest.to_json(args.manifest_out)
        print(f"sweep manifest -> {args.manifest_out}")
    return 0


def _sweep_results_payload(result) -> dict:
    """Deterministic JSON view of a sweep: diffable across executors.

    Holds only content that is bit-identical across backends (labels,
    overrides, metric intervals) — no wall-clock, jobs, or host fields —
    so CI can assert two runs merged to the same science with a plain
    file diff.
    """
    points = []
    for point in result.points:
        summary = point.summary
        points.append({
            "label": point.label,
            "overrides": dict(point.overrides),
            "metrics": {
                name: {
                    "mean": interval.mean,
                    "half_width": interval.half_width,
                    "level": interval.level,
                    "num_trials": interval.num_trials,
                }
                for name, interval in sorted(summary.intervals.items())
            },
        })
    return {"name": result.spec.name, "points": points}


def _parse_value(param: str, raw: str):
    field_types = {
        "cluster_size": int, "graph_size": int, "ttl": int,
        "avg_outdegree": float, "query_rate": float, "update_rate": float,
        "redundancy": lambda v: v.lower() in ("1", "true", "yes"),
    }
    if param not in field_types:
        raise SystemExit(
            f"unsupported sweep parameter {param!r}; one of {sorted(field_types)}"
        )
    return field_types[param](raw)


def cmd_design(args: argparse.Namespace) -> int:
    from .core.design import DesignConstraints, design_topology

    with _validated("constraints"):
        constraints = DesignConstraints(
            num_users=args.users,
            desired_reach_peers=args.reach,
            max_incoming_bps=args.max_in,
            max_outgoing_bps=args.max_out,
            max_processing_hz=args.max_proc,
            max_connections=args.max_connections,
            allow_redundancy=not args.no_redundancy,
        )
    outcome = design_topology(
        constraints, trials=args.trials, seed=args.seed, max_sources=args.max_sources
    )
    print(outcome.describe())
    print()
    _print_summary(outcome.summary)
    return 0 if outcome.feasible else 1


def cmd_design_risk(args: argparse.Namespace) -> int:
    from .core.design import DesignConstraints
    from .risk import RiskSpec, design_topology_risk

    spec_payload: dict = {}
    if args.spec:
        spec_payload = _load_config_payload(args.spec)
        unknown = sorted(set(spec_payload) - {"constraints", "risk"})
        if unknown:
            raise UsageError(
                f"spec file {args.spec}: unknown section(s) {unknown}; "
                'expected "constraints" and/or "risk"'
            )

    constraints_payload = dict(spec_payload.get("constraints", {}))
    constraint_flags = {
        "num_users": args.users,
        "desired_reach_peers": args.reach,
        "max_incoming_bps": args.max_in,
        "max_outgoing_bps": args.max_out,
        "max_processing_hz": args.max_proc,
        "max_connections": args.max_connections,
    }
    for field_name, value in constraint_flags.items():
        if value is not None:
            constraints_payload[field_name] = value
    if args.no_redundancy:
        constraints_payload["allow_redundancy"] = False
    constraints_payload.setdefault("max_incoming_bps", 100_000.0)
    constraints_payload.setdefault("max_outgoing_bps", 100_000.0)
    constraints_payload.setdefault("max_processing_hz", 10_000_000.0)
    constraints_payload.setdefault("max_connections", 100)
    if ("num_users" not in constraints_payload
            or "desired_reach_peers" not in constraints_payload):
        raise UsageError(
            "design-risk needs --users and --reach (or a --spec file "
            'with a "constraints" section providing them)'
        )
    with _validated("constraints"):
        constraints = DesignConstraints(**constraints_payload)

    risk_payload = dict(spec_payload.get("risk", {}))
    risk_flags = {
        "cutoff": args.cutoff,
        "alpha": args.alpha,
        "availability_target": args.availability_target,
        "target_metric": args.target_metric,
        "mean_recovery": args.mean_recovery,
        "duration": args.duration,
        "partition_units": args.partition_units,
        "partition_probability": args.partition_probability,
        "max_candidates": args.max_candidates,
        "max_scenarios": args.max_scenarios,
        "engine": args.engine,
    }
    for field_name, value in risk_flags.items():
        if value is not None:
            risk_payload[field_name] = value
    risk_payload.setdefault("seed", args.seed)
    with _validated("risk spec"):
        risk = RiskSpec.from_dict(risk_payload)

    outcome = design_topology_risk(
        constraints, risk, trials=args.trials, max_sources=args.max_sources,
        jobs=args.jobs, journal=args.journal, progress=args.progress,
        executor=args.executor, jobdir=args.jobdir,
    )
    print(outcome.describe())
    if args.out:
        from .obs.export import write_json

        path = write_json(outcome.to_payload(), args.out)
        print(f"ranked designs -> {path}")
    return 0 if outcome.feasible else 1


def cmd_capacity(args: argparse.Namespace) -> int:
    from .core.capacity import LoadBudget, max_supported_cluster_size, saturating_resource

    base = _config_from_args(args)
    budget = LoadBudget(args.max_in, args.max_out, args.max_proc)
    best = max_supported_cluster_size(
        base, budget, trials=args.trials, seed=args.seed,
        max_sources=args.max_sources, max_connections=args.max_connections,
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
    from .sim.network import simulate_instance
    from .topology.builder import build_instance

    config = _config_from_args(args)
    instance = build_instance(config, seed=args.seed)
    print(instance.describe())
    report = simulate_instance(instance, duration=args.duration, rng=args.seed,
                               tracer=args.tracer, engine=args.engine)
    sp_in, sp_out, sp_proc = report.mean_superpeer_load()
    print(f"simulated {args.duration:.0f}s: {report.num_queries} queries, "
          f"{report.num_joins} joins, {report.num_updates} updates")
    print(render_load_row("super-peer (measured)", sp_in, sp_out, sp_proc))
    print(f"results per query: {report.mean_results_per_query:.1f}   "
          f"reach: {report.mean_reach_clusters:.1f} clusters")
    return 0


def cmd_resilience(args: argparse.Namespace) -> int:
    from .sim.faults import CrashSpec, FaultPlan, RetryPolicy, SlowSpec
    from .sim.resilience import ResilienceSpec, run_resilience_spec
    from .topology.builder import build_instance

    config = _config_from_args(args)
    with _validated("fault or recovery flags"):
        plan = FaultPlan(
            message_loss=args.loss,
            crash=CrashSpec(mean_recovery=args.recovery) if args.recovery > 0 else None,
            slow=(
                SlowSpec(fraction=args.slow_fraction, factor=args.slow_factor)
                if args.slow_fraction > 0 else None
            ),
            retry=(
                RetryPolicy(timeout=args.timeout, max_retries=args.max_retries)
                if args.max_retries > 0 else None
            ),
        )
        policy = None
        if args.recover:
            from .sim.monitor import DetectorSpec
            from .sim.recovery import RecoveryPolicy

            policy = RecoveryPolicy(
                detector=DetectorSpec(
                    heartbeat_interval=args.heartbeat,
                    timeout_beats=args.timeout_beats,
                    false_positive_rate=args.false_positive_rate,
                    mode=args.detector,
                ),
                promote=not args.no_promote,
                rehome=not args.no_rehome,
                heal_partitions=not args.no_heal,
                promotion_time=args.promotion_time,
                rehome_time=args.rehome_time,
            )
    instance = build_instance(config, seed=args.seed)
    print(instance.describe())
    print(f"fault plan: {plan.describe()}")
    if policy is not None:
        print(f"recovery: {policy.describe()}")
    if args.tracer is not None:
        # Tracing is a single-run instrument: the ring buffer belongs to
        # one simulation, so fan-out would interleave streams.
        if args.replicates != 1:
            raise SystemExit("--trace-out needs a single run; "
                             "drop --replicates to trace")
        from .sim.resilience import run_resilience

        report = run_resilience(
            instance, plan, duration=args.duration, rng=args.seed,
            recovery=policy, tracer=args.tracer, engine=args.engine,
            journal=args.journal, progress=args.progress,
        )
    else:
        spec = ResilienceSpec(
            config=config,
            plan=plan,
            duration=args.duration,
            seed=args.seed,
            replicates=args.replicates,
            recovery=policy,
            engine=args.engine,
        )
        result = run_resilience_spec(
            spec, jobs=args.jobs, journal=args.journal,
            progress=args.progress, executor=args.executor,
            jobdir=args.jobdir,
        )
        report = result.report
        if args.replicates > 1:
            print(f"replicates: {len(result.reports)} "
                  f"(showing replicate 0, seed {spec.replicate_seed(0)})")
    print(render_resilience_report(
        report, title=f"resilience over {args.duration:.0f}s"
    ))
    if args.repair_top > 0:
        from .sim.recovery import repair_attribution

        if report.outcome.repair_cluster_units is None:
            print("\nno repair attribution: recovery never ran "
                  "(pass --recover with a non-null fault plan)")
        else:
            attribution = repair_attribution(
                instance, report.outcome, args.duration
            )
            if report.outcome.gossip_cluster_units is not None:
                from .sim.gossip import gossip_attribution

                attribution = gossip_attribution(
                    instance, report.outcome, args.duration,
                    attribution=attribution,
                )
            print()
            print(render_attribution(attribution, top=args.repair_top))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .obs.metrics import get_registry
    from .reporting import render_chaos_report
    from .sim.chaos import ChaosSpec, run_chaos

    with _validated("chaos spec"):
        spec = ChaosSpec(
            cases=args.cases,
            base_seed=args.seed,
            graph_size=args.graph_size,
            cluster_size=args.cluster_size,
            redundancy=not args.no_redundancy,
            duration=args.duration,
            recovery=not args.no_recovery,
            replay=not args.no_replay,
            detector=args.detector,
            engine=args.engine,
        )
    result = run_chaos(spec, jobs=args.jobs,
                       journal=args.journal, progress=args.progress,
                       executor=args.executor, jobdir=args.jobdir)
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
        from .obs.trace import Tracer
        from .sim.network import simulate_instance

        if args.tracer is None:
            args.tracer = Tracer(capacity=args.trace_capacity)
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
    from .reporting import render_campaign, render_progress_line

    while True:
        try:
            state = replay_journal(args.journal)
        except OSError as exc:
            raise SystemExit(f"cannot read journal {args.journal}: {exc}")
        if args.once or state.finished:
            print(render_campaign(
                state, straggler_factor=args.straggler_factor
            ))
            return 0
        print(render_progress_line(state), flush=True)
        time.sleep(args.interval)


def cmd_worker(args: argparse.Namespace) -> int:
    from .exec.base import TaskError
    from .exec.jobfile import run_worker

    try:
        done = run_worker(args.jobdir, startup_timeout=args.startup_timeout,
                          max_tasks=args.max_tasks, max_idle=args.max_idle)
    except TaskError as exc:
        raise SystemExit(str(exc))
    print(f"worker drained {done} task(s) from {args.jobdir}",
          file=sys.stderr)
    return 0


def cmd_crawl(args: argparse.Namespace) -> int:
    from .topology.crawl import synthesize_crawl

    crawl = synthesize_crawl(
        num_peers=args.graph_size, avg_outdegree=args.outdegree, seed=args.seed
    )
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
    parser.add_argument("--trace-capacity", type=int, default=65_536,
                        help="ring-buffer size of the event trace")
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
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--reach", type=int, required=True,
                   help="desired reach in peers")
    p.add_argument("--max-in", type=float, default=100_000.0,
                   help="per-super-peer incoming bps limit")
    p.add_argument("--max-out", type=float, default=100_000.0)
    p.add_argument("--max-proc", type=float, default=10_000_000.0)
    p.add_argument("--max-connections", type=int, default=100)
    p.add_argument("--no-redundancy", action="store_true")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser(
        "design-risk",
        help="risk-aware design: score Figure 10 candidates against "
             "weighted failure scenarios and pick the cheapest meeting "
             "an availability target",
    )
    p.add_argument("--spec", metavar="PATH", default=None,
                   help='JSON file with "constraints" and "risk" '
                        "sections; explicit flags override file values")
    p.add_argument("--users", type=int, default=None,
                   help="number of users (required unless --spec sets it)")
    p.add_argument("--reach", type=int, default=None,
                   help="desired reach in peers (required unless --spec "
                        "sets it)")
    p.add_argument("--max-in", type=float, default=None,
                   help="per-super-peer incoming bps limit "
                        "(default 100000)")
    p.add_argument("--max-out", type=float, default=None,
                   help="per-super-peer outgoing bps limit "
                        "(default 100000)")
    p.add_argument("--max-proc", type=float, default=None,
                   help="per-super-peer processing Hz limit "
                        "(default 10000000)")
    p.add_argument("--max-connections", type=int, default=None,
                   help="connection budget per node (default 100)")
    p.add_argument("--no-redundancy", action="store_true")
    p.add_argument("--cutoff", type=float, default=None,
                   help="residual scenario probability mass allowed to "
                        "stay un-enumerated (default 0.05; covered mass "
                        "is guaranteed >= 1 - cutoff)")
    p.add_argument("--alpha", type=float, default=None,
                   help="CVaR tail level (default 0.9 = worst 10%% of "
                        "scenario mass)")
    p.add_argument("--availability-target", type=float, default=None,
                   help="availability the chosen design must reach "
                        "(default 0.98)")
    p.add_argument("--target-metric", choices=("expected", "cvar"),
                   default=None,
                   help="which availability reading must meet the "
                        "target: scenario-weighted mean or the "
                        "conservative CVaR tail (default expected)")
    p.add_argument("--mean-recovery", type=float, default=None,
                   help="mean partner-recovery time in seconds feeding "
                        "the crash-unit weights (default 120)")
    p.add_argument("--duration", type=float, default=None,
                   help="virtual seconds per scenario cell (default 600)")
    p.add_argument("--partition-units", type=int, default=None,
                   help="number of disjoint partition islands to add as "
                        "failure units (default 0)")
    p.add_argument("--partition-probability", type=float, default=None,
                   help="cut probability of each partition unit "
                        "(default 0.01)")
    p.add_argument("--max-candidates", type=int, default=None,
                   help="feasible candidates to assess (default 6)")
    p.add_argument("--max-scenarios", type=int, default=None,
                   help="enumeration budget per candidate (default 4096)")
    p.add_argument("--engine", choices=("event", "array"), default=None,
                   help="simulation backend for the scenario cells "
                        "(default array)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the ranked-designs document as "
                        "deterministic JSON (bit-identical across "
                        "executors, so two runs diff cleanly)")
    _add_campaign_arguments(p)
    p.set_defaults(func=cmd_design_risk)

    p = sub.add_parser("capacity", help="largest cluster size under a budget")
    _add_config_arguments(p)
    p.add_argument("--max-in", type=float, default=100_000.0)
    p.add_argument("--max-out", type=float, default=100_000.0)
    p.add_argument("--max-proc", type=float, default=10_000_000.0)
    p.add_argument("--max-connections", type=int, default=None)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("simulate", help="run the message-level simulator")
    _add_config_arguments(p)
    p.add_argument("--duration", type=float, default=3600.0,
                   help="virtual seconds to simulate")
    p.add_argument("--engine", choices=("event", "array"), default="event",
                   help="simulation backend: 'event' (message-level "
                        "oracle) or 'array' (vectorized fastcore)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "resilience",
        help="simulate under a fault plan and measure degraded operation",
    )
    _add_config_arguments(p)
    _add_campaign_arguments(p)
    p.add_argument("--duration", type=float, default=1800.0,
                   help="virtual seconds to simulate")
    p.add_argument("--replicates", type=int, default=1,
                   help="independent replicates of the degraded run "
                        "(replicate 0 reuses --seed exactly; r>0 derive "
                        "fresh seeds; incompatible with --trace-out)")
    p.add_argument("--loss", type=float, default=0.0,
                   help="per-hop message-loss probability")
    p.add_argument("--recovery", type=float, default=120.0,
                   help="mean partner-recovery time in seconds "
                        "(0 disables the crash model)")
    p.add_argument("--slow-fraction", type=float, default=0.0,
                   help="fraction of clusters with inflated latency")
    p.add_argument("--slow-factor", type=float, default=4.0,
                   help="latency inflation factor for slow clusters")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="query timeout before the source retries")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retry budget per query (0 disables retries)")
    p.add_argument("--recover", action="store_true",
                   help="arm the self-healing layer (failure detection, "
                        "partner promotion, client re-homing, partition "
                        "healing) for the degraded run")
    p.add_argument("--detector", choices=("oracle", "gossip"), default="oracle",
                   help="failure-detection mode: 'oracle' observes crashes "
                        "directly; 'gossip' learns them from in-band "
                        "membership rumors with m-of-n corroboration")
    p.add_argument("--heartbeat", type=float, default=5.0,
                   help="failure-detector heartbeat interval in seconds "
                        "(oracle mode)")
    p.add_argument("--timeout-beats", type=int, default=3,
                   help="missed heartbeats before a partner is declared dead")
    p.add_argument("--false-positive-rate", type=float, default=0.0,
                   help="per-heartbeat probability of falsely suspecting a "
                        "live partner")
    p.add_argument("--promotion-time", type=float, default=10.0,
                   help="seconds to promote a client into a dead partner slot")
    p.add_argument("--rehome-time", type=float, default=2.0,
                   help="seconds to move an orphaned client to a new cluster")
    p.add_argument("--no-promote", action="store_true",
                   help="disable partner promotion")
    p.add_argument("--no-rehome", action="store_true",
                   help="disable client re-homing")
    p.add_argument("--no-heal", action="store_true",
                   help="disable partition healing links")
    p.add_argument("--repair-top", type=int, default=0,
                   help="also print the top-N repair-cost hotspot clusters")
    p.add_argument("--engine", choices=("event", "array"), default="event",
                   help="simulation backend for both runs")
    p.set_defaults(func=cmd_resilience)

    p = sub.add_parser(
        "chaos",
        help="seeded random fault plans vs the self-healing invariant suite",
    )
    p.add_argument("--cases", type=int, default=20,
                   help="number of seeded chaos cases (seeds --seed..+cases)")
    p.add_argument("--duration", type=float, default=400.0,
                   help="virtual seconds per case")
    p.add_argument("--graph-size", type=int, default=250,
                   help="peers per case instance")
    p.add_argument("--cluster-size", type=int, default=10)
    p.add_argument("--no-redundancy", action="store_true",
                   help="single super-peers instead of 2-redundant partners")
    p.add_argument("--no-recovery", action="store_true",
                   help="run the plans without a recovery policy (skips the "
                        "recovery invariants)")
    p.add_argument("--detector", choices=("oracle", "gossip"), default="oracle",
                   help="failure-detection mode for the generated recovery "
                        "policies")
    p.add_argument("--no-replay", action="store_true",
                   help="skip the bit-identical replay check (faster)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write per-case results as JSON")
    p.add_argument("--manifest-out", metavar="PATH", default=None,
                   help="write the merged chaos RunManifest as JSON")
    p.add_argument("--engine", choices=("event", "array"), default="event",
                   help="simulation backend for every case")
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
    p.add_argument("--graph-size", type=int, default=20_000)
    p.add_argument("--outdegree", type=float, default=3.1)
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser(
        "worker",
        help="drain tasks from a jobfile campaign's shared job directory "
             "(start any number, on any host sharing the directory)",
    )
    p.add_argument("jobdir", metavar="JOBDIR",
                   help="the campaign's --jobdir (may not exist yet; the "
                        "worker waits for the job header to appear)")
    p.add_argument("--startup-timeout", type=float, default=120.0,
                   help="seconds to wait for the job header before exiting")
    p.add_argument("--max-tasks", type=int, default=None,
                   help="exit after evaluating this many tasks")
    p.add_argument("--max-idle", type=float, default=None,
                   help="exit after this many consecutive seconds with "
                        "no claimable task (lets fleets drain and "
                        "disband on their own)")
    p.set_defaults(func=cmd_worker)

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
    p.add_argument("--straggler-factor", type=float, default=3.0,
                   help="flag points slower than this multiple of the "
                        "median runtime")
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
        args.tracer = Tracer(capacity=args.trace_capacity, sink=args.trace_out)
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
