"""The CLI's one flag-to-spec path: unset flags leave every spec field at
its class default, help shows those defaults, and choices come from the
constants the specs validate against.

Expected defaults are read from the dataclasses and function signatures
themselves, never restated here.
"""

import argparse
import dataclasses
import inspect
import re

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.config import STRONG_BEST_CASE, Configuration, GraphType
from repro.core.capacity import LoadBudget
from repro.core.design import DesignConstraints
from repro.exec import EXECUTOR_NAMES
from repro.obs.trace import Tracer
from repro.reporting import render_campaign
from repro.risk import RiskSpec
from repro.risk.evaluate import TARGET_METRICS
from repro.sim.chaos import ChaosSpec
from repro.sim.faults import CrashSpec, FaultPlan, RetryPolicy, SlowSpec
from repro.sim.monitor import DETECTOR_MODES, DetectorSpec
from repro.sim.network import ENGINES, simulate_instance
from repro.sim.recovery import RecoveryPolicy
from repro.sim.resilience import ResilienceSpec
from repro.topology.crawl import synthesize_crawl

SUBCOMMANDS = ("analyze", "sweep", "design", "design-risk", "capacity",
               "simulate", "resilience", "chaos", "crawl", "profile", "watch")
CONFIG_COMMANDS = ("analyze", "sweep", "capacity", "simulate", "resilience",
                   "profile")


def default_of(owner, name):
    """The class default of a dataclass field, or a parameter's default."""
    if dataclasses.is_dataclass(owner):
        return next(f.default for f in dataclasses.fields(owner)
                    if f.name == name)
    return inspect.signature(owner).parameters[name].default


#: (subcommand or None for a global flag, flag, owner, field) for every
#: flag whose default belongs to a spec class or library function.
SPEC_FLAGS = [
    *[(cmd, flag, Configuration, field)
      for cmd in CONFIG_COMMANDS
      for flag, field in (("--graph-size", "graph_size"),
                          ("--cluster-size", "cluster_size"),
                          ("--outdegree", "avg_outdegree"),
                          ("--ttl", "ttl"),
                          ("--query-rate", "query_rate"))],
    *[(cmd, flag, DesignConstraints, field)
      for cmd in ("design", "design-risk")
      for flag, field in (("--max-in", "max_incoming_bps"),
                          ("--max-out", "max_outgoing_bps"),
                          ("--max-proc", "max_processing_hz"),
                          ("--max-connections", "max_connections"))],
    *[("design-risk", flag, RiskSpec, field)
      for flag, field in (("--cutoff", "cutoff"), ("--alpha", "alpha"),
                          ("--availability-target", "availability_target"),
                          ("--target-metric", "target_metric"),
                          ("--mean-recovery", "mean_recovery"),
                          ("--duration", "duration"),
                          ("--partition-units", "partition_units"),
                          ("--partition-probability",
                           "partition_probability"),
                          ("--max-candidates", "max_candidates"),
                          ("--max-scenarios", "max_scenarios"),
                          ("--engine", "engine"))],
    *[("capacity", flag, LoadBudget, field)
      for flag, field in (("--max-in", "max_incoming_bps"),
                          ("--max-out", "max_outgoing_bps"),
                          ("--max-proc", "max_processing_hz"))],
    ("simulate", "--duration", simulate_instance, "duration"),
    ("simulate", "--engine", simulate_instance, "engine"),
    ("resilience", "--duration", ResilienceSpec, "duration"),
    ("resilience", "--replicates", ResilienceSpec, "replicates"),
    ("resilience", "--engine", ResilienceSpec, "engine"),
    ("resilience", "--loss", FaultPlan, "message_loss"),
    ("resilience", "--recovery", CrashSpec, "mean_recovery"),
    ("resilience", "--slow-factor", SlowSpec, "factor"),
    ("resilience", "--timeout", RetryPolicy, "timeout"),
    ("resilience", "--max-retries", RetryPolicy, "max_retries"),
    ("resilience", "--detector", DetectorSpec, "mode"),
    ("resilience", "--heartbeat", DetectorSpec, "heartbeat_interval"),
    ("resilience", "--timeout-beats", DetectorSpec, "timeout_beats"),
    ("resilience", "--false-positive-rate", DetectorSpec,
     "false_positive_rate"),
    ("resilience", "--promotion-time", RecoveryPolicy, "promotion_time"),
    ("resilience", "--rehome-time", RecoveryPolicy, "rehome_time"),
    *[("chaos", flag, ChaosSpec, field)
      for flag, field in (("--cases", "cases"), ("--duration", "duration"),
                          ("--graph-size", "graph_size"),
                          ("--cluster-size", "cluster_size"),
                          ("--detector", "detector"), ("--engine", "engine"))],
    ("crawl", "--graph-size", synthesize_crawl, "num_peers"),
    ("crawl", "--outdegree", synthesize_crawl, "avg_outdegree"),
    ("watch", "--straggler-factor", render_campaign, "straggler_factor"),
    (None, "--trace-capacity", Tracer, "capacity"),
]


def help_text(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def flag_help(text: str, flag: str) -> str:
    """The whitespace-normalized help entry of ``flag``."""
    entries = re.split(r"\n(?=  -)", text)
    entry = next(e for e in entries if e.split()[0] == flag)
    return " ".join(entry.split())


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_renders_for_every_subcommand(capsys, command):
    assert help_text(capsys, command).startswith(f"usage: repro {command}")


@pytest.mark.parametrize("command, flag, owner, field", SPEC_FLAGS)
def test_help_shows_the_spec_default(capsys, command, flag, owner, field):
    text = help_text(capsys, *([command] if command else []))
    assert f"(default: {default_of(owner, field)})" in flag_help(text, flag)


def test_choices_are_the_constants_the_specs_check():
    choices = {}
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.choices is not None:
                choices[name, action.option_strings[0]] = action.choices
    assert choices.pop(("design-risk", "--target-metric")) is TARGET_METRICS
    for (name, flag), value in choices.items():
        expected = {"--engine": ENGINES, "--detector": DETECTOR_MODES,
                    "--executor": EXECUTOR_NAMES}[flag]
        assert value is expected, (name, flag)


class Captured(Exception):
    """Stops a command at the library call whose arguments a test reads."""


def capture(monkeypatch, module, name):
    def stop(*args, **kwargs):
        raise Captured(args, kwargs)

    monkeypatch.setattr(module, name, stop)


def captured_call(argv) -> tuple[tuple, dict]:
    with pytest.raises(Captured) as info:
        main(list(argv))
    return info.value.args


class TestUnsetFlagsKeepClassDefaults:
    def test_configuration(self, monkeypatch):
        import repro.core.analysis as analysis

        capture(monkeypatch, analysis, "evaluate_configuration")
        (config,), _ = captured_call(["analyze"])
        assert config == Configuration()

    def test_strong_overlay_defaults_ttl_to_one(self, monkeypatch):
        import repro.core.analysis as analysis

        capture(monkeypatch, analysis, "evaluate_configuration")
        (config,), _ = captured_call(["analyze", "--strong"])
        assert config == Configuration(graph_type=GraphType.STRONG,
                                       ttl=STRONG_BEST_CASE.ttl)

    def test_design_constraints(self, monkeypatch):
        import repro.core.design as design

        capture(monkeypatch, design, "design_topology")
        (constraints,), _ = captured_call(
            ["design", "--users", "100", "--reach", "50"])
        assert constraints == DesignConstraints(num_users=100,
                                                desired_reach_peers=50)

    def test_design_risk_specs_and_seed(self, monkeypatch):
        import repro.risk as risk

        capture(monkeypatch, risk, "design_topology_risk")
        (constraints, spec), _ = captured_call(
            ["--seed", "5", "design-risk", "--users", "100", "--reach", "50"])
        assert constraints == DesignConstraints(num_users=100,
                                                desired_reach_peers=50)
        assert spec == RiskSpec(seed=5)

    def test_capacity_budget(self, monkeypatch):
        capture(monkeypatch, cli, "max_supported_cluster_size")
        (_, budget), kwargs = captured_call(["capacity", "--graph-size", "100"])
        assert budget == LoadBudget()
        assert "max_connections" not in kwargs

    def test_simulate_leaves_duration_and_engine_to_the_function(self, monkeypatch):
        capture(monkeypatch, cli, "simulate_instance")
        _, kwargs = captured_call(["simulate", "--graph-size", "100"])
        assert kwargs == {"rng": 0, "tracer": None}

    def test_trace_capacity(self, monkeypatch, tmp_path):
        capture(monkeypatch, cli, "simulate_instance")
        _, kwargs = captured_call(["--trace-out", str(tmp_path / "t.jsonl"),
                                   "simulate", "--graph-size", "100"])
        assert kwargs["tracer"].capacity == default_of(Tracer, "capacity")
        kwargs["tracer"].close()

    def test_resilience_spec(self, monkeypatch):
        import repro.sim.resilience as resilience

        capture(monkeypatch, resilience, "run_resilience_spec")
        (spec,), _ = captured_call(
            ["resilience", "--graph-size", "100", "--recover"])
        # The command line runs crash recovery and retries unless switched
        # off; the recovery policy is armed by --recover.
        assert spec == ResilienceSpec(
            config=Configuration(graph_size=100),
            plan=FaultPlan(crash=CrashSpec(), retry=RetryPolicy()),
            recovery=RecoveryPolicy(),
        )
        (spec,), _ = captured_call(["resilience", "--graph-size", "100"])
        assert spec.recovery is None

    def test_resilience_switches_and_negations(self, monkeypatch):
        import repro.sim.resilience as resilience

        capture(monkeypatch, resilience, "run_resilience_spec")
        (spec,), _ = captured_call(
            ["resilience", "--graph-size", "100", "--recovery", "0",
             "--max-retries", "0", "--slow-fraction", "0.2", "--recover",
             "--no-promote", "--no-heal", "--heartbeat", "4"])
        assert spec.plan == FaultPlan(slow=SlowSpec(fraction=0.2))
        assert spec.recovery == RecoveryPolicy(
            detector=DetectorSpec(heartbeat_interval=4.0),
            promote=False, heal_partitions=False)
        # Recovery flags without --recover leave the policy off.
        (spec,), _ = captured_call(
            ["resilience", "--graph-size", "100", "--heartbeat", "4",
             "--slow-factor", "3"])
        assert spec.recovery is None
        assert spec.plan.slow is None

    def test_chaos_spec_and_seed(self, monkeypatch):
        import repro.sim.chaos as chaos

        capture(monkeypatch, chaos, "run_chaos")
        (spec,), _ = captured_call(["--seed", "7", "chaos"])
        assert spec == ChaosSpec(base_seed=7)

    def test_crawl(self, monkeypatch):
        capture(monkeypatch, cli, "synthesize_crawl")
        assert captured_call(["crawl"]) == ((), {"seed": 0})

    def test_watch(self, monkeypatch):
        import repro.obs.journal as journal

        monkeypatch.setattr(journal, "replay_journal", lambda path: object())
        capture(monkeypatch, cli, "render_campaign")
        _, kwargs = captured_call(["watch", "j.jsonl", "--once"])
        assert kwargs == {}
