"""The one dataclass codec: every spec and report round-trips through it,
and an unknown key fails at any depth with one line naming its path."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import SweepSpec
from repro.codec import Codec, decode, encode
from repro.config import DEFAULT, GNUTELLA_2001, Configuration, GraphType
from repro.obs.manifest import config_fingerprint
from repro.risk.evaluate import RiskSpec
from repro.risk.scenarios import FailureScenario, FailureUnit
from repro.sim.chaos import ChaosSpec, generate_fault_plan, generate_recovery_policy
from repro.sim.faults import (
    CrashSpec,
    FaultOutcome,
    FaultPlan,
    PartitionWindow,
    RetryPolicy,
    SlowSpec,
)
from repro.sim.gossip import GossipSpec
from repro.sim.monitor import DetectorSpec
from repro.sim.network import SimulationReport
from repro.sim.recovery import RecoveryPolicy
from repro.sim.resilience import ResilienceReport, ResilienceSpec, run_resilience
from repro.topology.builder import build_instance

CONFIG = Configuration(graph_type=GraphType.STRONG, graph_size=300,
                       cluster_size=15, redundancy=True, ttl=2, query_rate=1e-3)
PLAN = FaultPlan(
    message_loss=0.02, crash=CrashSpec(90.0, 1.5),
    partitions=(PartitionWindow(0.0, 50.0, (1, 2)),
                PartitionWindow(60.0, 70.0, (3,))),
    blackout=(4, 0), slow=SlowSpec(0.2, 3.0),
    retry=RetryPolicy(2.0, 3, 1.5, 60.0),
)
POLICY = generate_recovery_policy(3, detector="gossip")


@pytest.fixture(scope="module")
def report() -> ResilienceReport:
    """A small faulty run with gossip recovery: every FaultOutcome array
    and list is filled in."""
    instance = build_instance(
        Configuration(graph_size=60, cluster_size=10, redundancy=True), seed=0)
    return run_resilience(
        instance, FaultPlan(message_loss=0.05, crash=CrashSpec(30.0)),
        duration=100.0, rng=0,
        recovery=RecoveryPolicy(detector=DetectorSpec(mode="gossip")))


FIXTURES = {
    Configuration: lambda r: CONFIG,
    SweepSpec: lambda r: SweepSpec(
        name="s", base=CONFIG, grid={"ttl": [1, 2], "cluster_size": [5, 10]},
        seed=None, max_sources=None, executor="thread"),
    RiskSpec: lambda r: RiskSpec(partition_units=1, executor="serial"),
    FailureUnit: lambda r: FailureUnit("partition", "island-0", (3, 1), 0.25),
    FailureScenario: lambda r: FailureScenario(
        ("a", "b"), 0.1, (1, 2), ((3, 4), (5,))),
    CrashSpec: lambda r: CrashSpec(90.0, 1.5),
    PartitionWindow: lambda r: PartitionWindow(1.0, 2.0, (7, 8)),
    SlowSpec: lambda r: SlowSpec(0.25),
    RetryPolicy: lambda r: RetryPolicy(),
    FaultPlan: lambda r: PLAN,
    FaultOutcome: lambda r: r.outcome,
    SimulationReport: lambda r: r.degraded,
    DetectorSpec: lambda r: POLICY.detector,
    GossipSpec: lambda r: GossipSpec(fanout=3),
    RecoveryPolicy: lambda r: POLICY,
    ResilienceSpec: lambda r: ResilienceSpec(
        config=CONFIG, plan=PLAN, recovery=POLICY, executor="process"),
    ResilienceReport: lambda r: r,
    ChaosSpec: lambda r: ChaosSpec(cases=3, detector="gossip",
                                   executor="serial"),
}


def same(a, b) -> bool:
    """Field-wise equality with arrays compared by value, dtype included."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype
                and np.array_equal(a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("cls", list(FIXTURES), ids=lambda c: c.__name__)
def test_round_trip_through_json(cls, report):
    value = FIXTURES[cls](report)
    payload = json.loads(json.dumps(value.to_dict()))
    assert list(payload) == [f.name for f in dataclasses.fields(cls)]
    assert same(cls.from_dict(payload), value)


def test_fixtures_fill_the_optional_fields(report):
    """The round trip above covers arrays, lists and nested optionals."""
    out = report.outcome
    assert out.cluster_downtime is not None
    assert out.gossip_cluster_units is not None and out.detection_lags
    assert POLICY.detector.gossip is not None and report.recovery is not None


@pytest.mark.parametrize("cls", list(FIXTURES), ids=lambda c: c.__name__)
def test_no_class_writes_its_own_pair(cls):
    assert issubclass(cls, Codec)
    assert "to_dict" not in vars(cls) and "from_dict" not in vars(cls)


@pytest.mark.parametrize("cls", list(FIXTURES), ids=lambda c: c.__name__)
def test_unknown_top_level_key(cls, report):
    payload = {**FIXTURES[cls](report).to_dict(), "bogus": 1}
    with pytest.raises(ValueError, match=rf"unknown fields \['bogus'\] "
                                         rf"at {cls.__name__}; valid fields"):
        cls.from_dict(payload)


@pytest.mark.parametrize("cls, payload, path, key", [
    (FaultPlan, {"messsage_loss": 0.2}, "FaultPlan", "messsage_loss"),
    (ResilienceSpec, {"plan": {"messsage_loss": 0.2}},
     "ResilienceSpec.plan", "messsage_loss"),
    (ResilienceSpec, {"plan": {"crash": {"mean_recovry": 5.0}}},
     "ResilienceSpec.plan.crash", "mean_recovry"),
    (RecoveryPolicy, {"detector": {"mode": "gossip", "gossip": {"fanot": 2}}},
     "RecoveryPolicy.detector.gossip", "fanot"),
    (FaultPlan, {"partitions": [{"start": 0.0, "end": 1.0, "island": [1],
                                 "isle": [2]}]},
     r"FaultPlan.partitions\[0\]", "isle"),
    (SweepSpec, {"base": {"graph_sizee": 10}, "grid": {"ttl": [1]}},
     "SweepSpec.base", "graph_sizee"),
])
def test_unknown_nested_key_names_its_path(cls, payload, path, key):
    with pytest.raises(ValueError,
                       match=rf"unknown fields \['{key}'\] at {path}; "):
        cls.from_dict(payload)


def test_bad_shapes_and_missing_fields_name_their_path():
    with pytest.raises(ValueError, match="FaultPlan.crash must be a JSON object"):
        FaultPlan.from_dict({"crash": 5})
    with pytest.raises(ValueError, match=r"missing fields \['name', 'clusters', "
                                         r"'probability'\] at FailureUnit"):
        FailureUnit.from_dict({"kind": "crash"})


def test_reads_back_types_and_defaults():
    plan = FaultPlan.from_dict({"partitions": [
        {"start": 0, "end": 5, "island": [2, 1]}]})
    assert plan.partitions == (PartitionWindow(0, 5, (2, 1)),)
    assert FailureScenario.from_dict(
        {"failed": [], "probability": 1.0, "dark_clusters": [],
         "islands": [[1, 2]]}).islands == ((1, 2),)
    assert Configuration.from_dict({"graph_type": "strong"}).graph_type \
        is GraphType.STRONG
    # Field defaults fill what a payload leaves out.
    assert SweepSpec.from_dict({"grid": {"ttl": [1]}}).name == "sweep"
    assert SweepSpec.from_dict({"grid": {"ttl": [1]}}).base == Configuration()
    assert ChaosSpec.from_dict({"cases": 2}) == ChaosSpec(cases=2)
    assert RecoveryPolicy.from_dict({}) == RecoveryPolicy()
    assert ResilienceSpec.from_dict({}, replicates=2) == \
        ResilienceSpec(Configuration(), FaultPlan(), replicates=2)


def test_overrides_win_over_the_payload():
    spec = SweepSpec.from_dict({"grid": {"ttl": [1]}, "trials": 5}, trials=1)
    assert spec.trials == 1


def test_generated_chaos_specs_round_trip():
    for seed in range(5):
        plan = generate_fault_plan(seed, num_clusters=20, duration=300.0)
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
        for detector in ("oracle", "gossip"):
            policy = generate_recovery_policy(seed, detector=detector)
            assert RecoveryPolicy.from_dict(policy.to_dict()) == policy


def test_decode_accepts_a_path_and_any_dataclass():
    from repro.core.design import DesignConstraints

    with pytest.raises(ValueError, match=r"unknown fields \['users'\] at constraints;"):
        decode(DesignConstraints, {"users": 3}, path="constraints")
    assert encode({"a": (1, GraphType.STRONG), "b": np.arange(2.0)}) == \
        {"a": [1, "strong"], "b": [0.0, 1.0]}


def test_config_fingerprint_is_stable():
    """The fingerprint hashes the codec's form; archived manifests keep
    matching the presets."""
    assert config_fingerprint(DEFAULT) == "0458382042aa93d3"
    assert config_fingerprint(GNUTELLA_2001) == "11d02a3bdc702f69"
    assert config_fingerprint(CONFIG) == "d2d099ba262cfdaa"
