"""Golden-value regression tests for the load engine and the sim engines.

Four small, fixed-seed configurations — strong and power-law, each with
k=1 and k=2 super-peer redundancy — are evaluated exactly and their
headline numbers pinned to ``tests/golden/golden_loads.json``.  Any
change to topology generation, the query model or the Eq. 1-4 load
engine that moves these numbers (beyond float noise) fails here first,
with a message naming the statistic that moved — turning "the figures
look different" into a one-line diff.

The same quartet is also run through both simulation engines at one
fixed sim seed and pinned to ``tests/golden/golden_fastcore.json``
(``engine="array"``) and ``tests/golden/golden_event.json``
(``engine="event"``, plus its event and flood-message counters), so
each simulator's numeric behaviour is version-controlled exactly like
the analytical engine's.

One k=2 and one k=1 case also run under a fixed fault plan (loss,
crash/recovery, retries, gossip-detected self-healing) through both
engines and are pinned to ``tests/golden/golden_faulty.json``: the
load headline, the event counters and the degraded-mode counters of
:class:`~repro.sim.faults.FaultOutcome`.

The Eq. 1-4 cost attribution (:mod:`repro.obs.attribution`) of the
``tests/test_attribution.py`` configurations, in each of its modes, is
pinned to ``tests/golden/golden_attribution.json``: the split by action
and by BFS hop, the sum of every (action, resource, hop) table and the
top super-peers and edges.  The hotspot lists are compared tie-robustly:
the ranked bandwidths position by position, and each pinned row against
the row of the same cluster or edge.

Regenerating the fixtures (only after an *intentional* numeric change)::

    PYTHONPATH=src python tests/test_golden.py --regen

and commit the updated JSON alongside the change that justifies it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import Configuration, GraphType
from repro.core.load import evaluate_instance
from repro.obs.attribution import profile_instance
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.faults import CrashSpec, FaultOutcome, FaultPlan, RetryPolicy
from repro.sim.monitor import DetectorSpec
from repro.sim import network
from repro.sim.network import simulate_instance
from repro.sim.recovery import RecoveryPolicy
from repro.topology.builder import build_instance

from test_attribution import GOLDEN_CONFIGS as ATTRIBUTION_CONFIGS
from test_attribution import MODES as ATTRIBUTION_MODES

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_loads.json"
FASTCORE_GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_fastcore.json"
EVENT_GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_event.json"
FAULTY_GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_faulty.json"
ATTRIBUTION_GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_attribution.json"

#: Fixed simulation window and seed for the simulated quartets; part
#: of the golden contract like the topology seeds above.
SIM_DURATION = 240.0
SIM_SEED = 11

#: Loosened only for cross-platform float noise; a real model change
#: moves these numbers by orders of magnitude more.
RTOL = 1e-9

#: The pinned configurations.  Seeds are part of the contract.
CASES = {
    "strong_k1": dict(
        graph_type=GraphType.STRONG, graph_size=200, cluster_size=10,
        ttl=1, seed=5,
    ),
    "strong_k2": dict(
        graph_type=GraphType.STRONG, graph_size=200, cluster_size=10,
        ttl=1, redundancy=True, seed=5,
    ),
    "power_k1": dict(
        graph_type=GraphType.POWER_LAW, graph_size=300, cluster_size=10,
        avg_outdegree=4.0, ttl=4, seed=3,
    ),
    "power_k2": dict(
        graph_type=GraphType.POWER_LAW, graph_size=300, cluster_size=10,
        avg_outdegree=4.0, ttl=4, redundancy=True, seed=3,
    ),
}

#: The faulty-run contract: a fixed plan and recovery policy, run on
#: these cases through both engines.
FAULTY_CASES = ("power_k1", "power_k2")
FAULTY_PLAN = FaultPlan(
    message_loss=0.05,
    crash=CrashSpec(mean_recovery=60.0),
    retry=RetryPolicy(timeout=3.0, max_retries=2),
)
FAULTY_RECOVERY = RecoveryPolicy(detector=DetectorSpec(mode="gossip"))
FAULT_COUNTERS = (
    "queries_attempted", "queries_failed", "retries", "orphaned_queries",
    "flood_messages_lost", "response_messages_lost", "partner_crashes",
    "promotions", "lost_updates", "deferred_joins",
)


def _evaluate(case: dict) -> dict[str, float]:
    params = dict(case)
    seed = params.pop("seed")
    instance = build_instance(Configuration(**params), seed=seed)
    report = evaluate_instance(instance)  # exact: every source cluster
    aggregate = report.aggregate_load()
    superpeer = report.mean_superpeer_load()
    client = report.mean_client_load()
    return {
        "aggregate_incoming_bps": aggregate.incoming_bps,
        "aggregate_outgoing_bps": aggregate.outgoing_bps,
        "aggregate_processing_hz": aggregate.processing_hz,
        "superpeer_incoming_bps": superpeer.incoming_bps,
        "superpeer_outgoing_bps": superpeer.outgoing_bps,
        "superpeer_processing_hz": superpeer.processing_hz,
        "client_incoming_bps": client.incoming_bps,
        "mean_results_per_query": report.mean_results_per_query(),
        "mean_epl": report.mean_epl(),
        "mean_reach_clusters": report.mean_reach_clusters(),
        "mean_reach_peers": report.mean_reach_peers(),
    }


def _simulate(case: dict, engine: str, faulty: bool = False) -> dict[str, float]:
    """Headline numbers of one fixed-seed run of either engine; the
    event engine also pins its event and flood-message counters.

    ``faulty`` runs under :data:`FAULTY_PLAN` with
    :data:`FAULTY_RECOVERY` (the event loop on both engines) and adds
    the event counters and :data:`FAULT_COUNTERS`.
    """
    params = dict(case)
    seed = params.pop("seed")
    instance = build_instance(Configuration(**params), seed=seed)
    outcome = FaultOutcome()
    faults = dict(faults=FAULTY_PLAN, fault_metrics=outcome,
                  recovery=FAULTY_RECOVERY) if faulty else {}
    with use_registry(MetricsRegistry()) as registry:
        report = simulate_instance(
            instance, duration=SIM_DURATION, rng=SIM_SEED, engine=engine,
            **faults,
        )
    stats = {
        "num_queries": float(report.num_queries),
        "num_joins": float(report.num_joins),
        "num_updates": float(report.num_updates),
        "superpeer_incoming_bps": float(np.mean(report.superpeer_incoming_bps)),
        "superpeer_outgoing_bps": float(np.mean(report.superpeer_outgoing_bps)),
        "superpeer_processing_hz": float(np.mean(report.superpeer_processing_hz)),
        "client_incoming_bps": float(np.mean(report.client_incoming_bps)),
        "mean_results_per_query": float(report.mean_results_per_query),
        "mean_reach_clusters": float(report.mean_reach_clusters),
    }
    if engine == "event" or faulty:
        counters = registry.snapshot()["counters"]
        for name in ("sim.engine.events", "sim.query_messages"):
            stats[name] = counters[name]
    if faulty:
        for name in FAULT_COUNTERS:
            stats[name] = float(getattr(outcome, name))
    return stats


def _simulate_faulty() -> dict[str, dict[str, float]]:
    return {f"{name}/{engine}": _simulate(CASES[name], engine, faulty=True)
            for name in FAULTY_CASES for engine in ("array", "event")}


def _attribute(name: str, mode: str) -> tuple[dict, object]:
    """(pinned payload, attribution) of one configuration and mode of
    ``tests/test_attribution.py``; the attribution serves the by-id
    lookups of :func:`test_attribution_golden`."""
    instance = build_instance(ATTRIBUTION_CONFIGS[name], seed=11)
    _, attribution = profile_instance(instance, **ATTRIBUTION_MODES[mode])
    tables = {}
    for space, table in (("superpeer", attribution.superpeer_tables()),
                         ("client", attribution.client_tables())):
        for (action, resource, hop), values in table.items():
            tables[f"{space}/{action}/{resource}/{hop}"] = float(values.sum())
    payload = {
        "by_action": attribution.by_action(),
        "by_hop": {str(h): v for h, v in attribution.by_hop().items()},
        "tables": tables,
        "top_superpeers": attribution.top_superpeers(10),
        "top_edges": [{**row, "edge": list(row["edge"])}
                      for row in attribution.top_edges(10)],
    }
    return payload, attribution


def _attribution_cases() -> list[str]:
    return [f"{name}/{mode}" for name in sorted(ATTRIBUTION_CONFIGS)
            for mode in sorted(ATTRIBUTION_MODES)]


def _load(path: Path) -> dict:
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def _assert_matches(name: str, golden: dict, actual: dict) -> None:
    assert set(actual) == set(golden), f"{name}: statistic set changed"
    for stat, expected in golden.items():
        assert actual[stat] == pytest.approx(expected, rel=RTOL), (
            f"{name}.{stat} moved: expected {expected!r}, got {actual[stat]!r}"
        )


def test_golden_fixture_covers_all_cases():
    golden = _load(GOLDEN_PATH)
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_loads(name):
    _assert_matches(name, _load(GOLDEN_PATH)[name], _evaluate(CASES[name]))


def test_fastcore_golden_fixture_covers_all_cases():
    assert set(_load(FASTCORE_GOLDEN_PATH)) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fastcore_golden_loads(name):
    _assert_matches(name, _load(FASTCORE_GOLDEN_PATH)[name],
                    _simulate(CASES[name], "array"))


def test_event_golden_fixture_covers_all_cases():
    assert set(_load(EVENT_GOLDEN_PATH)) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_golden_loads(name):
    _assert_matches(name, _load(EVENT_GOLDEN_PATH)[name],
                    _simulate(CASES[name], "event"))


def test_faulty_golden_fixture_covers_all_cases():
    assert set(_load(FAULTY_GOLDEN_PATH)) == {
        f"{name}/{engine}" for name in FAULTY_CASES
        for engine in ("array", "event")
    }


@pytest.mark.parametrize("engine", ["array", "event"])
@pytest.mark.parametrize("name", FAULTY_CASES)
def test_faulty_golden_loads(name, engine):
    key = f"{name}/{engine}"
    _assert_matches(key, _load(FAULTY_GOLDEN_PATH)[key],
                    _simulate(CASES[name], engine, faulty=True))


@pytest.mark.parametrize(
    "name, engine, faulty",
    [(name, engine, True) for name in FAULTY_CASES for engine in ("array", "event")]
    + [(name, "event", False) for name in sorted(CASES)])
def test_silent_attempts_skip_the_response_pass(name, engine, faulty,
                                                monkeypatch):
    """Some attempts of every faulty golden run, and of the fault-free
    event runs, are answered by no cluster but their source and skip the
    Response fold; the golden numbers then pin the shortcut."""
    calls = {"_flood_attempt": 0, "lossy_accumulate": 0}

    def count(attr):
        original = getattr(network, attr)

        def spy(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(network, attr, spy)

    count("_flood_attempt")
    count("lossy_accumulate")
    if faulty:
        key, golden = f"{name}/{engine}", _load(FAULTY_GOLDEN_PATH)
    else:
        key, golden = name, _load(EVENT_GOLDEN_PATH)
    _assert_matches(key, golden[key], _simulate(CASES[name], engine, faulty))
    silent = calls["_flood_attempt"] - calls["lossy_accumulate"]
    assert 0 < silent < calls["_flood_attempt"]


def test_attribution_golden_fixture_covers_all_cases():
    assert set(_load(ATTRIBUTION_GOLDEN_PATH)) == set(_attribution_cases())


def _assert_row(name: str, golden: dict, actual: dict) -> None:
    assert set(actual) == set(golden), f"{name}: field set changed"
    for field, expected in golden.items():
        if isinstance(expected, str):
            assert actual[field] == expected, f"{name}.{field} changed"
        else:
            assert actual[field] == pytest.approx(expected, rel=RTOL), (
                f"{name}.{field} moved: expected {expected!r}, "
                f"got {actual[field]!r}"
            )


@pytest.mark.parametrize("case", _attribution_cases())
def test_attribution_golden(case):
    golden = _load(ATTRIBUTION_GOLDEN_PATH)[case]
    actual, attribution = _attribute(*case.split("/"))
    for part in ("by_action", "by_hop"):
        assert set(actual[part]) == set(golden[part]), f"{case}.{part} keys"
        for key, loads in golden[part].items():
            _assert_matches(f"{case}.{part}.{key}", loads, actual[part][key])
    _assert_matches(f"{case}.tables", golden["tables"], actual["tables"])
    # Hotspots, tie-robust: the ranked bandwidths match position by
    # position, and each pinned row matches the row of its own id.
    everyone = {
        "top_superpeers": {row["cluster"]: row for row in
                           attribution.top_superpeers(attribution.n)},
        "top_edges": {row["edge"]: {**row, "edge": list(row["edge"])}
                      for row in attribution.top_edges(2 ** 62)},
    }
    for part, key in (("top_superpeers", "cluster"), ("top_edges", "edge")):
        assert len(actual[part]) == len(golden[part]), f"{case}.{part} length"
        for rank, (want, got) in enumerate(zip(golden[part], actual[part])):
            assert got["bandwidth_bps"] == pytest.approx(
                want["bandwidth_bps"], rel=RTOL
            ), f"{case}.{part}[{rank}] bandwidth moved"
            ident = want[key] if part == "top_superpeers" else tuple(want[key])
            assert ident in everyone[part], f"{case}.{part}: {ident} gone"
            _assert_row(f"{case}.{part}[{ident}]", want, everyone[part][ident])


def test_redundancy_changes_the_numbers():
    # Sanity on the fixture itself: the four cases must be genuinely
    # distinct experiments, not four copies of one.
    golden = _load(GOLDEN_PATH)
    values = {
        name: payload["aggregate_processing_hz"]
        for name, payload in golden.items()
    }
    assert len(set(values.values())) == len(values)


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = {name: _evaluate(case) for name, case in sorted(CASES.items())}
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")
    for engine, path in (("array", FASTCORE_GOLDEN_PATH),
                         ("event", EVENT_GOLDEN_PATH)):
        payload = {name: _simulate(case, engine)
                   for name, case in sorted(CASES.items())}
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path}")
    FAULTY_GOLDEN_PATH.write_text(
        json.dumps(_simulate_faulty(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FAULTY_GOLDEN_PATH}")
    payload = {case: _attribute(*case.split("/"))[0]
               for case in _attribution_cases()}
    ATTRIBUTION_GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {ATTRIBUTION_GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
