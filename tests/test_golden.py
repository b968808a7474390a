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
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.network import simulate_instance
from repro.topology.builder import build_instance

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_loads.json"
FASTCORE_GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_fastcore.json"
EVENT_GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_event.json"

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


def _simulate(case: dict, engine: str) -> dict[str, float]:
    """Headline numbers of one fixed-seed run of either engine; the
    event engine also pins its event and flood-message counters."""
    params = dict(case)
    seed = params.pop("seed")
    instance = build_instance(Configuration(**params), seed=seed)
    with use_registry(MetricsRegistry()) as registry:
        report = simulate_instance(
            instance, duration=SIM_DURATION, rng=SIM_SEED, engine=engine
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
    if engine == "event":
        counters = registry.snapshot()["counters"]
        for name in ("sim.engine.events", "sim.query_messages"):
            stats[name] = counters[name]
    return stats


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


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
