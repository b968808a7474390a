"""Per-action agreement of the simulator and the MVA.

Christin & Chuang price a peer's participation as a sum of per-action
costs.  This gate compares the two engines in that view: join-only,
update-only and query-only workloads at k = 1 and k = 2, on the per-node
means of super-peer and client incoming, outgoing and processing load.
The instance is fixed (400 peers, cluster size 10, instance seed 3) and
each case compares the mean of simulator seeds 0-2, 20,000 s each, on
the array engine (it charges every action through the event engine's
routines).

The tolerances were set before any model change, from the seed-to-seed
spread (max - min over seeds 0-2) of the relative error on this
instance: at most 0.7% for queries, 2.2% for updates and 8.6% for joins.
A case the current model fails is a strict xfail whose reason gives the
measured gap, so a model fix has to flip it.
"""

import functools

import numpy as np
import pytest

from repro.config import Configuration
from repro.core.load import evaluate_instance
from repro.sim.network import simulate_instance
from repro.topology.builder import build_instance

SEEDS = (0, 1, 2)
DURATION = 20_000.0

#: action -> (configuration rates, churn on, tolerance on the relative error)
ACTIONS = {
    "join": (dict(query_rate=1e-9, update_rate=0.0), True, 0.09),
    "update": (dict(query_rate=1e-9), False, 0.025),
    "query": (dict(update_rate=0.0), False, 0.01),
}
ROLES = {"superpeer": slice(0, 3), "client": slice(3, 6)}
METRICS = ("in", "out", "proc")


def _node_means(report) -> np.ndarray:
    """Eq. 3 super-peer then client means of an MVA or simulator report."""
    sp, cl = report.mean_superpeer_load(), report.mean_client_load()
    return np.array([sp.incoming_bps, sp.outgoing_bps, sp.processing_hz,
                     cl.incoming_bps, cl.outgoing_bps, cl.processing_hz])


@functools.cache
def _means(action: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(simulator mean over SEEDS, MVA) per-node means for one case."""
    rates, churn, _ = ACTIONS[action]
    config = Configuration(graph_size=400, cluster_size=10,
                           redundancy=k == 2, **rates)
    instance = build_instance(config, seed=3)
    mva = _node_means(evaluate_instance(instance, components=(action,)))
    sim = np.mean([_node_means(simulate_instance(
        instance, duration=DURATION, rng=seed, enable_churn=churn,
        engine="array")) for seed in SEEDS], axis=0)
    return sim, mva


def _xfail(reason: str):
    return pytest.mark.xfail(strict=True, reason=reason)


@pytest.mark.parametrize("action, k, role", [
    pytest.param("join", 1, "superpeer", marks=_xfail(
        "simulator vs MVA: in -31%, out -19%, proc -31%; replacement "
        "clients draw fresh collections and handshakes are booked on the "
        "joining cluster")),
    pytest.param("join", 1, "client", marks=_xfail(
        "simulator vs MVA: in -100% (clients are charged no partner-join "
        "handshakes), out -32%, proc -33%")),
    ("join", 2, "superpeer"),
    pytest.param("join", 2, "client", marks=_xfail(
        "simulator vs MVA: in -100% (clients are charged no partner-join "
        "handshakes), out +6.4%, proc +3.5%")),
    ("update", 1, "superpeer"),
    ("update", 1, "client"),
    ("update", 2, "superpeer"),
    ("update", 2, "client"),
    ("query", 1, "superpeer"),
    ("query", 1, "client"),
    ("query", 2, "superpeer"),
    ("query", 2, "client"),
])
def test_simulator_matches_mva_per_action(action, k, role):
    sim, mva = (means[ROLES[role]] for means in _means(action, k))
    tolerance = ACTIONS[action][2]
    for metric, got, want in zip(METRICS, sim, mva):
        if want == 0.0:
            assert got == 0.0, f"{role} {metric}: {got} where the MVA has 0"
        else:
            err = got / want - 1.0
            assert abs(err) <= tolerance, f"{role} {metric}: {err:+.3f}"
