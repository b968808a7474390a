"""F10 — Figure 10: the global design procedure on the Section 5.2 case.

Runs the procedure for the paper's walkthrough: 20,000 users, desired
reach = what today's Gnutella attains, 100 Kbps / 10 MHz / 100-connection
individual limits, no redundancy.  The paper lands on cluster size ~10,
~18 super-peer neighbours, TTL 2; we emit the audit trail and the chosen
configuration.
"""

from repro.config import Configuration
from repro.core.analysis import evaluate_configuration
from repro.core.design import DesignConstraints, design_topology

from conftest import run_once

#: Shared with F11/F12: the Section 5.2 scenario pieces.
def todays_gnutella(graph_size: int) -> Configuration:
    return Configuration(
        graph_size=graph_size, cluster_size=1, avg_outdegree=3.1, ttl=7
    )


_OUTCOME_CACHE: dict = {}


def run_walkthrough(graph_size: int, allow_redundancy: bool = False):
    """The full Section 5.2 procedure, cached for the F11/F12 benches."""
    key = (graph_size, allow_redundancy)
    if key in _OUTCOME_CACHE:
        return _OUTCOME_CACHE[key]
    today = evaluate_configuration(
        todays_gnutella(graph_size), trials=2, seed=0, max_sources=250
    )
    constraints = DesignConstraints(
        num_users=graph_size,
        desired_reach_peers=int(today.mean("reach_peers")),
        max_incoming_bps=100_000.0,
        max_outgoing_bps=100_000.0,
        max_processing_hz=10_000_000.0,
        max_connections=100,
        allow_redundancy=allow_redundancy,
    )
    outcome = design_topology(constraints, trials=2, seed=0, max_sources=250)
    _OUTCOME_CACHE[key] = (today, outcome)
    return today, outcome


def test_f10_design_procedure(benchmark, emit):
    graph_size = 20_000

    today, outcome = run_once(benchmark, lambda: run_walkthrough(graph_size))

    assert outcome.feasible
    config = outcome.config
    # The procedure must produce a clustered super-peer network within the
    # connection budget that attains today's reach.
    assert config.cluster_size > 1
    assert config.avg_outdegree + config.cluster_size - 1 <= 100
    assert outcome.summary.mean("reach_peers") >= 0.9 * today.mean("reach_peers")

    text = (
        f"users={graph_size}, desired reach={int(today.mean('reach_peers'))} peers\n"
        f"limits: 100 Kbps in/out, 10 MHz, 100 connections\n\n"
        + outcome.describe()
        + "\n\npaper's outcome at 20,000 users: cluster size 10, "
          "~18 super-peer neighbours, TTL 2"
    )
    emit("F10_design_procedure", text)
