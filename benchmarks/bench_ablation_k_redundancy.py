"""ABL-K — ablation: k-redundancy beyond k = 2.

The paper confines itself to k = 2 "because the number of open
connections increases so quickly as k increases" (k^2 per overlay edge).
This ablation sweeps k in {1, 2, 3, 4} on the strong cluster-100 system
and shows the full tradeoff surface: per-partner load keeps falling
roughly as 1/k, aggregate processing and connection counts keep rising,
and availability gains grow as U^k — diminishing returns against k^2
connection cost, vindicating the paper's k = 2 choice.
"""

from repro.config import Configuration, GraphType
from repro.core.analysis import evaluate_configuration
from repro.core.redundancy import (
    interconnections_per_edge,
    virtual_superpeer_availability,
)
from repro.reporting import render_table

from conftest import run_once


def test_ablation_k_redundancy(benchmark, emit):
    graph_size = 10_000
    ks = [1, 2, 3, 4]

    def experiment():
        summaries = {}
        for k in ks:
            config = Configuration(
                graph_type=GraphType.STRONG,
                graph_size=graph_size,
                cluster_size=100,
                ttl=1,
                redundancy=k > 1,
                redundancy_factor=max(k, 2),
            )
            summaries[k] = evaluate_configuration(
                config, trials=2, seed=0, max_sources=None
            )
        return summaries

    summaries = run_once(benchmark, experiment)

    rows = []
    base = summaries[1]
    for k in ks:
        s = summaries[k]
        rows.append([
            k,
            f"{s.mean('superpeer_incoming_bps'):.3e}",
            f"{s.mean('aggregate_incoming_bps') / base.mean('aggregate_incoming_bps') - 1:+.1%}",
            f"{s.mean('aggregate_processing_hz') / base.mean('aggregate_processing_hz') - 1:+.1%}",
            interconnections_per_edge(k),
            f"{1 - virtual_superpeer_availability(k, 1080.0, 120.0):.2e}",
        ])

    # Per-partner load falls monotonically with k...
    individuals = [summaries[k].mean("superpeer_incoming_bps") for k in ks]
    assert all(a > b for a, b in zip(individuals, individuals[1:]))
    # ...while aggregate processing rises monotonically.
    procs = [summaries[k].mean("aggregate_processing_hz") for k in ks]
    assert all(a < b for a, b in zip(procs, procs[1:]))

    emit("ABL_k_redundancy", render_table(
        ["k", "individual in-bw (bps)", "aggregate bw delta",
         "aggregate proc delta", "connections/edge", "unavailability"],
        rows,
        title=f"k-redundancy sweep (strong, cluster 100, {graph_size} peers)",
    ))
