"""F8 — Figure 8: expected results per query, binned by source outdegree.

Companion to Figure 7 on the same two systems (cluster size 20, average
outdegree 3.1 vs 10, TTL 7); the experiment itself is F7's
``repro.api`` outdegree sweep — this file is figure rendering only.
Paper shape: in the sparse system,
low-outdegree super-peers receive visibly fewer results (their TTL-7
flood misses part of the network), while in the outdegree-10 system
every super-peer collects (nearly) full results — the "gain" the sparse
system's light nodes enjoy costs them user satisfaction.
"""

from repro.reporting import render_table

from bench_f07_load_by_outdegree import get_results_histograms
from conftest import run_once


def test_f08_results_by_outdegree(benchmark, emit):
    graph_size = 10_000

    low_res, high_res = run_once(
        benchmark, lambda: get_results_histograms(graph_size)
    )

    blocks = []
    for label, stats in (("avg outdeg 3.1", low_res), ("avg outdeg 10.0", high_res)):
        rows = [
            [deg, f"{mean:.1f}", f"{std:.1f}", count]
            for deg, mean, std, count in stats.rows()
        ]
        blocks.append(render_table(
            ["outdegree", "mean results/query", "std", "#superpeers"],
            rows,
            title=f"Figure 8 histogram — {label}",
        ))

    low = {deg: mean for deg, mean, _, _ in low_res.rows()}
    high = {deg: mean for deg, mean, _, _ in high_res.rows()}
    low_degrees = sorted(low)
    # Sparse system: the lowest-degree sources see fewer results than the
    # well-connected ones.
    assert low[low_degrees[0]] < 0.98 * max(low.values())
    # Dense system: results are uniformly near the maximum.
    high_values = list(high.values())
    assert min(high_values) > 0.9 * max(high_values)
    # And the dense system's worst node beats the sparse system's worst.
    assert min(high_values) > low[low_degrees[0]]

    emit(
        "F8_results_by_outdegree",
        f"graph size {graph_size}, cluster size 20\n" + "\n\n".join(blocks),
    )
