"""A14 — Figure A-14: individual incoming bandwidth at the low query rate.

Companion to A13 (queries:joins ~ 1).  Paper shapes: with joins
dominating, individual incoming load now reaches its maximum at
cluster size = graph size (the lone super-peer absorbs every join's
metadata, and joins — unlike query results — have no f(1-f) cancellation),
and redundancy's individual-load relief is weaker than at the default
rate (~-30% instead of ~-48% at cluster 100 strong) because each partner
still receives every client's full join stream.
"""

from repro.reporting import render_series

from _sweeps import FULL_GRID, LOW_QUERY_RATE, four_system_sweep
from conftest import run_once


def test_a14_individual_low_query_rate(benchmark, emit):
    graph_size = 10_000
    grid = [s for s in FULL_GRID if s <= graph_size]

    low = run_once(benchmark, lambda: four_system_sweep(
        graph_size, grid, query_rate=LOW_QUERY_RATE
    ))
    normal = four_system_sweep(graph_size, grid)

    blocks = []
    for label, points in low.items():
        xs = [size for size, _ in points]
        ys = [s.mean("superpeer_incoming_bps") for _, s in points]
        blocks.append(render_series(
            label, xs, ys,
            x_label="cluster size",
            y_label="individual incoming bandwidth (bps), low query rate",
        ))

    strong_low = dict(low["strong"])
    # Shape 1: the maximum now sits at cluster size = graph size.
    values = {size: strong_low[size].mean("superpeer_incoming_bps")
              for size in grid}
    assert values[graph_size] == max(values.values())

    # Shape 2: redundancy helps less than at the default query rate.
    red_low = dict(low["strong+red"])
    relief_low = 1 - red_low[100].mean("superpeer_incoming_bps") / \
        strong_low[100].mean("superpeer_incoming_bps")
    strong_norm = dict(normal["strong"])
    red_norm = dict(normal["strong+red"])
    relief_norm = 1 - red_norm[100].mean("superpeer_incoming_bps") / \
        strong_norm[100].mean("superpeer_incoming_bps")
    assert relief_low < relief_norm
    assert relief_low > 0.05  # still a real improvement (paper: ~30%)

    emit(
        "A14_low_query_rate_individual",
        f"graph size {graph_size}, query rate {LOW_QUERY_RATE}\n"
        + "\n\n".join(blocks)
        + f"\nredundancy individual relief @cluster 100: {relief_low:.0%} at "
          f"low rate vs {relief_norm:.0%} at default (paper: ~30% vs ~48%)",
    )
