"""A13 — Figure A-13: aggregate bandwidth vs cluster size at a low query rate.

Appendix C re-runs the Figure 4 sweep with the query rate cut 10x
(9.26e-4 instead of 9.26e-3) so the queries-to-joins ratio is ~1 instead
of ~10.  Paper shape: aggregate load still falls with cluster size but
less steeply (join savings don't scale like query savings), and
redundancy now costs visibly more (e.g. +14% at cluster 100 strong),
because redundancy doubles join cost while halving query load.
"""

from repro.reporting import render_series

from _sweeps import FULL_GRID, LOW_QUERY_RATE, four_system_sweep
from conftest import run_once


def test_a13_aggregate_low_query_rate(benchmark, emit):
    graph_size = 10_000
    grid = [s for s in FULL_GRID if s <= graph_size]

    low = run_once(benchmark, lambda: four_system_sweep(
        graph_size, grid, query_rate=LOW_QUERY_RATE
    ))
    normal = four_system_sweep(graph_size, grid)  # cached from F4 or computed

    blocks = []
    for label, points in low.items():
        xs = [size for size, _ in points]
        ys = [
            s.mean("aggregate_incoming_bps") + s.mean("aggregate_outgoing_bps")
            for _, s in points
        ]
        blocks.append(render_series(
            label, xs, ys,
            x_label="cluster size", y_label="aggregate bandwidth (bps), low query rate",
        ))

    # Shape 1: load still decreases with cluster size...
    strong_low = dict(low["strong"])
    first, last = 10, grid[-1]
    assert strong_low[first].mean("aggregate_incoming_bps") > \
        strong_low[last].mean("aggregate_incoming_bps")
    # ...but less steeply than at the normal rate.  Measured from cluster
    # size 10: below that, the super-peer join handshakes over thousands
    # of strong-overlay connections (a cost this model adds and the paper
    # omits) dominate both rates and drown the query-vs-join story.
    strong_norm = dict(normal["strong"])
    drop_low = strong_low[first].mean("aggregate_incoming_bps") / \
        strong_low[last].mean("aggregate_incoming_bps")
    drop_norm = strong_norm[first].mean("aggregate_incoming_bps") / \
        strong_norm[last].mean("aggregate_incoming_bps")
    assert drop_low < drop_norm

    # Shape 2: redundancy's aggregate premium grows when joins dominate.
    red_low = dict(low["strong+red"])
    red_norm = dict(normal["strong+red"])
    premium_low = red_low[100].mean("aggregate_incoming_bps") / \
        strong_low[100].mean("aggregate_incoming_bps") - 1
    premium_norm = red_norm[100].mean("aggregate_incoming_bps") / \
        strong_norm[100].mean("aggregate_incoming_bps") - 1
    assert premium_low > premium_norm

    emit(
        "A13_low_query_rate_aggregate",
        f"graph size {graph_size}, query rate {LOW_QUERY_RATE} (queries:joins ~1)\n"
        + "\n\n".join(blocks)
        + f"\nredundancy aggregate premium @cluster 100: "
          f"{premium_low:+.1%} at low rate vs {premium_norm:+.1%} at the "
          "default rate (paper: +14% vs +2.5%)",
    )
