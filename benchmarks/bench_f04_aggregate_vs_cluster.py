"""F4 — Figure 4: aggregate bandwidth vs cluster size.

Four systems — strongly connected (TTL 1) and power-law outdegree 3.1
(TTL 7), each with and without super-peer redundancy — over cluster
sizes up to the whole network.  The paper's shape: aggregate load drops
dramatically as clusters grow, with a knee (~200 strong, ~1000 power),
and redundancy barely moves the curves.
"""

import numpy as np

from repro.core.rules import find_knee
from repro.reporting import render_series

from _sweeps import FULL_GRID, four_system_sweep
from conftest import run_once


def test_f04_aggregate_bandwidth_vs_cluster_size(benchmark, emit):
    graph_size = 10_000
    grid = [s for s in FULL_GRID if s <= graph_size] + (
        [graph_size] if graph_size not in FULL_GRID else []
    )

    sweep = run_once(
        benchmark, lambda: four_system_sweep(graph_size, grid)
    )

    blocks = []
    for label, points in sweep.items():
        xs = [size for size, _ in points]
        ys = [
            summary.mean("aggregate_incoming_bps")
            + summary.mean("aggregate_outgoing_bps")
            for _, summary in points
        ]
        errs = [
            summary.ci("aggregate_incoming_bps").half_width
            + summary.ci("aggregate_outgoing_bps").half_width
            for _, summary in points
        ]
        blocks.append(render_series(
            label, xs, ys, errors=errs,
            x_label="cluster size", y_label="aggregate bandwidth in+out (bps)",
        ))
        # Paper shape contract: aggregate decreases from the small-cluster
        # end to the large-cluster end by a wide margin.
        assert ys[0] > 2 * ys[-1], f"{label}: no dramatic decrease"

    # Knee locations (paper: ~200 strong, ~1000 power-law).
    knees = []
    for label, points in sweep.items():
        xs = np.array([size for size, _ in points], dtype=float)
        ys = np.array([
            p.mean("aggregate_incoming_bps") + p.mean("aggregate_outgoing_bps")
            for _, p in points
        ])
        knees.append(f"knee({label}) ~ cluster size {find_knee(xs, ys):.0f}")

    # Redundancy barely affects aggregate bandwidth (rule #2).  Below
    # cluster size ~10 the k^2 inter-super-peer connections of a complete
    # overlay dominate the join handshakes, a corner the paper does not
    # plot, so the neutrality claim is asserted for moderate clusters.
    plain = dict(sweep["strong"])
    red = dict(sweep["strong+red"])
    shared = sorted(size for size in set(plain) & set(red) if size >= 10)
    for size in shared:
        a = plain[size].mean("aggregate_incoming_bps")
        b = red[size].mean("aggregate_incoming_bps")
        assert abs(b / a - 1.0) < 0.25

    emit(
        "F4_aggregate_vs_cluster",
        f"graph size {graph_size}\n" + "\n\n".join(blocks) + "\n" + "\n".join(knees),
    )
