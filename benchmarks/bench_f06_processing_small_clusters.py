"""F6 — Figure 6: individual processing load at small cluster sizes.

The connection-overhead exception to rule #1: in a strongly connected
overlay, shrinking clusters multiplies super-peers and therefore open
connections (cluster size + n_superpeers - 1 of them), so the
packet-multiplex overhead makes individual processing load *rise* again
as cluster size approaches 1 — a U-shaped curve over 0..300.
"""

import numpy as np

from repro.reporting import render_series

from _sweeps import SMALL_GRID, four_system_sweep
from conftest import run_once


def test_f06_individual_processing_small_clusters(benchmark, emit):
    graph_size = 10_000
    grid = [s for s in SMALL_GRID if s <= graph_size]

    sweep = run_once(benchmark, lambda: four_system_sweep(graph_size, grid))

    blocks = []
    for label, points in sweep.items():
        xs = [size for size, _ in points]
        ys = [s.mean("superpeer_processing_hz") for _, s in points]
        errs = [s.ci("superpeer_processing_hz").half_width for _, s in points]
        blocks.append(render_series(
            label, xs, ys, errors=errs,
            x_label="cluster size", y_label="individual processing load (Hz)",
        ))

    # The U shape on the strong system: the smallest cluster pays more
    # than the interior minimum, and the largest grid point pays more too.
    strong = dict(sweep["strong"])
    ys = np.array([strong[s].mean("superpeer_processing_hz") for s in grid])
    interior_min = ys[1:-1].min()
    assert ys[0] > interior_min, "no connection-overhead rise at tiny clusters"
    assert ys[-1] > interior_min, "no query-volume rise at large clusters"

    emit(
        "F6_processing_small_clusters",
        f"graph size {graph_size}\n" + "\n\n".join(blocks)
        + f"\nstrong-system minimum at cluster size "
        f"{grid[int(np.argmin(ys))]}",
    )
