"""F5 — Figure 5: individual super-peer incoming bandwidth vs cluster size.

Same four systems as Figure 4.  The paper's shape: individual load grows
rapidly with cluster size; redundancy roughly halves it; and the one
exception — incoming bandwidth peaks near a cluster holding half the
network (f(1-f) in the fraction f of users served) and *drops* at a
single all-encompassing cluster.
"""

from repro.reporting import render_series

from _sweeps import FULL_GRID, four_system_sweep
from conftest import run_once


def test_f05_individual_incoming_vs_cluster_size(benchmark, emit):
    graph_size = 10_000
    grid = [s for s in FULL_GRID if s <= graph_size] + (
        [graph_size] if graph_size not in FULL_GRID else []
    )

    sweep = run_once(benchmark, lambda: four_system_sweep(graph_size, grid))

    blocks = []
    for label, points in sweep.items():
        xs = [size for size, _ in points]
        ys = [s.mean("superpeer_incoming_bps") for _, s in points]
        errs = [s.ci("superpeer_incoming_bps").half_width for _, s in points]
        blocks.append(render_series(
            label, xs, ys, errors=errs,
            x_label="cluster size", y_label="individual incoming bandwidth (bps)",
        ))

    strong = dict(sweep["strong"])
    # Growth over the small/medium range (rule #1 second half).
    assert strong[100].mean("superpeer_incoming_bps") > \
        strong[10].mean("superpeer_incoming_bps")
    # The f(1-f) exception: half-network cluster beats the single cluster.
    half = graph_size // 2
    if half in strong and graph_size in strong:
        assert strong[graph_size].mean("superpeer_incoming_bps") < \
            strong[half].mean("superpeer_incoming_bps")
    # Redundancy roughly halves individual load at matched cluster size.
    red = dict(sweep["strong+red"])
    ratio = red[100].mean("superpeer_incoming_bps") / \
        strong[100].mean("superpeer_incoming_bps")
    assert 0.4 < ratio < 0.7

    emit(
        "F5_individual_vs_cluster",
        f"graph size {graph_size}\n" + "\n\n".join(blocks)
        + f"\nredundancy individual ratio @100: {ratio:.2f} (paper: ~0.52)",
    )
