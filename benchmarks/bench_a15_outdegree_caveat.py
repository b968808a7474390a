"""A15 — Figure A-15: the caveat to rule #3 — outdegree can be too large.

With TTL 2 and the desired reach set to every super-peer, average
outdegree 50 already flattens the EPL; outdegree 100 cannot shorten
paths any further and only multiplies redundant queries.  Paper shape:
for every cluster size plotted, the outdegree-50 system's individual
outgoing bandwidth beats the outdegree-100 system's.
"""

from repro.config import Configuration
from repro.core.analysis import evaluate_configuration
from repro.reporting import render_series

from conftest import run_once

CLUSTER_SIZES = [20, 40, 60, 80, 100]


def test_a15_outdegree_caveat(benchmark, emit):
    graph_size = 10_000

    def experiment():
        curves = {}
        for outdeg in (50.0, 100.0):
            points = []
            for size in CLUSTER_SIZES:
                num_clusters = graph_size // size
                if outdeg >= num_clusters:
                    continue
                config = Configuration(
                    graph_size=graph_size,
                    cluster_size=size,
                    avg_outdegree=outdeg,
                    ttl=2,
                )
                summary = evaluate_configuration(
                    config, trials=2, seed=0, max_sources=150
                )
                points.append((size, summary))
            curves[outdeg] = points
        return curves

    curves = run_once(benchmark, experiment)

    blocks = []
    for outdeg, points in curves.items():
        xs = [size for size, _ in points]
        ys = [s.mean("superpeer_outgoing_bps") for _, s in points]
        blocks.append(render_series(
            f"avg outdegree {outdeg:.0f}", xs, ys,
            x_label="cluster size", y_label="individual outgoing bandwidth (bps)",
        ))

    fifty = dict(curves[50.0])
    hundred = dict(curves[100.0])
    shared = sorted(set(fifty) & set(hundred))
    assert shared, "need overlapping cluster sizes to compare"
    worse = 0
    for size in shared:
        a = fifty[size].mean("superpeer_outgoing_bps")
        b = hundred[size].mean("superpeer_outgoing_bps")
        if b > a:
            worse += 1
        # Reach is full for both, so the extra outdegree buys nothing.
        assert hundred[size].mean("results_per_query") <= \
            1.05 * fifty[size].mean("results_per_query")
    # Outdegree 100 loses at (essentially) every cluster size.
    assert worse >= len(shared) - 1

    emit(
        "A15_outdegree_caveat",
        f"graph size {graph_size}, TTL 2, full desired reach\n"
        + "\n\n".join(blocks)
        + f"\noutdegree 100 worse at {worse}/{len(shared)} cluster sizes "
          "(paper: all)",
    )
