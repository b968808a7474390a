"""F9 — Figure 9: expected path length vs average outdegree, per reach.

EPL measured on power-law overlays of 1,000 super-peers (the paper's
default 10,000 peers / cluster size 10) for desired reaches of
{20, 50, 100, 200, 500, 1000} as the average outdegree sweeps 5..80.

Paper shape: EPL falls with outdegree, rises with reach, and flattens at
high outdegree (the rule #3 caveat: beyond the flat region more
neighbours no longer shorten paths; see A15).
"""

from repro.core.epl import measure_epl
from repro.reporting import render_table
from repro.topology.plod import plod_graph

from conftest import run_once

OUTDEGREES = [5, 10, 20, 40, 60, 80]
REACHES = [20, 50, 100, 200, 500, 1000]


def test_f09_epl_curves(benchmark, emit):
    num_superpeers = 1000
    reaches = [r for r in REACHES if r <= num_superpeers]

    def experiment():
        table = {}
        for d in OUTDEGREES:
            graph = plod_graph(num_superpeers, float(d), rng=d)
            for reach in reaches:
                table[(d, reach)] = measure_epl(
                    graph, reach, num_sources=48, rng=0
                )
        return table

    table = run_once(benchmark, experiment)

    rows = []
    for reach in reaches:
        rows.append([f"reach={reach}"] + [
            f"{table[(d, reach)]:.2f}" for d in OUTDEGREES
        ])
    text = render_table(
        ["series \\ outdegree"] + [str(d) for d in OUTDEGREES],
        rows,
        title=f"Figure 9 — EPL vs average outdegree ({num_superpeers} super-peers)",
    )

    # Shape contracts.
    for reach in reaches:
        series = [table[(d, reach)] for d in OUTDEGREES]
        # EPL non-increasing in outdegree (small tolerance for noise).
        assert all(a >= b - 0.08 for a, b in zip(series, series[1:])), reach
    for d in OUTDEGREES:
        series = [table[(d, r)] for r in reaches]
        # EPL non-decreasing in reach.
        assert all(a <= b + 0.08 for a, b in zip(series, series[1:])), d
    # Flattening: the 40 -> 80 improvement is much smaller than 5 -> 10.
    if 1000 in reaches:
        early = table[(5, 1000)] - table[(10, 1000)]
        late = table[(40, 1000)] - table[(80, 1000)]
        assert late < early

    emit("F9_epl", text)
