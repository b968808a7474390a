"""AF — Appendix F: predicting a global TTL.

Two details the appendix documents:

1. setting TTL to (the floor of) the EPL under-reaches, because path
   lengths spread around their mean — e.g. outdegree 10 / desired reach
   500 has EPL ~3 but TTL 3 only realizes ~400;
2. ``log_d(reach)`` approximates the EPL without experiments (tree-exact,
   and within a fraction of a hop on the generated topologies).
"""

import math

from repro.core.epl import choose_ttl, epl_approximation, measure_epl, measure_reach
from repro.reporting import render_table
from repro.topology.plod import plod_graph

from conftest import run_once


def test_af_ttl_prediction(benchmark, emit):
    num_superpeers = 1000
    reach_targets = [r for r in (100, 200, 500) if r < num_superpeers]

    def experiment():
        graph = plod_graph(num_superpeers, 10.0, rng=1)
        rows = []
        for target in reach_targets:
            epl = measure_epl(graph, target, num_sources=48, rng=0)
            approx = epl_approximation(10.0, target)
            floor_reach = measure_reach(
                graph, max(1, math.floor(epl)), num_sources=48, rng=0
            )
            choice = choose_ttl(graph, target, num_sources=48, rng=0)
            rows.append((target, epl, approx, floor_reach, choice))
        return rows

    rows = run_once(benchmark, experiment)

    table_rows = []
    for target, epl, approx, floor_reach, choice in rows:
        table_rows.append([
            target, f"{epl:.2f}", f"{approx:.2f}",
            max(1, math.floor(epl)), f"{floor_reach:.0f}",
            choice.ttl, f"{choice.measured_reach:.0f}",
        ])
        # Detail 1: TTL = floor(EPL) under-reaches the target...
        if math.floor(epl) < choice.ttl:
            assert floor_reach < target
        # ...while the chosen TTL attains it.
        assert choice.measured_reach >= target
        # Detail 2: the closed form tracks the measurement.
        assert abs(approx - epl) < 0.6

    text = render_table(
        ["target reach", "measured EPL", "log_d approx",
         "TTL=floor(EPL)", "reach @floor", "chosen TTL", "reach @chosen"],
        table_rows,
        title=f"Appendix F — TTL prediction (outdegree 10, "
              f"{num_superpeers} super-peers)",
    )
    emit("AF_ttl_prediction", text)
