"""TD2 — Appendix D Table 2: aggregate load at outdegree 3.1 vs 10.

Both topologies: 10,000 peers, cluster size 100, TTL 7.  Paper numbers:
incoming 3.51e8 -> 2.67e8 bps (a >31% improvement counting high/low),
outgoing similar, processing roughly unchanged.
"""

from repro.config import Configuration
from repro.core.rules import uniform_outdegree_gain
from repro.reporting import render_table

from conftest import run_once


def test_appendix_d_outdegree_aggregate(benchmark, emit):
    graph_size = 10_000
    base = Configuration(graph_size=graph_size, cluster_size=100, ttl=7)

    tradeoff = run_once(benchmark, lambda: uniform_outdegree_gain(
        base, low_outdegree=3.1, high_outdegree=10.0,
        trials=2, seed=0, max_sources=None,
    ))

    low, high = tradeoff.low_summary, tradeoff.high_summary
    table = render_table(
        ["avg outdegree", "incoming bps", "outgoing bps", "processing Hz"],
        [
            ["3.1",
             f"{low.mean('aggregate_incoming_bps'):.3e}",
             f"{low.mean('aggregate_outgoing_bps'):.3e}",
             f"{low.mean('aggregate_processing_hz'):.3e}"],
            ["10.0",
             f"{high.mean('aggregate_incoming_bps'):.3e}",
             f"{high.mean('aggregate_outgoing_bps'):.3e}",
             f"{high.mean('aggregate_processing_hz'):.3e}"],
        ],
        title="Appendix D — aggregate load, outdegree 3.1 vs 10 (cluster 100)",
    )

    gain = tradeoff.aggregate_bandwidth_gain()
    assert gain > 0.05, f"no bandwidth win from higher outdegree: {gain:.0%}"
    low_epl, high_epl = tradeoff.epl_drop()
    assert high_epl < low_epl

    emit(
        "TD2_outdegree_aggregate",
        table + f"\nbandwidth saving: {gain:.0%} (paper: ~24%, quoted as "
        f">31% improvement)\nEPL: {low_epl:.2f} -> {high_epl:.2f}",
    )
