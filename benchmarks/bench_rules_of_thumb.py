"""R1-R4 — Section 5.1: the quantitative claims behind the rules of thumb.

One bench per rule, pinning the paper's quoted numbers:

* R2: at cluster size 100 (strong), redundancy costs ~+2.5% aggregate
  bandwidth, saves ~48% individual bandwidth, +17% aggregate processing,
  -41% individual processing, and beats the half-cluster alternative.
* R3: a lone super-peer raising its outdegree 4 -> 9 suffers a ~+303%
  load increase, while the same increase taken uniformly lowers loads.
* R4: TTL 4 -> 3 at outdegree 20 (full reach either way) saves ~19%
  aggregate incoming bandwidth.
"""

from repro.config import Configuration, GraphType
from repro.core.redundancy import compare_redundancy
from repro.core.rules import lone_increaser_penalty, ttl_savings
from repro.reporting import render_table

from conftest import run_once


def test_r2_redundancy_numbers(benchmark, emit):
    graph_size = 10_000
    config = Configuration(
        graph_type=GraphType.STRONG, graph_size=graph_size, cluster_size=100, ttl=1
    )

    comparison = run_once(benchmark, lambda: compare_redundancy(
        config, trials=3, seed=0, max_sources=None
    ))

    rows = [
        ["aggregate bandwidth", f"{comparison.aggregate_delta('incoming_bps'):+.1%}", "+2.5%"],
        ["individual bandwidth", f"{comparison.individual_delta('incoming_bps'):+.1%}", "-48%"],
        ["aggregate processing", f"{comparison.aggregate_delta('processing_hz'):+.1%}", "+17%"],
        ["individual processing", f"{comparison.individual_delta('processing_hz'):+.1%}", "-41%"],
        ["vs half-size clusters (indiv. bw)",
         f"{comparison.redundant_vs_half_clusters('incoming_bps'):+.1%}", "< 0 (wins)"],
    ]
    assert -0.58 < comparison.individual_delta("incoming_bps") < -0.38
    assert comparison.aggregate_delta("incoming_bps") < 0.10
    assert comparison.aggregate_delta("processing_hz") > 0.0
    assert comparison.individual_delta("processing_hz") < -0.25
    assert comparison.redundant_vs_half_clusters("incoming_bps") < 0.05

    emit("R2_redundancy", render_table(
        ["redundancy effect (cluster 100, strong)", "measured", "paper"],
        rows,
    ))


def test_r3_lone_increaser(benchmark, emit):
    graph_size = 10_000
    config = Configuration(
        graph_size=graph_size, cluster_size=10, avg_outdegree=3.1, ttl=7
    )

    result = run_once(benchmark, lambda: lone_increaser_penalty(
        config, from_degree=4, to_degree=9, seed=0, max_sources=300
    ))

    assert result.relative_increase > 0.5
    emit("R3_lone_increaser", (
        f"one super-peer raising outdegree 4 -> 9 alone:\n"
        f"  outgoing bandwidth {result.before_bps:.3e} -> {result.after_bps:.3e} bps "
        f"({result.relative_increase:+.0%}; paper: +303%)\n"
        f"(rule #3: increasing outdegree must be a uniform decision)"
    ))


def test_r4_ttl_savings(benchmark, emit):
    graph_size = 10_000
    base = Configuration(graph_size=graph_size, cluster_size=10, avg_outdegree=20.0)

    savings = run_once(benchmark, lambda: ttl_savings(
        base, high_ttl=4, low_ttl=3, trials=2, seed=0, max_sources=250
    ))

    assert savings.reach_preserved(tolerance=0.02)
    assert savings.incoming_saving() > 0.08
    emit("R4_ttl_savings", (
        f"outdegree 20, full reach at TTL 3 and 4:\n"
        f"  aggregate incoming at TTL 4: "
        f"{savings.high_ttl_summary.mean('aggregate_incoming_bps'):.3e} bps\n"
        f"  aggregate incoming at TTL 3: "
        f"{savings.low_ttl_summary.mean('aggregate_incoming_bps'):.3e} bps\n"
        f"  saving: {savings.incoming_saving():.0%} (paper: 19%)"
    ))
