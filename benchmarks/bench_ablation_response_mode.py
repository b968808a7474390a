"""ABL-RESP — ablation: reverse-path vs direct Response transfer.

Section 3.1 weighs the two ways a Response can reach the query source:
forwarded along the query's reverse path (the paper's model — more
aggregate bandwidth, no connection storms, source anonymity) or shipped
directly over a temporary connection.  The ablation quantifies the
paper's qualitative statement: "the first method uses more aggregate
bandwidth than the second, [but] it will not bombard the source with
connection requests."
"""

from repro.config import Configuration
from repro.core.load import evaluate_instance
from repro.reporting import render_table
from repro.topology.builder import build_instance

from conftest import run_once


def test_ablation_response_mode(benchmark, emit):
    graph_size = 10_000
    config = Configuration(
        graph_size=graph_size, cluster_size=10, avg_outdegree=4.0, ttl=5
    )
    instance = build_instance(config, seed=1)

    def experiment():
        reverse = evaluate_instance(instance, max_sources=200, rng=0)
        direct = evaluate_instance(
            instance, max_sources=200, rng=0, response_mode="direct"
        )
        return reverse, direct

    reverse, direct = run_once(benchmark, experiment)

    rows = []
    for label, report in (("reverse-path (paper)", reverse), ("direct", direct)):
        agg = report.aggregate_load()
        rows.append([
            label,
            f"{agg.total_bandwidth_bps:.3e}",
            f"{agg.processing_hz:.3e}",
            f"{report.mean_epl():.2f}",
            f"{report.mean_results_per_query():.0f}",
        ])

    # The paper's tradeoff, quantified.
    assert (
        reverse.aggregate_load().total_bandwidth_bps
        > direct.aggregate_load().total_bandwidth_bps
    ), "reverse-path should cost more aggregate bandwidth"
    # Results are identical: routing does not change what is found.
    assert abs(
        reverse.mean_results_per_query() - direct.mean_results_per_query()
    ) < 1e-6
    ratio = (
        reverse.aggregate_load().total_bandwidth_bps
        / direct.aggregate_load().total_bandwidth_bps
    )

    emit("ABL_response_mode", render_table(
        ["response mode", "aggregate bw (bps)", "aggregate proc (Hz)",
         "EPL", "results"],
        rows,
        title=f"Section 3.1 response-transfer ablation ({graph_size} peers)",
    ) + f"\nreverse-path / direct aggregate bandwidth: {ratio:.2f}x")
