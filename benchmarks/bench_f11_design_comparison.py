"""F11 — Figure 11: aggregate loads of today's Gnutella vs the new design.

The paper's table: today's topology (20,000 peers, outdegree 3.1, TTL 7)
against the procedure's design, with and without redundancy.  Paper
numbers: >79% improvement in every aggregate resource, equal results
(269 vs 270), EPL 6.5 -> 1.9.
"""

from repro.core.analysis import evaluate_configuration
from repro.reporting import render_table

from bench_f10_design_procedure import run_walkthrough
from conftest import run_once


def test_f11_aggregate_comparison(benchmark, emit):
    graph_size = 20_000

    def experiment():
        today, outcome = run_walkthrough(graph_size)
        rows = {"today": today, "new": outcome.summary}
        if outcome.config.cluster_size >= 4:
            rows["new w/ redundancy"] = evaluate_configuration(
                outcome.config.with_changes(redundancy=True),
                trials=2, seed=0, max_sources=250,
            )
        return rows

    rows = run_once(benchmark, experiment)

    table = render_table(
        ["topology", "incoming bps", "outgoing bps", "processing Hz",
         "results", "EPL"],
        [
            [
                label,
                f"{s.mean('aggregate_incoming_bps'):.3e}",
                f"{s.mean('aggregate_outgoing_bps'):.3e}",
                f"{s.mean('aggregate_processing_hz'):.3e}",
                f"{s.mean('results_per_query'):.0f}",
                f"{s.mean('epl'):.1f}",
            ]
            for label, s in rows.items()
        ],
        title="Figure 11 — aggregate load comparison",
    )

    today, new = rows["today"], rows["new"]
    improvements = {
        metric: 1 - new.mean(f"aggregate_{metric}") / today.mean(f"aggregate_{metric}")
        for metric in ("incoming_bps", "outgoing_bps", "processing_hz")
    }
    # Paper: >79% improvement everywhere; require a decisive win.
    for metric, improvement in improvements.items():
        assert improvement > 0.4, f"{metric}: only {improvement:.0%}"
    # Result quality preserved.
    assert new.mean("results_per_query") > 0.7 * today.mean("results_per_query")
    # EPL much shorter (paper: 6.5 -> 1.9).
    assert new.mean("epl") < 0.6 * today.mean("epl")

    summary_lines = [
        f"aggregate {m}: {v:+.0%} improvement (paper: >79%)"
        for m, v in improvements.items()
    ]
    emit("F11_design_comparison", table + "\n" + "\n".join(summary_lines))
