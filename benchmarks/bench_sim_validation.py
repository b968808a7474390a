"""SIM — extension: the event-driven simulator validates the analysis.

Not a paper figure: the paper's results all come from mean-value
analysis.  This bench runs the independent message-level simulator on
the same instance and reports the relative error of every mean
super-peer load — the reproduction's internal consistency check.
"""

from repro.config import Configuration
from repro.core.load import evaluate_instance
from repro.reporting import render_table
from repro.sim.network import simulate_instance
from repro.topology.builder import build_instance

from conftest import run_once


def test_sim_validates_mva(benchmark, emit):
    graph_size = 2_000
    config = Configuration(
        graph_size=graph_size, cluster_size=10, avg_outdegree=4.0, ttl=4
    )
    instance = build_instance(config, seed=3)

    def experiment():
        mva = evaluate_instance(instance, components=("query", "update"))
        sim = simulate_instance(
            instance, duration=4_000.0, rng=7, enable_churn=False
        )
        return mva, sim

    mva, sim = run_once(benchmark, experiment)
    errors = sim.relative_error_vs(mva)

    rows = []
    mva_sp = mva.mean_superpeer_load()
    sim_in, sim_out, sim_proc = sim.mean_superpeer_load()
    for name, mva_value, sim_value in (
        ("incoming bps", mva_sp.incoming_bps, sim_in),
        ("outgoing bps", mva_sp.outgoing_bps, sim_out),
        ("processing Hz", mva_sp.processing_hz, sim_proc),
    ):
        rows.append([name, f"{mva_value:.4e}", f"{sim_value:.4e}",
                     f"{sim_value / mva_value - 1:+.2%}"])
    rows.append(["results/query", f"{mva.mean_results_per_query():.1f}",
                 f"{sim.mean_results_per_query:.1f}", ""])

    for resource, err in errors.items():
        assert abs(err) < 0.05, f"{resource}: {err:+.3f}"

    emit("SIM_validation", render_table(
        ["mean super-peer statistic", "mean-value analysis",
         f"simulator ({sim.num_queries} queries)", "relative error"],
        rows,
        title=f"simulator vs analysis, {graph_size} peers",
    ))
