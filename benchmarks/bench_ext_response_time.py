"""EXT-RT — extension: response times of today's topology vs the redesign.

The paper stops at "the average response time in the new topology is
probably much better than in the old, because EPL is much shorter"
(Section 5.2).  This bench puts seconds on it: per-hop latencies are
sampled from a wide-area model (~80 ms median per hop) and queries'
result-arrival distributions measured on both topologies.
"""

from repro.config import Configuration
from repro.reporting import render_table
from repro.sim.latency import measure_response_times
from repro.topology.builder import build_instance

from conftest import run_once


def test_ext_response_times(benchmark, emit):
    graph_size = 20_000 // 5
    today_cfg = Configuration(
        graph_size=graph_size, cluster_size=1, avg_outdegree=3.1, ttl=7
    )
    new_cfg = Configuration(
        graph_size=graph_size, cluster_size=10, avg_outdegree=18.0, ttl=2
    )

    def experiment():
        today = measure_response_times(
            build_instance(today_cfg, seed=0), num_queries=16, rng=0
        )
        new = measure_response_times(
            build_instance(new_cfg, seed=0), num_queries=16, rng=0
        )
        return today, new

    today, new = run_once(benchmark, experiment)

    rows = []
    for (label, t_val), (_, n_val) in zip(today.as_rows(), new.as_rows()):
        rows.append([label, f"{t_val:.3f}", f"{n_val:.3f}",
                     f"{t_val / n_val:.1f}x" if n_val > 0 else "-"])
    rows.append(["mean response EPL (hops)", f"{today.mean_epl:.2f}",
                 f"{new.mean_epl:.2f}", ""])

    # The redesign answers decisively faster, tracking its shorter EPL.
    assert new.mean_epl < today.mean_epl
    assert new.median_result_mean < 0.6 * today.median_result_mean

    emit("EXT_response_time", render_table(
        ["statistic (seconds)", "today (outdeg 3.1, TTL 7)",
         "new design (cluster 10, TTL 2)", "speedup"],
        rows,
        title=f"response times, ~80 ms/hop median latency ({graph_size} peers)",
    ))
