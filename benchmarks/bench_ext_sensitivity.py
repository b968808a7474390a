"""EXT-SENS — extension: elasticities of the calibrated inputs.

The reproduction's synthetic substitutions (query model, file counts,
session lengths) carry calibration uncertainty.  This bench reports
d log(metric) / d log(parameter) for each input at a 2x probe spread —
showing which conclusions are calibration-proof (update rate: elasticity
~0, the paper's own remark) and which scale predictably (query rate:
~1; result volume: Eq. 5's exact linearity).
"""

from repro.config import Configuration
from repro.core.sensitivity import (
    METRICS,
    elasticity_table,
    sensitivity_analysis,
)
from repro.reporting import render_table

from conftest import run_once


def test_ext_sensitivity(benchmark, emit):
    graph_size = 10_000 // 5
    config = Configuration(
        graph_size=graph_size, cluster_size=10, avg_outdegree=4.0, ttl=5
    )

    elasticities = run_once(
        benchmark, lambda: sensitivity_analysis(config, max_sources=150)
    )
    table = elasticity_table(elasticities)

    rows = [
        [param] + [f"{table[param][metric]:+.2f}" for metric in METRICS]
        for param in table
    ]

    # The load-bearing contracts.
    assert abs(table["update_rate"]["aggregate_bandwidth"]) < 0.1
    assert table["query_rate"]["superpeer_bandwidth"] == \
        __import__("pytest").approx(1.0, abs=0.2)
    assert table["mean_files"]["results_per_query"] == \
        __import__("pytest").approx(1.0, abs=0.1)

    emit("EXT_sensitivity", render_table(
        ["parameter (2x probes)"] + list(METRICS),
        rows,
        title=f"elasticities d log(metric)/d log(parameter) ({graph_size} peers)",
    ))
