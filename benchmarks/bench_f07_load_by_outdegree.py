"""F7 — Figure 7: per-super-peer outgoing bandwidth, binned by outdegree.

Two power-law systems with cluster size 20 (10,000 peers, 500
super-peers): suggested average outdegree 3.1 vs 10.  Histogram bars are
the mean load of the super-peers at each observed outdegree, with one
standard deviation (the figures use std-dev bars, not CIs).

Paper shape: low-degree nodes of the 3.1 system are the only ones
cheaper than the 10 system, the 3.1 system's hubs carry extreme load,
and the 10 system's loads sit in a moderate band ("more fair").
"""

import numpy as np

from repro.api import SweepSpec, run_sweep
from repro.config import Configuration
from repro.reporting import render_table
from repro.stats.histogram import group_by

from _sweeps import sweep_jobs
from conftest import run_once


def _histograms(graph_size: int):
    """Both systems' (load, results) histograms via one outdegree sweep."""
    spec = SweepSpec(
        name="f07",
        base=Configuration(graph_size=graph_size, cluster_size=20, ttl=7),
        grid={"avg_outdegree": (3.1, 10.0)},
        trials=2,
        seed=0,
        max_sources=None,
        keep_reports=True,
    )
    sweep = run_sweep(spec, jobs=sweep_jobs())
    out = []
    for point in sweep:
        summary = point.summary
        degrees = np.concatenate([
            r.instance.graph.degrees for r in summary.reports
        ])
        loads = np.concatenate([
            r.superpeer_outgoing_bps for r in summary.reports
        ])
        results = np.concatenate([
            np.nan_to_num(r.results_per_query) for r in summary.reports
        ])
        out.append((group_by(degrees, loads), group_by(degrees, results)))
    return tuple(out)


def test_f07_outgoing_bandwidth_by_outdegree(benchmark, emit):
    graph_size = 10_000

    def experiment():
        return _histograms(graph_size)

    (low_load, low_res), (high_load, high_res) = run_once(benchmark, experiment)

    blocks = []
    for label, stats in (("avg outdeg 3.1", low_load), ("avg outdeg 10.0", high_load)):
        rows = [
            [deg, f"{mean:.3e}", f"{std:.2e}", count]
            for deg, mean, std, count in stats.rows()
        ]
        blocks.append(render_table(
            ["outdegree", "mean outgoing bps", "std", "#superpeers"],
            rows,
            title=f"Figure 7 histogram — {label}",
        ))

    # Shape contracts.
    low = {deg: mean for deg, mean, _, _ in low_load.rows()}
    high = {deg: mean for deg, mean, _, _ in high_load.rows()}
    # The 3.1 system's hubs (top outdegree) carry far more than its
    # low-degree nodes...
    low_degrees = sorted(low)
    assert low[low_degrees[-1]] > 3 * low[low_degrees[0]]
    # ...and more than the high system's heaviest nodes relative to its
    # own lightest (the 10 system is "more fair").
    high_degrees = sorted(high)
    low_spread = low[low_degrees[-1]] / low[low_degrees[0]]
    high_spread = high[high_degrees[-1]] / high[high_degrees[0]]
    assert high_spread < low_spread

    emit("F7_load_by_outdegree", f"graph size {graph_size}, cluster size 20\n"
         + "\n\n".join(blocks)
         + f"\nload spread max/min: outdeg3.1 = {low_spread:.1f}x, "
           f"outdeg10 = {high_spread:.1f}x (rule #3: higher outdegree is fairer)")

    # Stash for F8 (same experiment, results statistic) via module cache.
    global _CACHED_RESULTS
    _CACHED_RESULTS = (graph_size, low_res, high_res)


_CACHED_RESULTS = None


def get_results_histograms(graph_size: int):
    """Reuse F7's computation for F8 when it already ran this session."""
    if _CACHED_RESULTS is not None and _CACHED_RESULTS[0] == graph_size:
        return _CACHED_RESULTS[1], _CACHED_RESULTS[2]
    (_, low_res), (_, high_res) = _histograms(graph_size)
    return low_res, high_res
