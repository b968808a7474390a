"""F12 — Figure 12: per-node outgoing bandwidth, ranked, three topologies.

Every node's (super-peers' and clients') outgoing-bandwidth load, sorted
in decreasing order, for today's Gnutella, the new design, and the new
design with redundancy.  Paper shape: the bottom ~90% of the new
topologies (the clients) sit one to two orders of magnitude below
today's peers, and the top loads improve from ~40% at the "neck" to an
order of magnitude for the top 0.1%.

Ranked per-node loads need exact (all-sources) evaluation, and the
comparison is only meaningful at the paper's 20,000-peer scale (today's
TTL-7 reach is an absolute ~3,000-4,000 peers, so at smaller networks it
becomes a near-full-reach scenario the paper never plots); this is the
slowest bench (~2 minutes at full scale).
"""

import numpy as np

from repro.config import Configuration
from repro.core.load import evaluate_instance
from repro.reporting import render_table
from repro.topology.builder import build_instance

from bench_f10_design_procedure import run_walkthrough
from conftest import run_once


def _ranked_loads(config: Configuration, seed: int = 0) -> np.ndarray:
    report = evaluate_instance(build_instance(config, seed=seed))
    loads = report.all_node_loads("outgoing")
    return np.sort(loads)[::-1]


def test_f12_rank_plot(benchmark, emit):
    graph_size = 20_000

    def experiment():
        # Derive the "new" topology with the design procedure at this
        # scale (the walkthrough matches today's measured reach), then
        # rank every node's exact per-node load in single representative
        # instances of the three topologies.
        _, outcome = run_walkthrough(graph_size)
        design = outcome.config
        today = _ranked_loads(Configuration(
            graph_size=graph_size, cluster_size=1, avg_outdegree=3.1, ttl=7
        ))
        new = _ranked_loads(design)
        red_config = (
            design.with_changes(redundancy=True)
            if design.cluster_size >= 4 else design
        )
        red = _ranked_loads(red_config)
        return today, new, red

    today, new, red = run_once(benchmark, experiment)

    percentiles = [0.1, 1, 5, 10, 25, 50, 75, 90, 99]
    rows = []
    for pct in percentiles:
        rows.append([
            f"top {pct}%",
            f"{np.percentile(today, 100 - pct):.3e}",
            f"{np.percentile(new, 100 - pct):.3e}",
            f"{np.percentile(red, 100 - pct):.3e}",
        ])
    table = render_table(
        ["rank", "today (bps)", "new (bps)", "new+redundancy (bps)"],
        rows,
        title=f"Figure 12 — ranked outgoing bandwidth ({graph_size} peers)",
    )

    # Shape contracts from the paper's reading of the figure.
    # 1. Clients (the bottom 90% of the new design) are orders of
    #    magnitude below today's typical peers.
    today_median = np.percentile(today, 50)
    new_p25 = np.percentile(new, 25)  # well inside the client mass
    assert new_p25 < today_median / 5
    # 2. The heaviest loads improve decisively.
    assert new[0] < today[0]
    # 3. Redundancy lowers the super-peer band relative to the plain
    #    design (top 20% with redundancy vs top 10% without).
    sp_plain = np.mean(new[: max(1, len(new) // 10)])
    sp_red = np.mean(red[: max(1, len(red) // 5)])
    assert sp_red < sp_plain

    emit(
        "F12_rank_plot",
        table
        + f"\nmean super-peer band: plain={sp_plain:.3e} bps, "
          f"redundant={sp_red:.3e} bps ({sp_red / sp_plain - 1:+.0%}; paper: -41%)",
    )
