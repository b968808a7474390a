"""ABL-SEARCH — ablation: alternative search protocols on the overlay.

The paper (Sections 2 and 4.1): smarter routing protocols "may also be
used on a super-peer network, resulting in overall performance gain, but
similar tradeoffs between configurations."  This ablation quantifies the
first half on the default super-peer topology — expanding-ring and
random-walk search against the baseline flood, at a fixed result target
— and spot-checks the second half: the ranking of two cluster sizes is
the same under flooding and under the expanding ring.
"""

from repro.config import Configuration
from repro.reporting import render_table
from repro.search import (
    ExpandingRingSearch,
    FloodingSearch,
    RandomWalkSearch,
    RoutingIndicesSearch,
)
from repro.topology.builder import build_instance

from conftest import run_once

RESULT_TARGET = 50.0


def test_ablation_search_protocols(benchmark, emit):
    graph_size = 10_000
    config = Configuration(graph_size=graph_size, cluster_size=10,
                           avg_outdegree=4.0, ttl=7)
    instance = build_instance(config, seed=1)

    def experiment():
        protocols = [
            FloodingSearch(instance),
            ExpandingRingSearch(instance, policy=(1, 2, 4, 7),
                                result_target=RESULT_TARGET),
            RandomWalkSearch(instance, num_walkers=16, max_steps=128,
                             result_target=RESULT_TARGET, rng=0, num_samples=4),
            RoutingIndicesSearch(instance, result_target=RESULT_TARGET),
        ]
        return {p.name: p.evaluate(num_sources=32, rng=0) for p in protocols}

    costs = run_once(benchmark, experiment)

    rows = [
        [
            name,
            f"{c.total_messages:.0f}",
            f"{c.total_bytes / 1024:.1f}",
            f"{c.expected_results:.0f}",
            f"{c.reach:.0f}",
            f"{c.mean_response_hops:.2f}",
            f"{c.efficiency():.2f}",
        ]
        for name, c in costs.items()
    ]

    flood = costs["flooding"]
    ring = costs["expanding-ring"]
    walk = costs["random-walk"]
    indices = costs["routing-indices"]
    # "Overall performance gain": for a modest result target, every
    # alternative moves fewer bytes than the full flood, and the informed
    # protocol (routing indices) probes the fewest super-peers.
    assert ring.total_bytes < flood.total_bytes
    assert walk.total_bytes < flood.total_bytes
    assert indices.total_bytes < flood.total_bytes
    assert indices.query_messages < walk.query_messages
    # The flood retains maximal coverage.
    assert flood.reach >= ring.reach >= 1
    assert flood.expected_results >= ring.expected_results

    # "Similar tradeoffs between configurations": cluster-size ranking is
    # protocol-independent (larger clusters -> fewer overlay messages).
    small = build_instance(config.with_changes(cluster_size=5), seed=1)
    large = build_instance(config.with_changes(cluster_size=40), seed=1)
    for protocol_cls in (FloodingSearch,):
        a = protocol_cls(small).evaluate(num_sources=24, rng=0)
        b = protocol_cls(large).evaluate(num_sources=24, rng=0)
        assert b.query_messages < a.query_messages
    ring_small = ExpandingRingSearch(small, result_target=RESULT_TARGET).evaluate(24, rng=0)
    ring_large = ExpandingRingSearch(large, result_target=RESULT_TARGET).evaluate(24, rng=0)
    assert ring_large.query_messages < ring_small.query_messages

    emit("ABL_search", render_table(
        ["protocol", "messages/query", "KB/query", "results", "reach",
         "response hops", "results/KB"],
        rows,
        title=(
            f"search-protocol ablation ({graph_size} peers, result target "
            f"{RESULT_TARGET:.0f})"
        ),
    ))
