"""The capacity planner on non-monotone load: the Fig. 6 U-shape.

A plain peer on a strongly connected overlay pays the multiplex cost of
one open connection per other super-peer, so super-peer load first falls
with cluster size before the clients' queries make it rise.  The planner
probes the Figure 10 ladder of sizes before it bisects, so a budget that
size 1 misses still finds the sizes that fit.
"""

from hypothesis import example, given, settings, strategies as st

from repro.config import Configuration, GraphType
from repro.core.analysis import evaluate_configuration
from repro.core.capacity import LoadBudget, headroom, max_supported_cluster_size
from repro.core.design import candidate_cluster_sizes

EXACT = dict(trials=1, seed=0, max_sources=None)


def test_plain_peer_misses_but_larger_clusters_fit():
    base = Configuration(graph_type=GraphType.STRONG, graph_size=300,
                         cluster_size=1, ttl=1)
    budget = LoadBudget(1e6, 1e6, 1.5e5)
    assert headroom(base, budget, **EXACT)["processing"] > 1.0
    best = max_supported_cluster_size(base, budget, **EXACT)
    assert best > 1
    assert max(headroom(base.with_changes(cluster_size=best), budget,
                        **EXACT).values()) <= 1.0
    assert max(headroom(base.with_changes(cluster_size=best + 1), budget,
                        **EXACT).values()) > 1.0


@settings(max_examples=12, deadline=None)
@given(
    strong=st.booleans(),
    graph_size=st.integers(min_value=20, max_value=300),
    scales=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3),
)
# Size 1 misses on processing; the bottom of the U fits.
@example(strong=True, graph_size=300, scales=(1.0, 1.0, -0.2))
def test_result_matches_brute_force_under_the_contract(strong, graph_size, scales):
    if strong:
        base = Configuration(graph_type=GraphType.STRONG, graph_size=graph_size,
                             cluster_size=1, ttl=1)
    else:
        base = Configuration(graph_size=graph_size, cluster_size=1)
    loads = {
        size: evaluate_configuration(base.with_changes(cluster_size=size),
                                     **EXACT).superpeer_load()
        for size in range(1, graph_size + 1)
    }
    # Limits around the plain peer's load: some budgets fit every size,
    # some none, and many cut the U-shape.
    plain = loads[1]
    budget = LoadBudget(plain.incoming_bps * 10 ** scales[0],
                        plain.outgoing_bps * 10 ** scales[1],
                        plain.processing_hz * 10 ** scales[2])
    fitting = {size for size, load in loads.items() if budget.fits(load)}
    ladder = candidate_cluster_sizes(graph_size)

    best = max_supported_cluster_size(base, budget, **EXACT)

    if not fitting & set(ladder):
        assert best == 0
        return
    rung = max(fitting & set(ladder))
    assert best in fitting and best >= rung
    if rung < graph_size:
        next_rung = min(size for size in ladder if size > rung)
        assert best < next_rung
        assert best + 1 not in fitting
    else:
        assert best == graph_size
