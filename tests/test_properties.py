"""Property-based tests (hypothesis) on the core data structures and
invariants: graph structure, flooding conservation, cost algebra, query
model monotonicity, and the load engine's conservation law."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Configuration, GraphType
from repro.core import costs
from repro.core.load import evaluate_instance
from repro.core.routing import propagate_query
from repro.querymodel.distributions import make_query_model
from repro.stats.histogram import group_by
from repro.stats.rng import zipf_pmf
from repro.topology.builder import build_instance
from repro.topology.graph import OverlayGraph
from repro.topology.plod import plod_graph

# --- strategies ---------------------------------------------------------------


@st.composite
def random_graphs(draw):
    """Small random simple graphs with at least a spanning structure."""
    n = draw(st.integers(min_value=2, max_value=30))
    # Random tree backbone guarantees connectivity for reach assertions.
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return OverlayGraph.from_edges(n, edges)


# --- graph properties ----------------------------------------------------------


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_graph_validates_and_degree_sum(graph):
    graph.validate()
    assert int(graph.degrees.sum()) == 2 * graph.num_edges


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_edge_list_consistent_with_neighbors(graph):
    edges = list(graph.edge_list())
    assert len(edges) == graph.num_edges
    for u, v in edges[:20]:
        assert graph.has_edge(u, v)
        assert graph.has_edge(v, u)


# --- flooding properties ---------------------------------------------------------


@given(random_graphs(), st.integers(min_value=1, max_value=6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_flood_conservation_and_depth_bounds(graph, ttl, seed_source):
    source = seed_source % graph.num_nodes
    prop = propagate_query(graph, source, ttl)
    # Every transmitted message is received exactly once.
    assert prop.transmissions.sum() == prop.receipts.sum()
    # Depths bounded by TTL; source at 0; predecessor one level up.
    reached = prop.reached
    assert prop.depth[source] == 0
    assert prop.depth[reached].max(initial=0) <= ttl
    deeper = np.nonzero(prop.depth > 0)[0]
    for v in deeper[:20]:
        assert prop.depth[prop.pred[v]] == prop.depth[v] - 1


@given(random_graphs(), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_reach_monotone_in_ttl(graph, seed_source):
    source = seed_source % graph.num_nodes
    reaches = [propagate_query(graph, source, ttl).reach for ttl in (1, 2, 3, 4)]
    assert all(a <= b for a, b in zip(reaches, reaches[1:]))
    # Connected backbone: enough TTL reaches every node.
    assert propagate_query(graph, source, graph.num_nodes).reach == graph.num_nodes


@given(random_graphs(), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_accumulated_weight_all_arrives(graph, seed_source):
    source = seed_source % graph.num_nodes
    prop = propagate_query(graph, source, 4)
    weights = np.where(prop.reached, 1.0, 0.0)
    weights[source] = 0.0
    forwarded = prop.accumulate_to_source(weights)
    assert forwarded[source] == pytest.approx(weights.sum())
    # Nothing is forwarded by unreached nodes.
    assert np.all(forwarded[~prop.reached] == 0.0)


# --- cost model ------------------------------------------------------------------

counts = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@given(counts, counts, counts)
def test_composite_costs_add_their_rows(files, dropped, m):
    """A composite event costs the sum of its Table 2 rows (up to the
    rounding of its own term order)."""
    def close(got, want):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    close(costs.handshake(m)[1], costs.send_empty(m)[1] + costs.recv_empty(m)[1])
    close(costs.recv_index_join(files, m)[1],
          costs.recv_join(files, m)[1] + costs.process_join(files))
    close(costs.exchange_join(files, m, dropped=dropped)[1],
          costs.send_join(files, m)[1] + costs.recv_join(files, m)[1]
          + costs.process_join(files) + costs.process_join(dropped))
    close(costs.exchange_update(m)[1],
          costs.send_update(m)[1] + costs.recv_update(m)[1] + costs.process_update())
    close(costs.reindex_units(1, files, m),
          costs.recv_join(files, m)[1] + costs.process_join(files))


@given(counts, counts, st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
def test_cost_rows_scale_linearly(files, m, n):
    """``n`` messages carrying ``n`` times the payload cost ``n`` times one."""
    for many, one in (
        (costs.send_query(m, n), costs.send_query(m)),
        (costs.recv_update(m, n), costs.recv_update(m)),
        (costs.send_join(n * files, m, n), costs.send_join(files, m)),
        (costs.recv_index_join(n * files, m, n), costs.recv_index_join(files, m)),
        (costs.handshake(m, n), costs.handshake(m)),
        (costs.recv_response(n, n * files, n * files, m),
         costs.recv_response(1.0, files, files, m)),
    ):
        assert many == pytest.approx(tuple(n * v for v in one), rel=1e-12, abs=1e-9)


# --- query model properties -----------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=200),
    st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
)
def test_zipf_pmf_is_distribution(n, exponent):
    pmf = zipf_pmf(n, exponent)
    assert pmf.shape == (n,)
    assert pmf.sum() == pytest.approx(1.0)
    assert np.all(pmf >= 0)


@given(
    st.integers(min_value=10, max_value=300),
    st.floats(min_value=0.5, max_value=1.5),
    st.floats(min_value=0.8, max_value=2.0),
)
@settings(max_examples=30, deadline=None)
def test_query_model_miss_probability_monotone(num_classes, pop_exp, sel_exp):
    model = make_query_model(
        num_classes=num_classes,
        popularity_exponent=pop_exp,
        selection_exponent=sel_exp,
        mean_selection_power=1e-4,
    )
    sizes = np.array([0.0, 1.0, 10.0, 100.0, 1000.0])
    misses = model.prob_no_result(sizes)
    assert misses[0] == pytest.approx(1.0)
    assert np.all(np.diff(misses) <= 1e-12)
    assert np.all((misses >= 0) & (misses <= 1))


@given(st.floats(min_value=1.0, max_value=1e5))
@settings(max_examples=30, deadline=None)
def test_expected_results_linear(size):
    model = make_query_model()
    assert model.expected_results(size) == pytest.approx(
        size * model.mean_selection_power
    )


# --- grouped stats -----------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.floats(-100, 100, allow_nan=False)),
        min_size=1,
        max_size=60,
    )
)
def test_group_by_partitions_counts_and_means(pairs):
    keys = [k for k, _ in pairs]
    values = [v for _, v in pairs]
    stats = group_by(keys, values)
    assert stats.total_count() == len(pairs)
    table = stats.as_dict()
    for key in set(keys):
        member_values = [v for k, v in pairs if k == key]
        mean, std, count = table[key]
        assert count == len(member_values)
        assert mean == pytest.approx(np.mean(member_values), abs=1e-9)


# --- load engine conservation over random configurations ------------------------------


@given(
    st.integers(min_value=60, max_value=200),
    st.sampled_from([1, 4, 10]),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.integers(0, 100),
)
@settings(max_examples=12, deadline=None)
def test_load_conservation_over_random_configs(graph_size, cluster_size, ttl,
                                               redundancy, seed):
    if redundancy and cluster_size < 4:
        cluster_size = 4
    config = Configuration(
        graph_size=graph_size,
        cluster_size=cluster_size,
        avg_outdegree=3.5,
        ttl=ttl,
        redundancy=redundancy,
    )
    report = evaluate_instance(build_instance(config, seed=seed))
    agg = report.aggregate_load()
    assert agg.incoming_bps == pytest.approx(agg.outgoing_bps, rel=1e-9)
    # Loads are non-negative everywhere.
    assert np.all(report.superpeer_incoming_bps >= 0)
    assert np.all(report.superpeer_outgoing_bps >= 0)
    assert np.all(report.superpeer_processing_hz >= 0)


@given(st.integers(min_value=50, max_value=300), st.integers(0, 50))
@settings(max_examples=10, deadline=None)
def test_pure_network_degeneracy_property(num_peers, seed):
    """A cluster size of 1 is a pure network: no clients anywhere."""
    config = Configuration(
        graph_size=num_peers, cluster_size=1, avg_outdegree=3.1, ttl=3
    )
    instance = build_instance(config, seed=seed)
    assert instance.total_clients == 0
    report = evaluate_instance(instance)
    assert report.client_incoming_bps.size == 0


@given(st.integers(min_value=2, max_value=60), st.floats(2.0, 12.0), st.integers(0, 30))
@settings(max_examples=15, deadline=None)
def test_plod_mean_degree_property(n, target, seed):
    target = min(target, n - 1.0)
    graph = plod_graph(n, target, rng=seed)
    graph.validate() if isinstance(graph, OverlayGraph) else None
    assert graph.num_nodes == n
    if isinstance(graph, OverlayGraph):
        assert graph.degrees.min() >= 1
