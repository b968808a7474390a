"""Second property-test suite: persistence round-trips and search bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import Configuration, GraphType
from repro.io import load_instance, save_instance
from repro.search import FloodingSearch, RoutingIndicesSearch
from repro.topology.builder import build_instance


@st.composite
def small_configs(draw):
    graph_size = draw(st.integers(min_value=40, max_value=200))
    cluster_size = draw(st.sampled_from([1, 4, 8]))
    redundancy = draw(st.booleans()) and cluster_size >= 4
    return Configuration(
        graph_type=draw(st.sampled_from([GraphType.POWER_LAW, GraphType.STRONG])),
        graph_size=graph_size,
        cluster_size=cluster_size,
        redundancy=redundancy,
        avg_outdegree=draw(st.sampled_from([2.0, 3.1, 5.0])),
        ttl=draw(st.integers(min_value=1, max_value=5)),
    )


@given(small_configs(), st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_save_load_instance_roundtrip(tmp_path_factory, config, seed):
    instance = build_instance(config, seed=seed)
    path = tmp_path_factory.mktemp("io") / "instance.npz"
    loaded = load_instance(save_instance(instance, path))
    assert loaded.config == instance.config
    np.testing.assert_array_equal(loaded.clients, instance.clients)
    np.testing.assert_array_equal(loaded.client_files, instance.client_files)
    np.testing.assert_array_equal(loaded.partner_files, instance.partner_files)
    assert loaded.num_peers == instance.num_peers
    assert loaded.index_sizes.tolist() == instance.index_sizes.tolist()


@given(
    st.integers(min_value=60, max_value=250),
    st.integers(min_value=1, max_value=6),
    st.integers(0, 50),
)
@settings(max_examples=12, deadline=None)
@example(graph_size=107, ttl=1, seed=38)  # EPL rounded to ttl + 1 ulp
def test_flooding_cost_fields_are_sane(graph_size, ttl, seed):
    config = Configuration(
        graph_size=graph_size, cluster_size=4, avg_outdegree=3.1, ttl=ttl
    )
    instance = build_instance(config, seed=seed)
    cost = FloodingSearch(instance).query_cost(0)
    assert cost.query_messages >= 0
    assert cost.response_messages >= 0
    assert cost.expected_results >= 0
    assert 1 <= cost.reach <= instance.num_clusters
    assert 0 <= cost.mean_response_hops <= ttl
    # Bytes are message counts times positive sizes.
    assert cost.query_bytes == pytest.approx(cost.query_messages * 94.0)


@given(
    st.integers(min_value=80, max_value=200),
    st.floats(min_value=5.0, max_value=200.0),
    st.integers(0, 30),
)
@settings(max_examples=10, deadline=None)
def test_routing_indices_never_exceeds_flood_reach(graph_size, target, seed):
    config = Configuration(
        graph_size=graph_size, cluster_size=4, avg_outdegree=4.0, ttl=7
    )
    instance = build_instance(config, seed=seed)
    flood = FloodingSearch(instance).query_cost(0)
    informed = RoutingIndicesSearch(instance, result_target=target).query_cost(0)
    # The informed search stops at the target (or exhausts the overlay);
    # it never probes more super-peers than a full-TTL flood covers when
    # the flood already reaches everything.
    if flood.reach == instance.num_clusters:
        assert informed.reach <= flood.reach
        # With the flood covering everything, it also collects at least as
        # many results as any early-stopping search.
        assert informed.expected_results <= flood.expected_results + 1e-6
