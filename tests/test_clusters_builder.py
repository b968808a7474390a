"""Cluster sampling and instance building (Section 4.1, step 1)."""

import numpy as np
import pytest

from repro.config import Configuration, GraphType
from repro.topology.builder import build_instance, build_overlay
from repro.topology.clusters import sample_cluster_clients
from repro.topology.strong import CompleteGraph


class TestSampleClusterClients:
    def test_pure_network_has_no_clients(self):
        config = Configuration(graph_size=100, cluster_size=1)
        clients = sample_cluster_clients(config, rng=0)
        assert clients.tolist() == [0] * 100

    def test_mean_matches_normal_model(self):
        config = Configuration(graph_size=100_000, cluster_size=10)
        clients = sample_cluster_clients(config, rng=0)
        assert clients.mean() == pytest.approx(9.0, rel=0.02)
        assert clients.std() == pytest.approx(0.2 * 9.0, rel=0.10)

    def test_redundancy_lowers_client_mean(self):
        config = Configuration(graph_size=50_000, cluster_size=10, redundancy=True)
        clients = sample_cluster_clients(config, rng=0)
        assert clients.mean() == pytest.approx(8.0, rel=0.05)

    def test_no_negative_clients(self):
        config = Configuration(graph_size=30_000, cluster_size=3)
        clients = sample_cluster_clients(config, rng=0)
        assert clients.min() >= 0

    def test_zero_sigma_is_deterministic(self):
        config = Configuration(graph_size=1000, cluster_size=5, cluster_size_sigma=0.0)
        clients = sample_cluster_clients(config, rng=0)
        assert set(clients.tolist()) == {4}


class TestBuildOverlay:
    def test_strong_is_complete(self):
        config = Configuration(graph_type=GraphType.STRONG, graph_size=100, cluster_size=10)
        graph = build_overlay(config, rng=0)
        assert isinstance(graph, CompleteGraph)
        assert graph.num_nodes == 10

    def test_power_law_hits_target_degree(self):
        config = Configuration(graph_size=5000, cluster_size=10, avg_outdegree=5.0)
        graph = build_overlay(config, rng=0)
        assert graph.average_outdegree() == pytest.approx(5.0, rel=0.15)


class TestBuildInstance:
    def test_shapes_consistent(self):
        config = Configuration(graph_size=500, cluster_size=10)
        inst = build_instance(config, seed=0)
        assert inst.num_clusters == 50
        assert inst.clients.shape == (50,)
        assert inst.client_ptr.shape == (51,)
        assert inst.client_files.shape == (inst.total_clients,)
        assert inst.partner_files.shape == (50, 1)
        assert inst.client_lifespans.shape == (inst.total_clients,)

    def test_peer_count_near_graph_size(self):
        config = Configuration(graph_size=2000, cluster_size=10)
        inst = build_instance(config, seed=1)
        assert inst.num_peers == pytest.approx(2000, rel=0.05)

    def test_redundant_partner_arrays(self):
        config = Configuration(graph_size=400, cluster_size=10, redundancy=True)
        inst = build_instance(config, seed=0)
        assert inst.partners == 2
        assert inst.partner_files.shape == (40, 2)

    def test_deterministic_given_seed(self):
        config = Configuration(graph_size=300, cluster_size=5)
        a = build_instance(config, seed=9)
        b = build_instance(config, seed=9)
        np.testing.assert_array_equal(a.clients, b.clients)
        np.testing.assert_array_equal(a.client_files, b.client_files)
        assert sorted(a.graph.edge_list()) == sorted(b.graph.edge_list())

    def test_index_sizes_sum_cluster_files(self):
        config = Configuration(graph_size=300, cluster_size=10)
        inst = build_instance(config, seed=2)
        for c in range(0, inst.num_clusters, 7):
            clients = inst.client_files[inst.client_ptr[c]:inst.client_ptr[c + 1]]
            expected = clients.sum() + inst.partner_files[c].sum()
            assert inst.index_sizes[c] == expected

    def test_index_total_is_all_files(self):
        config = Configuration(graph_size=300, cluster_size=10)
        inst = build_instance(config, seed=2)
        total = inst.client_files.sum() + inst.partner_files.sum()
        assert inst.index_sizes.sum() == total

    def test_superpeer_connections_no_redundancy(self):
        config = Configuration(graph_size=300, cluster_size=10)
        inst = build_instance(config, seed=3)
        expected = inst.clients + inst.graph.degrees
        np.testing.assert_array_equal(inst.superpeer_connections, expected)
        assert inst.client_connections == 1

    def test_superpeer_connections_redundancy_k2(self):
        # partner connections: clients + 1 fellow partner + 2 per neighbour.
        config = Configuration(graph_size=300, cluster_size=10, redundancy=True)
        inst = build_instance(config, seed=3)
        expected = inst.clients + 1 + 2 * inst.graph.degrees
        np.testing.assert_array_equal(inst.superpeer_connections, expected)
        assert inst.client_connections == 2

    def test_join_rates_inverse_lifespan(self):
        config = Configuration(graph_size=200, cluster_size=10)
        inst = build_instance(config, seed=4)
        rates = inst.join_rates
        np.testing.assert_allclose(rates["clients"], 1.0 / inst.client_lifespans)

    def test_single_cluster_instance(self):
        config = Configuration(graph_size=100, cluster_size=100, graph_type=GraphType.STRONG)
        inst = build_instance(config, seed=0)
        assert inst.num_clusters == 1
        assert inst.graph.num_edges == 0

    def test_describe_mentions_shape(self):
        config = Configuration(graph_size=200, cluster_size=10)
        text = build_instance(config, seed=0).describe()
        assert "20 clusters" in text
