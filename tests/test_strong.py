"""CompleteGraph (strongly connected overlay) tests."""

import numpy as np
import pytest

from repro.topology.strong import CompleteGraph, strongly_connected_graph


def test_basic_structure():
    g = strongly_connected_graph(5)
    assert isinstance(g, CompleteGraph)
    assert g.num_nodes == 5
    assert g.num_edges == 10
    assert g.average_outdegree() == 4.0
    assert g.degrees.tolist() == [4] * 5


def test_neighbors_exclude_self():
    g = strongly_connected_graph(4)
    assert sorted(g.neighbors(2).tolist()) == [0, 1, 3]


def test_has_edge():
    g = strongly_connected_graph(3)
    assert g.has_edge(0, 2)
    assert not g.has_edge(1, 1)


def test_connectivity_trivially_true():
    g = strongly_connected_graph(6)
    assert g.is_connected()
    assert len(g.connected_components()) == 1


def test_materialize_matches_closed_form():
    lazy = strongly_connected_graph(7)
    explicit = lazy.materialize()
    assert explicit.num_edges == lazy.num_edges
    assert explicit.degrees.tolist() == lazy.degrees.tolist()
    explicit.validate()


def test_materialize_is_built_once():
    """Floods with a ``deliver`` hook materialize K_n on every call; the
    CSR is built once per graph, and the indptr / indices views share it."""
    g = strongly_connected_graph(7)
    assert g.materialize() is g.materialize()
    assert g.indptr is g.materialize().indptr
    assert g.indices is g.materialize().indices


def test_materialize_refused_for_large_n():
    g = strongly_connected_graph(10_000)
    with pytest.raises(ValueError):
        g.materialize()
    with pytest.raises(ValueError):
        _ = g.indptr


def test_degenerate_sizes():
    assert strongly_connected_graph(0).num_edges == 0
    single = strongly_connected_graph(1)
    assert single.num_edges == 0
    assert single.degrees.tolist() == [0]
    assert single.average_outdegree() == 0.0


def test_node_range_checked():
    g = strongly_connected_graph(3)
    with pytest.raises(IndexError):
        g.neighbors(3)
    with pytest.raises(IndexError):
        g.degree(-1)


def test_edge_list_count():
    g = strongly_connected_graph(5)
    assert len(list(g.edge_list())) == 10
