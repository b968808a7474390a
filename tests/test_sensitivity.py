"""Sensitivity/elasticity analysis of the calibration constants."""

import pytest

from repro.config import Configuration
from repro.core.sensitivity import (
    Elasticity,
    PARAMETERS,
    elasticity_table,
    sensitivity_analysis,
)


@pytest.fixture(scope="module")
def elasticities():
    config = Configuration(graph_size=600, cluster_size=10, avg_outdegree=4.0, ttl=5)
    return sensitivity_analysis(config, max_sources=80)


@pytest.fixture(scope="module")
def table(elasticities):
    return elasticity_table(elasticities)


class TestElasticityValues:
    def test_query_rate_is_linear(self, table):
        # Query load dominates: doubling the query rate doubles the load.
        assert table["query_rate"]["superpeer_bandwidth"] == pytest.approx(1.0, abs=0.15)

    def test_update_rate_is_insensitive(self, table):
        # The paper: "overall performance ... is not sensitive to the
        # value of the update rate."
        assert abs(table["update_rate"]["superpeer_bandwidth"]) < 0.1
        assert abs(table["update_rate"]["aggregate_bandwidth"]) < 0.1

    def test_results_linear_in_files_and_selection(self, table):
        # Eq. 5: E[N] = x_tot * sum(g f) — exactly linear in both.
        assert table["mean_files"]["results_per_query"] == pytest.approx(1.0, abs=0.1)
        assert table["selection_power"]["results_per_query"] == pytest.approx(1.0, abs=0.1)

    def test_query_rate_does_not_change_results(self, table):
        assert abs(table["query_rate"]["results_per_query"]) < 1e-9

    def test_bandwidth_sublinear_in_result_volume(self, table):
        # Response payload is roughly half the query bandwidth, so load
        # elasticity to result volume sits between 0 and 1.
        value = table["selection_power"]["superpeer_bandwidth"]
        assert 0.2 < value < 0.9

    def test_session_length_mildly_negative(self, table):
        # Longer sessions -> fewer joins -> slightly lower load.
        assert -0.3 < table["mean_session"]["superpeer_bandwidth"] <= 0.02


class TestApi:
    def test_every_parameter_and_metric_present(self, elasticities):
        params = {e.parameter for e in elasticities}
        assert params == set(PARAMETERS)
        per_param = len(elasticities) / len(params)
        assert per_param == 4  # the four headline metrics

    def test_classification_helpers(self):
        assert Elasticity("p", "m", 1.0, 1, 2).is_linear
        assert not Elasticity("p", "m", 0.5, 1, 2).is_linear

    def test_unknown_parameter_rejected(self):
        config = Configuration(graph_size=200, cluster_size=10)
        with pytest.raises(ValueError):
            sensitivity_analysis(config, parameters=("bogus",), max_sources=20)

    def test_factor_validated(self):
        config = Configuration(graph_size=200, cluster_size=10)
        with pytest.raises(ValueError):
            sensitivity_analysis(config, factor=1.0)
