"""Capacity-aware super-peer selection."""

import pytest

from repro.config import Configuration
from repro.core.load import evaluate_instance
from repro.core.selection import RoleAssignmentResult, assign_roles, selection_gain
from repro.topology.builder import build_instance


@pytest.fixture(scope="module")
def report():
    config = Configuration(graph_size=2000, cluster_size=10, avg_outdegree=12.0, ttl=2)
    return evaluate_instance(build_instance(config, seed=0), max_sources=None)


class TestAssignRoles:
    def test_capacity_beats_random(self, report):
        random_result, capacity_result = selection_gain(report, rng=1)
        assert capacity_result.overloaded_total <= random_result.overloaded_total
        assert (
            capacity_result.overloaded_superpeers
            <= random_result.overloaded_superpeers
        )

    def test_capacity_aware_superpeers_rarely_overload(self, report):
        result = assign_roles(report, "capacity", rng=1)
        # 10% of peers must serve; ~45% of the mix has fast uplinks, so a
        # capacity-aware assignment keeps super-peer overloads rare.
        assert result.overloaded_superpeers < 0.10

    def test_random_assignment_strands_dialup_superpeers(self, report):
        result = assign_roles(report, "random", rng=1)
        # A blind assignment hands super-peer slots (mean ~40 Kbps out at
        # this scale) to dialup peers with 33.6k uplinks; a visible share
        # of slots overloads, where the capacity-aware policy has none.
        assert result.overloaded_superpeers > 0.02
        aware = assign_roles(report, "capacity", rng=1)
        assert aware.overloaded_superpeers == 0.0

    def test_deterministic_given_rng(self, report):
        a = assign_roles(report, "capacity", rng=3)
        b = assign_roles(report, "capacity", rng=3)
        assert a == b

    def test_describe(self, report):
        text = assign_roles(report, "random", rng=0).describe()
        assert "random" in text
        assert "%" in text

    def test_validation(self, report):
        with pytest.raises(ValueError):
            assign_roles(report, "psychic", rng=0)
        with pytest.raises(ValueError):
            assign_roles(report, "capacity", rng=0, utilization_limit=0.0)

    def test_utilization_limit_tightens(self, report):
        loose = assign_roles(report, "capacity", rng=2, utilization_limit=1.0)
        tight = assign_roles(report, "capacity", rng=2, utilization_limit=0.2)
        assert tight.overloaded_total >= loose.overloaded_total


def test_redundant_report_assigns_every_partner_slot():
    """At k = 2 each cluster offers two super-peer slots: 60 clusters give
    120 partner slots and 496 client slots, and the overload counts over
    them are pinned exactly (6 of 120, 2 of 496, 8 of 616 at rng 1)."""
    config = Configuration(graph_size=600, cluster_size=10, redundancy=True,
                           avg_outdegree=6.0, ttl=2)
    report = evaluate_instance(build_instance(config, seed=0), max_sources=None)
    assert report.partners == 2
    assert assign_roles(report, "random", rng=1, utilization_limit=0.2) == (
        RoleAssignmentResult("random", 6 / 120, 2 / 496, 8 / 616))
    assert assign_roles(report, "capacity", rng=1, utilization_limit=0.2) == (
        RoleAssignmentResult("capacity", 0.0, 1 / 496, 1 / 616))
