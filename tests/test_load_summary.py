"""One Eq. 3-4 summary for expected and measured loads.

Section 4.1's aggregate load E[M | I] (Eq. 4) sums every node's load, so
each of a virtual super-peer's k partners counts once.  Simulator
reports and MVA reports share that summary (``NodeLoads``), and the
risk-aware design procedure prices a candidate by it: a k = 2 design
must pay for both of its partners.
"""

import pytest

from repro.config import Configuration
from repro.core.load import evaluate_instance
from repro.risk.evaluate import RiskCell
from repro.sim.network import simulate_instance
from repro.topology.builder import build_instance

SEED = 3
DURATION = 2_000.0
RESOURCES = (
    ("incoming_bps", "superpeer_incoming_bps", "client_incoming_bps"),
    ("outgoing_bps", "superpeer_outgoing_bps", "client_outgoing_bps"),
    ("processing_hz", "superpeer_processing_hz", "client_processing_hz"),
)


def _config(k: int) -> Configuration:
    return Configuration(graph_size=400, cluster_size=10, redundancy=k == 2)


@pytest.fixture(scope="module", params=(1, 2), ids=lambda k: f"k={k}")
def k_report(request):
    k = request.param
    instance = build_instance(_config(k), seed=SEED)
    return k, simulate_instance(instance, duration=DURATION, rng=SEED,
                                engine="array")


def test_simulator_report_records_partners(k_report):
    k, report = k_report
    assert report.partners == k


def test_aggregate_load_counts_every_partner(k_report):
    k, report = k_report
    agg = report.aggregate_load()
    for name, sp, cl in RESOURCES:
        want = k * getattr(report, sp).sum() + getattr(report, cl).sum()
        assert getattr(agg, name) == pytest.approx(want, rel=1e-12), name


def test_all_node_loads_repeat_each_partner(k_report):
    k, report = k_report
    nodes = report.all_node_loads("incoming")
    assert nodes.size == (k * report.superpeer_incoming_bps.size
                          + report.client_incoming_bps.size)
    assert nodes.sum() == pytest.approx(report.aggregate_load().incoming_bps,
                                        rel=1e-12)


def test_risk_cost_is_the_aggregate_bandwidth(k_report):
    k, report = k_report
    cell = RiskCell(label=f"k{k}", config=_config(k), seed=SEED,
                    duration=DURATION, engine="array", scenario=None)
    assert (cell.run()["aggregate_bandwidth_bps"]
            == report.aggregate_load().total_bandwidth_bps)


def test_relative_error_is_shared_by_both_reports(k_report):
    k, report = k_report
    mva = evaluate_instance(build_instance(_config(k), seed=SEED))
    errors = report.relative_error_vs(mva)
    sim_sp, mva_sp = report.mean_superpeer_load(), mva.mean_superpeer_load()
    assert errors == {
        "incoming": sim_sp.incoming_bps / mva_sp.incoming_bps - 1.0,
        "outgoing": sim_sp.outgoing_bps / mva_sp.outgoing_bps - 1.0,
        "processing": sim_sp.processing_hz / mva_sp.processing_hz - 1.0,
    }
    assert mva.relative_error_vs(mva) == {
        "incoming": 0.0, "outgoing": 0.0, "processing": 0.0}
