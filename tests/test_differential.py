"""Differential tests: the array engine vs the event-engine oracle.

The contract lives in ``tests/_diff.py`` (pre-registered deterministic
sets and statistical tolerances — see its module docstring).  This file
only *executes* it:

* the fixed ~20-case panel (topology x cluster size x k-redundancy x
  faults x detector) runs once per engine and every case is checked on
  both lanes;
* a panel-wide systematic-bias check tightens the statistical lane from
  per-case noise bounds to a 5% bound on the mean relative error;
* a hypothesis generator fuzzes configurations/seeds beyond the panel
  and asserts the deterministic lane (short runs are too noisy for the
  statistical one — the panel owns that).

Any failure dumps a replayable seed+spec artifact under
``tests/_diff_artifacts/`` and points at it in the assertion message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from _diff import (
    ARTIFACT_DIR,
    BIAS_TOL,
    PANEL,
    TOLERANCES,
    DiffCase,
    check_counter_parity,
    check_deterministic,
    check_statistical,
    format_failure,
    run_engine,
    statistical_errors,
)


@pytest.fixture(scope="module")
def panel_results():
    """Run every panel case once per engine; tests share the results."""
    results = {}
    for case in PANEL:
        results[case.name] = (
            case, run_engine(case, "event"), run_engine(case, "array")
        )
    return results


def _case_names():
    names = [case.name for case in PANEL]
    assert len(names) == len(set(names)), "panel case names must be unique"
    return names


@pytest.mark.parametrize("name", _case_names())
def test_panel_deterministic_lane(panel_results, name):
    """Pre-registered counters are bit-equal between engines."""
    case, ev, ar = panel_results[name]
    errors = check_deterministic(case, ev, ar)
    assert not errors, format_failure(case, ev, ar, errors)


@pytest.mark.parametrize("name", _case_names())
def test_panel_statistical_lane(panel_results, name):
    """Sampled quantities agree within the pre-registered tolerances."""
    case, ev, ar = panel_results[name]
    errors = check_statistical(case, ev, ar)
    assert not errors, format_failure(case, ev, ar, errors)


def test_panel_no_systematic_bias(panel_results):
    """Mean relative error across the panel stays within BIAS_TOL.

    Per-case bounds are several sigmas wide; if the array engine were
    systematically off (a misderived expectation, a dropped cost term)
    every case would err the same way and the panel mean would not
    shrink.  Success rates are compared absolutely, so they are
    excluded here (their per-case bound is already tight), and so are
    the single-case gossip lanes (no panel to average over).
    """
    sums: dict[str, list[float]] = {}
    for case, ev, ar in panel_results.values():
        for name, err in statistical_errors(case, ev, ar).items():
            tol = TOLERANCES[name]
            if tol["rel"] is None or not tol.get("bias", True):
                continue
            sums.setdefault(name, []).append(err)
    report = {name: float(np.mean(errs)) for name, errs in sums.items()}
    offenders = {n: e for n, e in report.items() if abs(e) > BIAS_TOL}
    assert not offenders, (
        f"systematic cross-engine bias beyond {BIAS_TOL:.0%}: {offenders} "
        f"(full bias report: {report})"
    )


@pytest.mark.parametrize("name", _case_names())
def test_panel_counter_parity(panel_results, name):
    """Both engines register the same counter/histogram name families."""
    case, ev, ar = panel_results[name]
    errors = check_counter_parity(ev, ar)
    assert not errors, format_failure(case, ev, ar, errors)


def test_panel_journal_replays(panel_results):
    """The panel records as a campaign journal that replays faithfully.

    Doubles as the CI artifact: ``differential_journal.jsonl`` is what
    the differential-smoke job uploads and smoke-checks with
    ``repro watch --once``.
    """
    from repro.obs.journal import replay_journal
    from repro.obs.progress import start_campaign

    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / "differential_journal.jsonl"
    plan = [{"index": i, "label": name, "detail": case.to_dict()}
            for i, (name, (case, _, _)) in enumerate(panel_results.items())]
    campaign = start_campaign(path, None, name="differential-panel",
                              total=len(panel_results), plan=plan)
    for i, (name, (case, ev, ar)) in enumerate(panel_results.items()):
        campaign.point_started(i, name)
        campaign.point_finished(i, name, counters={
            "event.num_queries": ev["num_queries"],
            "array.num_queries": ar["num_queries"],
        })
    campaign.finish()

    state = replay_journal(path)
    assert state.campaign == "differential-panel"
    assert state.total == len(panel_results)
    assert state.done == len(panel_results)
    assert state.errors == 0
    assert state.finished and state.end_status == "complete"
    assert state.skipped_lines == 0
    labels = [state.points[i]["label"] for i in sorted(state.points)]
    assert labels == [name for name in panel_results]


def test_artifact_roundtrip(tmp_path):
    """The divergence artifact replays to the same case definition."""
    case = PANEL[0]
    clone = DiffCase.from_dict(case.to_dict())
    assert clone == case


# --- hypothesis: fuzz the deterministic lane beyond the panel ----------------


@st.composite
def _random_cases(draw):
    graph_size = draw(st.integers(min_value=120, max_value=360))
    cluster_size = draw(st.sampled_from([6, 8, 12]))
    redundant = draw(st.booleans())
    config = {
        "graph_size": graph_size,
        "cluster_size": cluster_size,
        "graph_type": draw(st.sampled_from(["power-law", "strong"])),
    }
    if config["graph_type"] == "power-law":
        config["avg_outdegree"] = draw(st.sampled_from([3.1, 4.0]))
        config["ttl"] = draw(st.integers(min_value=2, max_value=5))
    else:
        config["ttl"] = 1
    if redundant:
        config["redundancy"] = True
        config["redundancy_factor"] = draw(st.sampled_from([2, 3]))
    plan = draw(st.sampled_from([
        None,
        {"loss": 0.05},
        {"loss": 0.08, "retry": {"timeout": 3.0, "max_retries": 2}},
    ]))
    return DiffCase(
        name="hypothesis",
        config=config,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        duration=150.0,
        plan=plan,
        enable_updates=draw(st.booleans()),
    )


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=_random_cases())
def test_fuzzed_deterministic_lane(case):
    """Random configs x seeds x no-crash plans: counters stay bit-equal."""
    ev = run_engine(case, "event")
    ar = run_engine(case, "array")
    errors = check_deterministic(case, ev, ar)
    assert not errors, format_failure(case, ev, ar, errors)
