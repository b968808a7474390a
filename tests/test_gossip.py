"""Gossip membership failure detection (``repro.sim.gossip``)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.config import Configuration
from repro.sim.chaos import ChaosCaseError, ChaosSpec, run_chaos
from repro.sim.engine import Simulator
from repro.sim.faults import (
    CrashSpec,
    FaultOutcome,
    FaultPlan,
    FaultRuntime,
    PartitionWindow,
)
from repro.sim.gossip import (
    ALIVE,
    DEAD,
    SUSPECT,
    GossipDetector,
    GossipSpec,
    entry_inc,
    entry_state,
    gossip_attribution,
    pack_entry,
)
from repro.sim.monitor import DetectorSpec
from repro.sim.recovery import RecoveryPolicy
from repro.sim.resilience import run_resilience
from repro.topology.builder import build_instance

DURATION = 400.0
SEED = 11


@pytest.fixture(scope="module")
def instance():
    config = Configuration(graph_size=200, cluster_size=10, redundancy=True)
    return build_instance(config, seed=5)


def make_detector(instance, gossip=None, seed=0, on_confirmed=None,
                  plan=None):
    """A gossip detector on a bare fault runtime (no recovery layer)."""
    sim = Simulator()
    if plan is None:
        # Crash machinery armed but inert: tests inject crashes by hand.
        plan = FaultPlan(crash=CrashSpec(mean_recovery=1e9,
                                         lifespan_scale=1e9))
    rt = FaultRuntime(plan, instance, np.random.default_rng(seed))
    rt.install(sim, None)
    spec = DetectorSpec(mode="gossip", gossip=gossip or GossipSpec())
    detector = GossipDetector(
        spec, None, rt, np.random.default_rng(seed + 1),
        on_confirmed or (lambda c, p: None),
    )
    detector.install(sim)
    return sim, rt, detector


class TestPackedEntries:
    def test_round_trip(self):
        for inc in (0, 1, 7, 123456):
            for state in (ALIVE, SUSPECT, DEAD):
                packed = pack_entry(inc, state)
                assert int(entry_inc(packed)) == inc
                assert int(entry_state(packed)) == state

    def test_packing_orders_by_incarnation_then_state(self):
        # Merge rule: higher incarnation wins outright; at equal
        # incarnation the stronger claim wins.
        assert pack_entry(2, ALIVE) > pack_entry(1, DEAD)
        assert pack_entry(1, DEAD) > pack_entry(1, SUSPECT)
        assert pack_entry(1, SUSPECT) > pack_entry(1, ALIVE)


class TestGossipSpecValidation:
    def test_rejects_zero_probe_interval(self):
        with pytest.raises(ValueError):
            GossipSpec(probe_interval=0.0)

    def test_rejects_negative_suspect_timeout(self):
        with pytest.raises(ValueError):
            GossipSpec(suspect_timeout=-1.0)

    def test_rejects_nan_intervals(self):
        with pytest.raises(ValueError):
            GossipSpec(anti_entropy_interval=float("nan"))
        with pytest.raises(ValueError):
            GossipSpec(corroboration_timeout=float("nan"))

    def test_rejects_fanout_below_one(self):
        with pytest.raises(ValueError):
            GossipSpec(fanout=0)

    def test_rejects_nonpositive_corroboration(self):
        with pytest.raises(ValueError):
            GossipSpec(corroboration_m=0)

    def test_rejects_m_exceeding_n(self):
        with pytest.raises(ValueError):
            GossipSpec(corroboration_m=5, monitors_n=4)

    def test_round_trip(self):
        spec = GossipSpec(probe_interval=1.5, suspect_timeout=4.5, fanout=3,
                          anti_entropy_interval=9.0, corroboration_m=3,
                          monitors_n=5, corroboration_timeout=5.0)
        assert GossipSpec.from_dict(spec.to_dict()) == spec

    def test_detection_bound(self):
        spec = GossipSpec(probe_interval=2.0, suspect_timeout=6.0,
                          corroboration_timeout=6.0)
        assert spec.detection_bound == 16.0


class TestDetectorSpecModes:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            DetectorSpec(mode="psychic")

    def test_gossip_mode_defaults_a_gossip_spec(self):
        spec = DetectorSpec(mode="gossip")
        assert spec.gossip == GossipSpec()
        assert spec.min_lag == spec.gossip.suspect_timeout
        assert spec.max_lag == spec.gossip.detection_bound
        assert spec.probe_period == spec.gossip.probe_interval

    def test_oracle_mode_keeps_legacy_lag_window(self):
        spec = DetectorSpec(heartbeat_interval=4.0, timeout_beats=3)
        assert spec.mode == "oracle"
        assert spec.gossip is None
        assert (spec.min_lag, spec.max_lag) == (12.0, 16.0)
        assert spec.probe_period == 4.0

    def test_gossip_mode_round_trips(self):
        spec = DetectorSpec(mode="gossip",
                            gossip=GossipSpec(corroboration_m=3,
                                              monitors_n=6))
        clone = DetectorSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_legacy_payload_defaults_to_oracle(self):
        clone = DetectorSpec.from_dict(
            {"heartbeat_interval": 3.0, "timeout_beats": 2,
             "false_positive_rate": 0.0}
        )
        assert clone.mode == "oracle"


class TestGossipDetection:
    def test_crash_detected_within_bound(self, instance):
        confirmed = []
        gossip = GossipSpec(probe_interval=2.0, suspect_timeout=6.0,
                            corroboration_timeout=6.0)
        sim, rt, _ = make_detector(
            instance, gossip,
            on_confirmed=lambda c, p: confirmed.append((c, p)),
        )
        sim.schedule(10.0, rt._crash, 3, 0)
        sim.run_until(10.0 + gossip.detection_bound + 1.0)
        assert confirmed == [(3, 0)]
        assert rt.metrics.detections == 1
        lag = rt.metrics.detection_lags[0]
        assert gossip.suspect_timeout <= lag <= gossip.detection_bound

    def test_detection_needs_corroboration(self, instance):
        # With m=2, the very first suspicion must not declare by itself:
        # the lag always includes time for a second report (or the
        # escalation window).
        confirmed = []
        gossip = GossipSpec(corroboration_m=2, monitors_n=4)
        sim, rt, detector = make_detector(
            instance, gossip,
            on_confirmed=lambda c, p: confirmed.append((c, p)),
        )
        sim.schedule(10.0, rt._crash, 3, 0)
        sim.run_until(10.0 + gossip.detection_bound + 1.0)
        assert confirmed == [(3, 0)]
        assert detector.suspicions >= 2      # at least two monitors weighed in
        assert detector.declarations == 1    # but the slot died exactly once

    def test_recovery_before_declaration_cancels(self, instance):
        confirmed = []
        sim, rt, detector = make_detector(
            instance, GossipSpec(suspect_timeout=6.0),
            on_confirmed=lambda c, p: confirmed.append((c, p)),
        )
        sim.schedule(10.0, rt._crash, 3, 0)
        sim.schedule(12.0, rt._recover, 3, 0)   # heals inside suspect_timeout
        sim.run_until(80.0)
        assert confirmed == []
        assert rt.metrics.detections == 0
        # The recovery bumped the slot's incarnation, out-versioning any
        # stale rumor that might still circulate.
        assert int(detector.inc[3, 0]) == 1

    def test_each_crash_detected_once(self, instance):
        confirmed = []
        sim, rt, _ = make_detector(
            instance, GossipSpec(),
            on_confirmed=lambda c, p: confirmed.append((c, p)),
        )
        sim.schedule(5.0, rt._crash, 0, 0)
        sim.schedule(5.0, rt._crash, 0, 1)
        sim.schedule(9.0, rt._crash, 4, 1)
        sim.run_until(60.0)
        assert sorted(confirmed) == [(0, 0), (0, 1), (4, 1)]
        assert rt.metrics.detections == 3

    def test_quiet_run_charges_only_periodic_traffic(self, instance):
        # No crash, no loss, no partition: the piggyback path must stay
        # latched off (views all-zero) while heartbeats and anti-entropy
        # still cost real bytes.
        sim, rt, detector = make_detector(instance, GossipSpec())
        sim.run_until(100.0)
        assert detector._quiet
        assert not detector.view.any()
        assert detector.suspicions == 0
        assert float(detector._gos_out.sum()) > 0.0

    def test_partition_causes_false_suspicion_then_refutation(self, instance):
        # Cut cluster 0 off long enough for its monitors to suspect its
        # (live) partners; after the cut heals, the stale-record sweep
        # must refute every suspicion without any confirmed detection.
        plan = FaultPlan(
            crash=CrashSpec(mean_recovery=1e9, lifespan_scale=1e9),
            partitions=(PartitionWindow(20.0, 60.0, (0,)),),
        )
        sim, rt, detector = make_detector(
            instance, GossipSpec(suspect_timeout=6.0, probe_interval=2.0,
                                 corroboration_timeout=6.0),
            plan=plan,
        )
        sim.run_until(30.0)
        assert rt.metrics.false_suspicions > 0
        suspected_while_cut = int(np.count_nonzero(
            entry_state(detector.view[:, 0:instance.partners]) != ALIVE
        ))
        assert suspected_while_cut > 0
        sim.run_until(120.0)
        assert detector.refutations > 0
        assert rt.metrics.detections == 0
        # Views must be clean again once the episode closes.
        assert detector.stale_view_entries() == 0

    def test_determinism(self, instance):
        def run():
            sim, rt, detector = make_detector(instance, GossipSpec(), seed=7)
            sim.schedule(10.0, rt._crash, 3, 0)
            sim.run_until(200.0)
            return (detector.rumors_sent, detector.suspicions,
                    detector.refutations, float(detector._gos_out.sum()),
                    tuple(rt.metrics.detection_lags))

        assert run() == run()


class TestGossipResilience:
    """End-to-end runs through ``run_resilience`` under a gossip policy."""

    @pytest.fixture(scope="class")
    def crashy(self, instance):
        plan = FaultPlan(message_loss=0.03,
                         crash=CrashSpec(mean_recovery=90.0))
        return run_resilience(
            instance, plan, duration=DURATION, rng=SEED,
            recovery=RecoveryPolicy(detector=DetectorSpec(mode="gossip")),
        )

    def test_detects_and_repairs(self, crashy):
        out = crashy.outcome
        assert out.detections > 0
        assert out.gossip_declarations == out.detections
        assert out.gossip_rumors_sent > 0
        assert out.gossip_bytes > 0.0
        assert out.permanently_orphaned_clients == 0
        bound = crashy.recovery.detector.max_lag
        assert all(0.0 < lag <= bound for lag in out.detection_lags)

    def test_report_surface(self, crashy):
        assert crashy.false_suspicion_count == crashy.outcome.false_suspicions
        assert crashy.gossip_overhead == crashy.outcome.gossip_bytes > 0.0
        dist = crashy.detection_lag_distribution()
        assert dist["count"] == len(crashy.outcome.detection_lags)
        assert dist["min"] <= dist["p50"] <= dist["p90"] <= dist["max"]
        labels = [row[0] for row in crashy.summary_rows()]
        assert "gossip rumors sent" in labels
        assert "gossip overhead (bytes)" in labels

    def test_gossip_bytes_resum_from_cluster_tables(self, crashy):
        out = crashy.outcome
        resum = float(
            (out.gossip_cluster_bytes_in.sum()
             + out.gossip_cluster_bytes_out.sum()) * crashy.partners
        )
        assert resum == pytest.approx(out.gossip_bytes, rel=1e-9)
        units = float(out.gossip_cluster_units.sum() * crashy.partners)
        assert units == pytest.approx(out.gossip_units, rel=1e-9)

    def test_outcome_round_trips_with_gossip_tables(self, crashy):
        out = crashy.outcome
        clone = FaultOutcome.from_dict(json.loads(json.dumps(out.to_dict())))
        assert clone.gossip_rumors_sent == out.gossip_rumors_sent
        assert clone.gossip_bytes == pytest.approx(out.gossip_bytes)
        np.testing.assert_allclose(clone.gossip_cluster_bytes_in,
                                   out.gossip_cluster_bytes_in)
        np.testing.assert_allclose(clone.gossip_cluster_units,
                                   out.gossip_cluster_units)

    def test_loss_false_suspicions_refuted_without_promotion(self, instance):
        # Loss-only plan: nobody ever crashes, so every suspicion is
        # false, every one must end refuted, and no repair may fire.
        report = run_resilience(
            instance, FaultPlan(message_loss=0.10), duration=DURATION,
            rng=SEED,
            recovery=RecoveryPolicy(detector=DetectorSpec(
                mode="gossip",
                gossip=GossipSpec(probe_interval=2.0, suspect_timeout=4.0),
            )),
        )
        out = report.outcome
        assert out.false_suspicions > 0
        assert out.gossip_refutations > 0
        assert out.detections == 0
        assert out.promotions == 0

    def test_detector_switch_on_run_resilience(self, instance):
        """The policy's ``detector.mode`` is the one detector switch."""
        plan = FaultPlan(crash=CrashSpec(mean_recovery=90.0))
        report = run_resilience(
            instance, plan, duration=DURATION, rng=SEED,
            recovery=RecoveryPolicy(detector=DetectorSpec(mode="gossip")),
        )
        assert report.recovery.detector.mode == "gossip"
        assert report.outcome.gossip_rumors_sent > 0
        with pytest.raises(ValueError):
            DetectorSpec(mode="clairvoyant")

    def test_determinism(self, instance):
        plan = FaultPlan(message_loss=0.05,
                         crash=CrashSpec(mean_recovery=90.0))
        policy = RecoveryPolicy(detector=DetectorSpec(mode="gossip"))
        a = run_resilience(instance, plan, duration=DURATION, rng=SEED,
                           recovery=policy)
        b = run_resilience(instance, plan, duration=DURATION, rng=SEED,
                           baseline=a.baseline, recovery=policy)
        for name in ("gossip_rumors_sent", "gossip_suspicions",
                     "gossip_refutations", "gossip_declarations",
                     "gossip_messages", "false_suspicions", "detections"):
            assert getattr(a.outcome, name) == getattr(b.outcome, name)
        assert a.outcome.gossip_bytes == b.outcome.gossip_bytes
        np.testing.assert_array_equal(a.outcome.gossip_cluster_bytes_in,
                                      b.outcome.gossip_cluster_bytes_in)


class TestGossipAttribution:
    def test_raises_without_gossip_tables(self, instance):
        with pytest.raises(ValueError):
            gossip_attribution(instance, FaultOutcome(), DURATION)

    def test_rates_resum_from_outcome_tables(self, instance):
        plan = FaultPlan(message_loss=0.03,
                         crash=CrashSpec(mean_recovery=90.0))
        report = run_resilience(
            instance, plan, duration=DURATION, rng=SEED,
            recovery=RecoveryPolicy(detector=DetectorSpec(mode="gossip")),
        )
        out = report.outcome
        attribution = gossip_attribution(instance, out, DURATION)
        by_action = attribution.by_action()
        assert by_action["gossip"]["processing_hz"] > 0
        for action in ("query", "response", "join", "update", "repair"):
            assert by_action[action]["processing_hz"] == 0
        # The attributed per-partner rates must re-sum to the outcome's
        # per-cluster tables exactly (1e-9: pure bookkeeping, no model;
        # tables read back in figure units — bps and Hz).
        from repro.units import bytes_per_second_to_bps, units_per_second_to_hz

        np.testing.assert_allclose(
            attribution.superpeer_totals("in_bw"),
            bytes_per_second_to_bps(out.gossip_cluster_bytes_in / DURATION),
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            attribution.superpeer_totals("proc"),
            units_per_second_to_hz(out.gossip_cluster_units / DURATION),
            rtol=1e-9,
        )
        agg = attribution.aggregate(action="gossip")
        assert agg["incoming_bps"] * DURATION == pytest.approx(
            bytes_per_second_to_bps(
                float(out.gossip_cluster_bytes_in.sum())
            ) * instance.partners, rel=1e-9,
        )

    def test_profiler_verify_survives_the_new_action(self, instance):
        # ACTIONS grew a "gossip" class; the profiler's own 1e-9 re-sum
        # invariant must still close with the class present-but-empty.
        from repro.obs.attribution import profile_instance

        report, attribution = profile_instance(instance, max_sources=40,
                                               rng=SEED)
        errors = attribution.verify(report, rtol=1e-9)
        assert max(errors.values()) <= 1e-9
        assert attribution.by_action()["gossip"]["processing_hz"] == 0


class TestChaosIntegration:
    def test_worker_error_surfaces_seed_and_spec(self, monkeypatch):
        # A case that blows up inside the worker must surface the
        # reproduction recipe, not a bare trace.
        def broken_build(config, seed):
            raise RuntimeError("instance build failed")

        monkeypatch.setattr("repro.sim.chaos.build_instance", broken_build)
        spec = ChaosSpec(cases=1, base_seed=77, graph_size=50,
                         cluster_size=10, duration=50.0)
        with pytest.raises(ChaosCaseError) as err:
            run_chaos(spec, executor="serial")
        message = str(err.value)
        assert "seed=77" in message
        assert "instance build failed" in message
        assert "'graph_size': 50" in message
        assert "'cluster_size': 10" in message

    def test_gossip_chaos_smoke(self):
        spec = ChaosSpec(cases=2, base_seed=400, graph_size=120,
                         cluster_size=10, duration=150.0,
                         detector="gossip", replay=False)
        report = run_chaos(spec)
        assert report.passed, [c.violations for c in report.failures]
        assert ChaosSpec.from_dict(spec.to_dict()) == spec
        for case in report.cases:
            assert "gossip_rumors_sent" in case.summary

    def test_gossip_policies_change_only_the_detector(self):
        from repro.sim.chaos import generate_recovery_policy

        oracle = generate_recovery_policy(9, detector="oracle")
        gossip = generate_recovery_policy(9, detector="gossip")
        assert gossip.detector.mode == "gossip"
        assert gossip.detector.gossip is not None
        # The oracle-visible fields are drawn before the gossip fields,
        # so flipping the switch never reshuffles an oracle policy.
        assert dataclasses.replace(
            gossip, detector=dataclasses.replace(
                gossip.detector, mode="oracle", gossip=None)
        ) == oracle
        with pytest.raises(ValueError):
            generate_recovery_policy(9, detector="psychic")
