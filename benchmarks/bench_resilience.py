"""RES — extension: degraded-mode operation under a shared fault plan.

Section 3.2 argues for k-redundant virtual super-peers on reliability
grounds; ``bench_reliability`` quantifies the availability half of that
claim in isolation.  This benchmark closes the loop at the protocol
level: the *same* fault plan (partner crashes at the calibrated Gnutella
session lengths, per-hop message loss, bounded retry) is injected into
the full message-level simulator for k = 1 and k = 2, and the degraded
network is measured end to end — query success rate, results lost
against a fault-free baseline, orphaned client-seconds, failovers, and
time-to-recover.  k = 2 must strictly dominate k = 1 on success rate.
"""

from repro.config import Configuration
from repro.reporting import render_table
from repro.sim.faults import CrashSpec, FaultPlan, PartitionWindow, RetryPolicy
from repro.sim.monitor import DetectorSpec
from repro.sim.recovery import RecoveryPolicy, repair_attribution
from repro.sim.resilience import run_resilience
from repro.topology.builder import build_instance

from conftest import run_once

MEAN_RECOVERY = 120.0    # seconds to bring a crashed partner back
MESSAGE_LOSS = 0.02      # per-hop delivery failure probability
DURATION = 2_500.0       # virtual seconds per run
SEED = 11


def test_resilience_k1_vs_k2(benchmark, emit):
    plan = FaultPlan(
        message_loss=MESSAGE_LOSS,
        crash=CrashSpec(mean_recovery=MEAN_RECOVERY),
        retry=RetryPolicy(timeout=5.0, max_retries=2),
    )
    size = 600

    def experiment():
        out = {}
        for k, redundancy in ((1, False), (2, True)):
            config = Configuration(
                graph_size=size, cluster_size=10, redundancy=redundancy
            )
            instance = build_instance(config, seed=SEED)
            out[k] = run_resilience(
                instance, plan, duration=DURATION, rng=SEED
            )
        return out

    reports = run_once(benchmark, experiment)

    rows = []
    for k, report in reports.items():
        outcome = report.outcome
        rows.append([
            k,
            f"{report.query_success_rate:.4f}",
            f"{report.results_lost_fraction:.1%}",
            f"{report.cluster_availability:.4f}",
            f"{report.orphaned_client_seconds:.0f}",
            outcome.failovers,
            f"{report.mean_time_to_recover:.1f}",
            f"{report.longest_outage:.1f}",
        ])

    r1, r2 = reports[1], reports[2]
    # The headline claim: under the identical fault plan, redundancy
    # strictly improves end-to-end query success.
    assert r2.query_success_rate > r1.query_success_rate
    # ... because the cluster itself stays reachable far more often.
    assert r2.cluster_availability > r1.cluster_availability
    # k=1 has no partner to fail over to; k=2 absorbs failovers.
    assert r1.outcome.failovers == 0
    assert r2.outcome.failovers > 0
    # Losing a lone super-peer strands its whole cluster; with a partner
    # the clients keep a live socket.
    assert r2.orphaned_client_seconds < r1.orphaned_client_seconds

    emit("RES_degraded_mode", render_table(
        ["k", "success rate", "results lost", "availability",
         "orphan client-s", "failovers", "mean TTR (s)", "longest outage (s)"],
        rows,
        title=(
            f"degraded-mode metrics under a shared fault plan "
            f"({plan.describe()}; {DURATION:.0f}s, {size} peers)"
        ),
    ))


def test_self_healing_bounds_recovery(benchmark, emit):
    """The Section 5.3 repair rules turn unbounded outages into bounded ones.

    The identical crash-heavy plan runs twice — recovery off, recovery on.
    With recovery on, every blackout must end within one detection lag
    plus one promotion, no client may stay orphaned past the repair
    grace window, and the repair traffic must be attributable per
    cluster.
    """
    plan = FaultPlan(
        message_loss=MESSAGE_LOSS,
        crash=CrashSpec(mean_recovery=MEAN_RECOVERY),
        partitions=(PartitionWindow(400.0, 800.0, (0, 1, 2)),),
        retry=RetryPolicy(timeout=5.0, max_retries=2),
    )
    policy = RecoveryPolicy(
        detector=DetectorSpec(heartbeat_interval=5.0, timeout_beats=2),
        promotion_time=10.0,
    )
    size = 600
    config = Configuration(graph_size=size, cluster_size=10, redundancy=True)
    instance = build_instance(config, seed=SEED)

    def experiment():
        unaided = run_resilience(instance, plan, duration=DURATION, rng=SEED)
        healed = run_resilience(
            instance, plan, duration=DURATION, rng=SEED,
            baseline=unaided.baseline, recovery=policy,
        )
        return unaided, healed

    unaided, healed = run_once(benchmark, experiment)
    out = healed.outcome

    # Time-to-recover is bounded by detection lag + repair time: a dark
    # cluster is detected within max_lag of its last partner's crash and
    # repaired one promotion later.
    ttr_bound = policy.detector.max_lag + policy.promotion_time + 1e-6
    assert out.recovery_times, "crash plan produced no closed outages"
    assert max(out.recovery_times) <= ttr_bound
    assert healed.longest_outage <= ttr_bound
    # Without recovery, crashed partners sit dark for ~MEAN_RECOVERY.
    assert unaided.longest_outage > ttr_bound

    # No client is orphaned forever, and far fewer client-seconds are
    # lost than when clusters must wait out natural recovery.
    assert out.permanently_orphaned_clients == 0
    assert healed.orphaned_client_seconds < unaided.orphaned_client_seconds

    # The repairs actually ran and their cost is visible per cluster.
    assert out.detections > 0 and out.promotions > 0
    assert out.links_healed > 0 and out.overlay_restored
    attribution = repair_attribution(instance, out, DURATION)
    by_action = attribution.by_action()
    assert by_action["repair"]["processing_hz"] > 0

    emit("RES_self_healing", render_table(
        ["recovery", "success rate", "orphan client-s", "mean TTR (s)",
         "longest outage (s)", "promotions", "repair KB"],
        [
            ["off", f"{unaided.query_success_rate:.4f}",
             f"{unaided.orphaned_client_seconds:.0f}",
             f"{unaided.mean_time_to_recover:.1f}",
             f"{unaided.longest_outage:.1f}", 0, "0"],
            ["on", f"{healed.query_success_rate:.4f}",
             f"{healed.orphaned_client_seconds:.0f}",
             f"{healed.mean_time_to_recover:.1f}",
             f"{healed.longest_outage:.1f}", out.promotions,
             f"{out.repair_cost / 1e3:.0f}"],
        ],
        title=(
            f"self-healing vs unaided degraded mode "
            f"({plan.describe()}; {policy.describe()}; "
            f"{DURATION:.0f}s, {size} peers)"
        ),
    ))
