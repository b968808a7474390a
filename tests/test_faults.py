"""Fault plans, the fault runtime, and sampled propagation."""

import numpy as np
import pytest

from repro.config import Configuration
from repro.core import costs
from repro.core.routing import propagate_query
from repro.sim.engine import Simulator
from repro.sim.faults import (
    CrashSpec,
    FaultOutcome,
    FaultPlan,
    FaultRuntime,
    PartitionWindow,
    RetryPolicy,
    SlowSpec,
    lossy_accumulate,
    sample_response_edges,
    sampled_propagation,
)
from repro.topology.builder import build_instance
from repro.topology.graph import OverlayGraph

from _oracle import scalar_fold, scalar_sampled_flood


@pytest.fixture(scope="module")
def instance():
    config = Configuration(graph_size=300, cluster_size=10, redundancy=True)
    return build_instance(config, seed=1)


def make_runtime(instance, plan=None, seed=0):
    plan = plan or FaultPlan()
    return FaultRuntime(plan, instance, np.random.default_rng(seed))


class TestFaultPlan:
    def test_defaults_are_null(self):
        assert FaultPlan().is_null

    def test_retry_alone_is_null(self):
        # A retry policy without anything to retry against injects nothing.
        assert FaultPlan(retry=RetryPolicy()).is_null

    def test_zero_fraction_slow_is_null(self):
        assert FaultPlan(slow=SlowSpec(fraction=0.0)).is_null

    def test_each_fault_breaks_nullness(self):
        assert not FaultPlan(message_loss=0.01).is_null
        assert not FaultPlan(crash=CrashSpec()).is_null
        assert not FaultPlan(
            partitions=(PartitionWindow(0.0, 1.0, (0,)),)
        ).is_null
        assert not FaultPlan(slow=SlowSpec(fraction=0.1)).is_null

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(message_loss=1.0)
        with pytest.raises(ValueError):
            CrashSpec(mean_recovery=0.0)
        with pytest.raises(ValueError):
            PartitionWindow(5.0, 5.0, (0,))
        with pytest.raises(ValueError):
            PartitionWindow(0.0, 1.0, ())
        with pytest.raises(ValueError):
            SlowSpec(fraction=1.5)
        with pytest.raises(ValueError):
            SlowSpec(fraction=0.5, factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)

    def test_slow_drop_probability(self):
        assert SlowSpec(fraction=0.1, factor=2.0).drop_prob == pytest.approx(0.5)
        assert SlowSpec(fraction=0.1, factor=1.0).drop_prob == 0.0

    def test_compose_other_nondefault_wins(self):
        loss = FaultPlan(message_loss=0.1)
        crash = FaultPlan(crash=CrashSpec(mean_recovery=60.0))
        merged = loss | crash
        assert merged.message_loss == 0.1
        assert merged.crash.mean_recovery == 60.0
        override = merged | FaultPlan(message_loss=0.5)
        assert override.message_loss == 0.5
        assert override.crash is not None

    def test_with_changes(self):
        plan = FaultPlan(message_loss=0.1).with_changes(retry=RetryPolicy())
        assert plan.message_loss == 0.1
        assert plan.retry is not None

    def test_describe(self):
        assert FaultPlan().describe() == "no faults"
        text = FaultPlan(
            message_loss=0.05, crash=CrashSpec(), retry=RetryPolicy()
        ).describe()
        assert "loss=0.05/hop" in text
        assert "crash" in text
        assert "retry" in text


class TestFaultRuntime:
    def test_crash_counters_are_consistent(self, instance):
        rt = make_runtime(
            instance, FaultPlan(crash=CrashSpec(mean_recovery=120.0)), seed=3
        )
        sim = Simulator()
        rebuilt = []
        rt.install(sim, lambda c, p: rebuilt.append((c, p)))
        sim.run_until(5000.0)
        out = rt.finish(5000.0)
        assert out.partner_crashes > 0
        down_now = int((~rt.up).sum())
        assert out.partner_recoveries == out.partner_crashes - down_now
        # Every crash either blacks the cluster out or is absorbed.
        assert out.failovers + out.outages == out.partner_crashes
        # The network layer is told about every recovery (index rebuild).
        assert len(rebuilt) == out.partner_recoveries
        assert (rt.live == rt.up.sum(axis=1)).all()

    def test_outage_accounting(self, instance):
        rt = make_runtime(
            instance,
            FaultPlan(crash=CrashSpec(mean_recovery=400.0, lifespan_scale=0.5)),
            seed=4,
        )
        sim = Simulator()
        rt.install(sim, lambda c, p: None)
        sim.run_until(4000.0)
        out = rt.finish(4000.0)
        assert out.outages > 0
        assert out.longest_outage > 0
        assert out.orphaned_client_seconds > 0
        assert out.cluster_downtime is not None
        assert (out.cluster_downtime <= 4000.0).all()
        # Recovered blackouts all fit under the longest one.
        assert all(t <= out.longest_outage for t in out.recovery_times)

    def test_edge_cut_only_during_window(self, instance):
        plan = FaultPlan(partitions=(PartitionWindow(10.0, 20.0, (0, 1)),))
        rt = make_runtime(instance, plan)
        senders = np.array([0, 2, 0])
        targets = np.array([2, 3, 1])
        assert rt.edge_cut(senders, targets, 5.0) is None
        cut = rt.edge_cut(senders, targets, 15.0)
        # Island boundary crossings are severed, internal hops are not.
        assert cut.tolist() == [True, False, False]

    def test_partition_island_validated(self, instance):
        plan = FaultPlan(
            partitions=(PartitionWindow(0.0, 1.0, (instance.num_clusters,)),)
        )
        with pytest.raises(ValueError):
            make_runtime(instance, plan)


class TestSampledPropagation:
    def test_no_faults_matches_deterministic_flood(self, instance):
        rt = make_runtime(instance)
        prop, stats = sampled_propagation(instance.graph, 0, 7, rt, 0.0)
        exact = propagate_query(instance.graph, 0, 7)
        assert np.array_equal(prop.depth, exact.depth)
        assert np.array_equal(prop.transmissions, exact.transmissions)
        assert np.array_equal(prop.receipts, exact.receipts)
        assert stats.lost == 0

    def test_dark_clusters_truncate_like_blocked_flood(self, instance):
        rt = make_runtime(instance)
        exact = propagate_query(instance.graph, 0, 7)
        # Kill the source's busiest relay.
        reached = np.nonzero(exact.reached)[0]
        dead = int(reached[np.argmax(exact.transmissions[reached])])
        if dead == 0:
            dead = int(reached[1])
        rt.up[dead] = False
        rt.live[dead] = 0
        prop, stats = sampled_propagation(instance.graph, 0, 7, rt, 0.0)
        blocked = np.zeros(instance.num_clusters, dtype=bool)
        blocked[dead] = True
        expected = propagate_query(instance.graph, 0, 7, blocked=blocked)
        assert np.array_equal(prop.depth, expected.depth)
        assert np.array_equal(prop.receipts, expected.receipts)
        assert prop.reach < exact.reach
        assert stats.lost > 0  # sends at the dead relay were attempted

    def test_dark_source_floods_nothing(self, instance):
        rt = make_runtime(instance)
        rt.up[0] = False
        rt.live[0] = 0
        prop, stats = sampled_propagation(instance.graph, 0, 7, rt, 0.0)
        assert prop.reach == 0
        assert stats.attempted == 0

    def test_loss_shrinks_reach(self, instance):
        rt = make_runtime(instance, FaultPlan(message_loss=0.6), seed=7)
        prop, stats = sampled_propagation(instance.graph, 0, 7, rt, 0.0)
        exact = propagate_query(instance.graph, 0, 7)
        assert prop.reach < exact.reach
        assert stats.lost > 0
        assert stats.delivered == stats.attempted - stats.lost

    def test_deterministic_under_fixed_stream(self, instance):
        plan = FaultPlan(message_loss=0.3)
        a, sa = sampled_propagation(
            instance.graph, 0, 7, make_runtime(instance, plan, seed=9), 0.0
        )
        b, sb = sampled_propagation(
            instance.graph, 0, 7, make_runtime(instance, plan, seed=9), 0.0
        )
        assert np.array_equal(a.depth, b.depth)
        assert sa == sb


class TestResponsePath:
    def test_lossless_accumulate_matches_fault_free_fold(self, instance):
        rt = make_runtime(instance)
        prop, _ = sampled_propagation(instance.graph, 0, 7, rt, 0.0)
        weights = np.where(prop.reached, 2.0, 0.0)
        weights[0] = 0.0
        edge_pass = sample_response_edges(prop, rt, 0.0)
        assert edge_pass[np.nonzero(prop.reached)[0][1:]].all()
        sent, received = lossy_accumulate(prop, edge_pass, [weights])
        folded = prop.accumulate_to_source(weights)
        assert received[0][0] == pytest.approx(folded[0])

    def test_severed_edge_drops_subtree(self, instance):
        rt = make_runtime(instance)
        prop, _ = sampled_propagation(instance.graph, 0, 7, rt, 0.0)
        weights = np.where(prop.reached, 1.0, 0.0)
        weights[0] = 0.0
        edge_pass = sample_response_edges(prop, rt, 0.0)
        # Sever one depth-1 child of the source: its whole subtree's
        # responses vanish, but the child itself still pays the send.
        child = int(np.nonzero(prop.depth == 1)[0][0])
        edge_pass[child] = False
        sent, received = lossy_accumulate(prop, edge_pass, [weights])
        folded = prop.accumulate_to_source(weights)
        assert received[0][0] < folded[0]
        assert sent[0][child] >= 1.0

    def test_lossy_accumulate_is_the_scalar_lossy_fold(self, instance):
        # The masked fold, with received = sent - weights, against the
        # level-by-level fold that keeps a separate received accumulator.
        rt = make_runtime(instance, FaultPlan(message_loss=0.3), seed=5)
        prop, _ = sampled_propagation(instance.graph, 0, 7, rt, 0.0)
        edge_pass = sample_response_edges(prop, rt, 0.0)
        assert not edge_pass[prop.reached].all()
        rng = np.random.default_rng(1)
        channels = [np.where(prop.reached, rng.integers(0, 9, prop.depth.size), 0)
                    .astype(float) for _ in range(3)]
        sent, received = lossy_accumulate(prop, edge_pass, channels)
        for c, weights in enumerate(channels):
            sent_ref, received_ref = scalar_fold(prop, weights, edge_pass)
            assert np.array_equal(sent[c], sent_ref)
            assert np.array_equal(received[c], received_ref)

    def test_full_loss_delivers_nothing_remote(self, instance):
        rt = make_runtime(instance, FaultPlan(message_loss=0.99), seed=11)
        prop, _ = sampled_propagation(instance.graph, 0, 7, rt, 0.0)
        edge_pass = np.zeros(instance.num_clusters, dtype=bool)
        weights = np.where(prop.reached, 1.0, 0.0)
        weights[0] = 0.0
        _, received = lossy_accumulate(prop, edge_pass, [weights])
        assert received[0][0] == 0.0


class TestFaultOutcome:
    def test_success_rate_defaults_to_one(self):
        assert FaultOutcome().query_success_rate == 1.0

    def test_success_rate(self):
        out = FaultOutcome(queries_attempted=10, queries_failed=3)
        assert out.query_success_rate == pytest.approx(0.7)

    def test_mean_time_to_recover(self):
        out = FaultOutcome(recovery_times=[10.0, 30.0])
        assert out.mean_time_to_recover == pytest.approx(20.0)
        assert FaultOutcome().mean_time_to_recover == 0.0


class TestFaultPlanValidation:
    """Construction-time rejection of malformed plans (clear errors)."""

    def test_nan_loss_named_in_error(self):
        with pytest.raises(ValueError, match="message_loss must not be NaN"):
            FaultPlan(message_loss=float("nan"))

    def test_negative_loss_named_in_error(self):
        with pytest.raises(ValueError, match="message_loss"):
            FaultPlan(message_loss=-0.1)

    def test_slow_nan_fraction_rejected(self):
        with pytest.raises(ValueError):
            SlowSpec(fraction=float("nan"))

    def test_overlapping_windows_on_shared_island_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan(partitions=(
                PartitionWindow(0.0, 100.0, (0, 1)),
                PartitionWindow(50.0, 150.0, (1, 2)),
            ))

    def test_overlapping_windows_disjoint_islands_allowed(self):
        plan = FaultPlan(partitions=(
            PartitionWindow(0.0, 100.0, (0, 1)),
            PartitionWindow(50.0, 150.0, (2, 3)),
        ))
        assert len(plan.partitions) == 2

    def test_touching_windows_allowed(self):
        # end == start is not an overlap: the first cut heals exactly
        # when the second opens.
        plan = FaultPlan(partitions=(
            PartitionWindow(0.0, 100.0, (0,)),
            PartitionWindow(100.0, 150.0, (0,)),
        ))
        assert len(plan.partitions) == 2


class TestRetryBackoffCeiling:
    def test_defaults_match_historical_expression(self):
        # The pre-ceiling code computed timeout * backoff**attempt
        # inline; the default policy must reproduce it exactly for the
        # attempt counts the retry loop actually reaches.
        policy = RetryPolicy(timeout=5.0, max_retries=2)
        for attempt in range(8):
            assert policy.wait_before(attempt) == min(
                5.0 * 2.0 ** attempt, policy.ceiling
            )

    def test_ceiling_caps_wait(self):
        policy = RetryPolicy(timeout=10.0, backoff=3.0, ceiling=60.0)
        waits = [policy.wait_before(a) for a in range(6)]
        assert waits[0] == 10.0
        assert waits[1] == 30.0
        assert all(w <= 60.0 for w in waits)
        assert waits[3] == 60.0

    def test_huge_attempt_does_not_overflow(self):
        # 2.0**1100 raises OverflowError if exponentiated naively.
        policy = RetryPolicy(timeout=5.0)
        assert policy.wait_before(1100) == policy.ceiling
        assert policy.wait_before(10**9) == policy.ceiling

    def test_backoff_one_is_flat(self):
        policy = RetryPolicy(timeout=5.0, backoff=1.0)
        assert policy.wait_before(0) == 5.0
        assert policy.wait_before(10**9) == 5.0

    def test_monotone_nondecreasing(self):
        policy = RetryPolicy(timeout=1.0, backoff=1.7, ceiling=40.0)
        waits = [policy.wait_before(a) for a in range(20)]
        assert waits == sorted(waits)

    def test_validation(self):
        with pytest.raises(ValueError, match="ceiling"):
            RetryPolicy(timeout=10.0, ceiling=5.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=5.0, ceiling=float("nan"))
        with pytest.raises(ValueError):
            RetryPolicy().wait_before(-1)


class TestSerialization:
    def test_fault_plan_round_trip(self):
        plan = FaultPlan(
            message_loss=0.05,
            crash=CrashSpec(mean_recovery=90.0, lifespan_scale=1.2),
            partitions=(PartitionWindow(10.0, 50.0, (0, 3)),),
            slow=SlowSpec(fraction=0.2, factor=3.0),
            retry=RetryPolicy(timeout=4.0, max_retries=3, backoff=1.5,
                              ceiling=64.0),
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.to_dict() == plan.to_dict()

    def test_null_plan_round_trip(self):
        assert FaultPlan.from_dict(FaultPlan().to_dict()).is_null

    def test_fault_outcome_round_trip(self):
        out = FaultOutcome(
            queries_attempted=10, queries_failed=2, retries=3,
            partner_crashes=4, failovers=2, outages=1,
            recovery_times=[12.5], orphaned_client_seconds=88.0,
            flood_messages_lost=7, flood_messages_attempted=100,
            flood_messages_delivered=93, detections=4,
            detection_lags=[10.0, 12.0], promotions=2,
            rehomed_clients=3, links_healed=1, links_restored=1,
            repair_messages=40, repair_bytes=5_000.0,
            cluster_downtime=np.array([0.0, 12.5]),
            repair_cluster_units=np.array([1.0, 2.0]),
        )
        clone = FaultOutcome.from_dict(out.to_dict())
        assert clone.to_dict() == out.to_dict()
        assert clone.queries_attempted == 10
        assert clone.mean_detection_lag == pytest.approx(11.0)
        assert np.array_equal(clone.cluster_downtime, out.cluster_downtime)
        assert np.array_equal(clone.repair_cluster_units,
                              out.repair_cluster_units)
        assert clone.repair_cluster_bytes_in is None


# --- property-based tests (hypothesis) ---------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@pytest.fixture(scope="module")
def small_instance():
    config = Configuration(graph_size=150, cluster_size=10, redundancy=True)
    return build_instance(config, seed=2)


class TestSampledPropagationProperties:
    """What is provably true of lossy floods, over random plans.

    Note what is *not* claimed: pathwise monotonicity of delivered
    count between two arbitrary nonzero loss rates.  With ttl > 1 a
    higher loss rate consumes a different number of uniforms per
    frontier, so the streams decouple and occasional inversions are
    real (observed ~0.1% of paired draws).  The couplings below are the
    ones that hold exactly.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        loss=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
        ttl=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_message_conservation(self, small_instance, loss, ttl, seed):
        rt = make_runtime(small_instance, FaultPlan(message_loss=loss)
                          if loss else None, seed=seed)
        _, stats = sampled_propagation(small_instance.graph, 0, ttl, rt, 0.0)
        assert stats.attempted == stats.delivered + stats.lost
        assert stats.delivered >= 0 and stats.lost >= 0

    @settings(max_examples=40, deadline=None)
    @given(
        loss=st.floats(min_value=0.001, max_value=0.95, allow_nan=False),
        ttl=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_lossy_never_beats_lossless(self, small_instance, loss, ttl, seed):
        lossy_rt = make_runtime(
            small_instance, FaultPlan(message_loss=loss), seed=seed
        )
        _, lossy = sampled_propagation(
            small_instance.graph, 0, ttl, lossy_rt, 0.0
        )
        _, free = sampled_propagation(
            small_instance.graph, 0, ttl, make_runtime(small_instance), 0.0
        )
        assert lossy.delivered <= free.delivered
        assert lossy.attempted <= free.attempted

    @settings(max_examples=40, deadline=None)
    @given(
        p1=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
        delta=st.floats(min_value=0.0, max_value=0.09, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_ttl1_coupling_is_monotone(self, small_instance, p1, delta, seed):
        # At ttl = 1 both runs sample the identical frontier with the
        # identical uniforms, so raising the loss rate can only shrink
        # the delivered set — exact pathwise monotonicity.
        p2 = p1 + delta
        delivered = []
        for p in (p1, p2):
            plan = FaultPlan(message_loss=p) if p > 0 else None
            rt = make_runtime(small_instance, plan, seed=seed)
            _, stats = sampled_propagation(small_instance.graph, 0, 1, rt, 0.0)
            delivered.append(stats.delivered)
        assert delivered[1] <= delivered[0]

    @settings(max_examples=60, deadline=None)
    @given(
        loss=st.sampled_from([0.0, 0.05, 0.3, 0.8]),
        slow=st.sampled_from([0.0, 0.4]),
        cut=st.booleans(),
        dead=st.lists(st.integers(min_value=0, max_value=14), max_size=4),
        source=st.integers(min_value=0, max_value=14),
        ttl=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        isolated=st.booleans(),
    )
    def test_bit_identical_to_scalar_sampled_flood(
        self, small_instance, loss, slow, cut, dead, source, ttl, seed,
        isolated,
    ):
        # The kernel's deliver hook must draw exactly the scalar flood's
        # uniforms, in its order: same flood, same stats, and the fault
        # stream left in the same state for whatever draws next.  An
        # isolated (degree-0) source gathers no edges at hop 0.
        graph = small_instance.graph
        if isolated:
            graph = OverlayGraph.from_edges(
                graph.num_nodes,
                [e for e in graph.edge_list() if source not in e])
        plan = FaultPlan(
            message_loss=loss,
            slow=SlowSpec(fraction=slow, factor=3.0) if slow else None,
            partitions=(PartitionWindow(0.0, 10.0, (0, 1, 2, 3, 4)),) if cut else (),
        )
        outcomes = []
        for flood in (sampled_propagation, scalar_sampled_flood):
            rt = make_runtime(small_instance, plan, seed=seed)
            rt.up[dead] = False
            rt.live[dead] = 0
            result = flood(graph, source, ttl, rt, 1.0)
            outcomes.append((result, rt.rng.random()))
        ((prop, stats), after), ((ref, attempted, delivered), ref_after) = outcomes
        assert np.array_equal(prop.depth, ref.depth)
        assert np.array_equal(prop.pred, ref.pred)
        assert np.array_equal(prop.transmissions, ref.transmissions)
        assert np.array_equal(prop.receipts, ref.receipts)
        assert (stats.attempted, stats.delivered) == (attempted, delivered)
        assert after == ref_after
        if isolated:
            assert prop.reach == (1 if rt.live[source] else 0)
            assert stats.attempted == 0

    @settings(max_examples=25, deadline=None)
    @given(
        source=st.integers(min_value=0, max_value=14),
        ttl=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_zero_loss_bit_identical_to_fault_free(
        self, small_instance, source, ttl, seed
    ):
        # Zero loss must not consume the stream differently from the
        # deterministic flood — same depths, transmissions, receipts,
        # regardless of the runtime's seed.
        rt = make_runtime(small_instance, seed=seed)
        prop, stats = sampled_propagation(
            small_instance.graph, source, ttl, rt, 0.0
        )
        exact = propagate_query(small_instance.graph, source, ttl)
        assert np.array_equal(prop.depth, exact.depth)
        assert np.array_equal(prop.transmissions, exact.transmissions)
        assert np.array_equal(prop.receipts, exact.receipts)
        assert stats.lost == 0


class TestSilentAttemptProperties:
    """Why a flood nobody answers may skip its Response pass.

    ``network._flood_attempt`` skips the fold, the Response pricing and
    the meter charges when no reached cluster but the source has
    results.  That is bit-identical only because each of them would add
    an exact ``+0.0``: all-zero channels fold to ``+0.0`` over any
    surviving-edge mask, and zero Responses cost ``+0.0`` at any
    non-negative connection count.  An unread edge mask still draws the
    fault stream's uniforms.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.integers(min_value=0, max_value=14),
        ttl=st.integers(min_value=1, max_value=7),
        loss=st.sampled_from([0.0, 0.3]),
        mask=st.sampled_from(["sampled", "random", "none"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_zero_channels_fold_to_positive_zero(
        self, small_instance, source, ttl, loss, mask, seed
    ):
        rt = make_runtime(small_instance, FaultPlan(message_loss=loss),
                          seed=seed)
        prop, _ = sampled_propagation(small_instance.graph, source, ttl, rt, 0.0)
        n = prop.depth.size
        edge_pass = None
        if mask == "sampled":
            edge_pass = sample_response_edges(prop, rt, 0.0)
        elif mask == "random":
            edge_pass = np.random.default_rng(seed).random(n) < 0.5
        zeros = np.zeros(n)
        sent, received = lossy_accumulate(prop, edge_pass, [zeros] * 3)
        for rows in (sent, received):
            assert not rows.any()
            assert not np.signbit(rows).any()

    @settings(max_examples=60, deadline=None)
    @given(m=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    def test_zero_responses_cost_positive_zero(self, m):
        for price in (costs.send_response, costs.recv_response):
            for value in price(0, 0, 0, m):
                assert value == 0.0 and not np.signbit(value)
            zeros = np.zeros(4)
            for value in price(zeros, zeros, zeros, np.full(4, m)):
                assert not value.any() and not np.signbit(value).any()

    @settings(max_examples=60, deadline=None)
    @given(
        loss=st.sampled_from([0.0, 0.05, 0.8]),
        slow=st.sampled_from([0.0, 0.4]),
        cut=st.booleans(),
        source=st.integers(min_value=0, max_value=14),
        ttl=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_unread_edges_draw_the_same_uniforms(
        self, small_instance, loss, slow, cut, source, ttl, seed
    ):
        plan = FaultPlan(
            message_loss=loss,
            slow=SlowSpec(fraction=slow, factor=3.0) if slow else None,
            partitions=(PartitionWindow(0.0, 10.0, (0, 1, 2, 3, 4)),) if cut else (),
        )
        states = []
        for read in (True, False):
            rt = make_runtime(small_instance, plan, seed=seed)
            prop, _ = sampled_propagation(small_instance.graph, source, ttl,
                                          rt, 1.0)
            edge_pass = sample_response_edges(prop, rt, 1.0, read)
            assert (edge_pass is None) == (not read)
            states.append(rt.rng.bit_generator.state)
        assert states[0] == states[1]
