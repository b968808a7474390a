"""The unified experiment API: specs, the sweep executor, merge plumbing.

The load-bearing contracts:

* ``run_sweep(spec, jobs=1)`` is bit-identical to the historical
  hand-rolled ``evaluate_configuration`` loop;
* ``jobs=N`` returns exactly the same summaries, in the same point
  order, as ``jobs=1`` (the executor may move work, never change it);
* the per-point metrics/manifest fragments merge into totals that
  re-sum to the serial run's;
* specs, summaries and registries pickle (they cross process
  boundaries).
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import ExperimentSpec, SweepSpec, run_sweep
from repro.config import Configuration, GraphType
from repro.core.analysis import evaluate_configuration
from repro.obs.metrics import MetricsRegistry
from repro.stats.rng import derive_seed

#: Small enough to keep the parallel test fast, rich enough to exercise
#: both overlay families.
BASE = Configuration(graph_size=200, cluster_size=10, ttl=4, avg_outdegree=4.0)

SIZES = (5, 10, 20)


def small_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        name="t",
        base=BASE,
        grid={"cluster_size": SIZES},
        trials=2,
        seed=0,
        max_sources=30,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSpecs:
    def test_points_are_stable_product_order(self):
        spec = SweepSpec(
            name="t", base=BASE,
            grid={"ttl": (1, 2), "cluster_size": (5, 10)},
            trials=1,
        )
        overrides = [o for o, _ in spec.points()]
        assert overrides == [
            {"ttl": 1, "cluster_size": 5},
            {"ttl": 1, "cluster_size": 10},
            {"ttl": 2, "cluster_size": 5},
            {"ttl": 2, "cluster_size": 10},
        ]

    def test_invalid_points_skipped(self):
        spec = small_spec(grid={"cluster_size": (5, 10, 500)})  # 500 > 200 peers
        values = [o["cluster_size"] for o, _ in spec.points()]
        assert values == [5, 10]

    def test_invalid_points_raise_when_asked(self):
        spec = small_spec(grid={"cluster_size": (5, 500)}, skip_invalid=False)
        with pytest.raises(ValueError):
            spec.points()

    def test_unknown_grid_field_rejected(self):
        with pytest.raises(ValueError, match=r"unknown fields \['nope'\] at SweepSpec.grid;"):
            small_spec(grid={"nope": (1,)})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            small_spec(grid={})

    def test_seed_modes(self):
        shared = small_spec().points()
        assert {s.seed for _, s in shared} == {0}
        derived = small_spec(seed_mode="per-point").points()
        seeds = [s.seed for _, s in derived]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [derive_seed(0, i) for i in range(len(seeds))]

    def test_per_point_seeds_stable_under_skips(self):
        # An invalid point consumes its product index, so the surviving
        # points keep their seeds when the grid gains/loses bad values.
        spec = small_spec(grid={"cluster_size": (5, 500, 10)},
                          seed_mode="per-point")
        seeds = {o["cluster_size"]: s.seed for o, s in spec.points()}
        assert seeds == {5: derive_seed(0, 0), 10: derive_seed(0, 2)}

    def test_sweep_spec_round_trip(self):
        spec = small_spec()
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone.base == spec.base
        assert {k: list(v) for k, v in clone.grid.items()} == \
            {k: list(v) for k, v in spec.grid.items()}
        assert (clone.trials, clone.seed, clone.max_sources) == \
            (spec.trials, spec.seed, spec.max_sources)

    def test_sweep_spec_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match=r"unknown fields \['nope'\] at SweepSpec;"):
            SweepSpec.from_dict({"base": {}, "grid": {"ttl": [1]}, "nope": 1})

    def test_configuration_round_trip(self):
        config = Configuration(
            graph_type=GraphType.STRONG, graph_size=300, cluster_size=15,
            redundancy=True, ttl=2, query_rate=1e-3,
        )
        assert Configuration.from_dict(config.to_dict()) == config

    def test_configuration_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match=r"unknown fields \['graph_sizee'\] at Configuration;"):
            Configuration.from_dict({"graph_sizee": 100})


class TestSerialExecutor:
    def test_matches_hand_rolled_loop(self):
        """jobs=1 is bit-identical to the pre-API serial idiom."""
        result = run_sweep(small_spec(), jobs=1)
        for point in result:
            expected = evaluate_configuration(
                BASE.with_changes(**point.overrides),
                trials=2, seed=0, max_sources=30,
            )
            assert point.summary.intervals == expected.intervals

    def test_git_revision_is_looked_up_once_per_process(self, monkeypatch):
        from repro.obs import manifest

        calls = []
        run = manifest.subprocess.run

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(manifest.subprocess, "run", counted)
        manifest._git_revision.cache_clear()
        first = run_sweep(small_spec(trials=1), jobs=1)
        second = run_sweep(small_spec(trials=1), jobs=1)
        assert len(calls) <= 1
        assert first.manifest.git_rev == second.manifest.git_rev

    def test_point_order_and_series(self):
        result = run_sweep(small_spec(), jobs=1)
        assert [p.value("cluster_size") for p in result.points] == list(SIZES)
        xs, ys = result.series("superpeer_incoming_bps")
        assert xs == list(SIZES)
        assert all(y > 0 for y in ys)
        assert len(result) == len(SIZES)

    def test_series_requires_field_on_multi_grids(self):
        spec = small_spec(grid={"ttl": (1, 2), "cluster_size": (5, 10)},
                          trials=1)
        result = run_sweep(spec)
        with pytest.raises(ValueError, match="field_name"):
            result.series("epl")
        xs, _ = result.series("epl", "ttl")
        assert xs == [1, 1, 2, 2]

    def test_manifest_records_per_point_phases(self):
        result = run_sweep(small_spec(), jobs=1)
        for point in result.points:
            assert point.label in result.manifest.phases
        assert result.manifest.extra["jobs"] == 1
        assert result.manifest.config_hash is not None

    def test_registry_counts_match_point_totals(self):
        result = run_sweep(small_spec(), jobs=1)
        counters = result.registry.snapshot()["counters"]
        # trials=2 instances per point, one evaluation each.
        assert counters["load.instances_evaluated"] == 2 * len(SIZES)


@pytest.mark.slow
class TestParallelExecutor:
    def test_parallel_matches_serial_bit_for_bit(self):
        spec = small_spec()
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert parallel.jobs == 4
        assert [p.overrides for p in parallel] == [p.overrides for p in serial]
        for a, b in zip(serial.points, parallel.points):
            assert a.summary.intervals == b.summary.intervals
            assert a.summary.config == b.summary.config

    def test_parallel_merged_observability_matches_serial(self):
        spec = small_spec()
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        s, p = serial.registry.snapshot(), parallel.registry.snapshot()
        assert s["counters"] == p["counters"]
        assert s["histograms"] == p["histograms"]
        # Phase keys agree; wall-clock values legitimately differ.
        assert set(serial.manifest.phases) == set(parallel.manifest.phases)

    def test_parallel_on_golden_config(self):
        """Serial-vs-parallel identity on a golden-quartet configuration."""
        golden = Configuration(
            graph_type=GraphType.POWER_LAW, graph_size=300, cluster_size=10,
            avg_outdegree=4.0, ttl=4,
        )
        spec = SweepSpec(
            name="golden", base=golden, grid={"cluster_size": (10, 20)},
            trials=1, seed=3, max_sources=None,
        )
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        for a, b in zip(serial.points, parallel.points):
            assert a.summary.intervals == b.summary.intervals


class TestPickling:
    def test_specs_pickle(self):
        spec = small_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.base == spec.base
        point_spec = spec.points()[0][1]
        point_clone = pickle.loads(pickle.dumps(point_spec))
        assert point_clone == point_spec

    def test_summary_pickles(self):
        summary = ExperimentSpec(
            config=BASE, trials=1, seed=0, max_sources=20
        ).run()
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.intervals == summary.intervals
        assert clone.config == summary.config

    def test_registry_pickles_with_live_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").add(3)
        registry.gauge("g").set(7.5)
        registry.timer("t").record(0.25)
        registry.histogram("h").observe(42.0)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()
        # The rebuilt instruments stay usable (locks recreated).
        clone.counter("c").add(1)
        assert clone.counter("c").value == 4

    def test_sweep_result_registry_merges_after_pickle(self):
        result = run_sweep(small_spec(grid={"cluster_size": (5, 10)},
                                      trials=1), jobs=1)
        clone = pickle.loads(pickle.dumps(result.registry))
        merged = MetricsRegistry().merge(clone)
        assert merged.snapshot()["counters"] == \
            result.registry.snapshot()["counters"]


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(small_spec(), jobs=0)

    def test_bad_seed_mode_rejected(self):
        with pytest.raises(ValueError, match="seed_mode"):
            small_spec(seed_mode="chaotic")


class TestInstanceCache:
    """The fingerprint-keyed builder cache behind sweeps."""

    def test_cached_builder_is_bit_identical(self):
        from repro.topology.builder import (
            build_instance, build_instance_cached, clear_instance_cache,
        )

        clear_instance_cache()
        fresh = build_instance(BASE, seed=7)
        cached = build_instance_cached(BASE, seed=7)
        import numpy as np
        assert np.array_equal(fresh.client_files, cached.client_files)
        assert np.array_equal(fresh.partner_files, cached.partner_files)
        assert np.array_equal(fresh.clients, cached.clients)
        assert np.array_equal(fresh.graph.indptr, cached.graph.indptr)
        assert np.array_equal(fresh.graph.indices, cached.graph.indices)
        # Second call is the same object — no regeneration.
        assert build_instance_cached(BASE, seed=7) is cached

    def test_non_generative_fields_share_one_build(self):
        """A TTL variant reuses the cached arrays under its own config."""
        from repro.topology.builder import (
            build_instance_cached, clear_instance_cache,
        )

        clear_instance_cache()
        base = build_instance_cached(BASE, seed=7)
        other = build_instance_cached(BASE.with_changes(ttl=2), seed=7)
        assert other.config.ttl == 2
        assert other.graph is base.graph
        assert other.client_files is base.client_files

    def test_generative_fields_miss_the_cache(self):
        from repro.topology.builder import (
            build_instance_cached, clear_instance_cache,
        )

        clear_instance_cache()
        base = build_instance_cached(BASE, seed=7)
        other = build_instance_cached(
            BASE.with_changes(graph_size=100), seed=7
        )
        assert other.graph is not base.graph
        assert other.num_clusters != base.num_clusters
