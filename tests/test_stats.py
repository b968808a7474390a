"""stats subpackage: RNG plumbing, confidence intervals, grouped stats."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.stats.confidence import ConfidenceInterval, mean_confidence_interval
from repro.stats.histogram import GroupedStats, group_by
from repro.stats.rng import (
    derive_rng,
    sample_truncated_normal,
    spawn_rngs,
    zipf_pmf,
)


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(42, "topology").random(5)
        b = derive_rng(42, "topology").random(5)
        np.testing.assert_array_equal(a, b)

    def test_keys_namespace_streams(self):
        a = derive_rng(42, "topology").random(5)
        b = derive_rng(42, "files").random(5)
        assert not np.array_equal(a, b)

    def test_integer_keys(self):
        a = derive_rng(1, "trial", 0).random(3)
        b = derive_rng(1, "trial", 1).random(3)
        assert not np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(7)
        assert derive_rng(gen, "anything") is gen

    def test_none_seed_is_stable(self):
        a = derive_rng(None, "x").random(2)
        b = derive_rng(None, "x").random(2)
        np.testing.assert_array_equal(a, b)


class TestSpawnRngs:
    def test_count_and_independence(self):
        rngs = spawn_rngs(0, 3, "trials")
        assert len(rngs) == 3
        draws = [r.random(4).tolist() for r in rngs]
        assert draws[0] != draws[1] != draws[2]


class TestTruncatedNormal:
    def test_respects_lower_bound(self):
        rng = np.random.default_rng(0)
        values = sample_truncated_normal(rng, mean=1.0, sigma=5.0, size=2000, low=0.0)
        assert values.min() >= 0.0

    def test_mean_preserved_when_truncation_negligible(self):
        rng = np.random.default_rng(0)
        values = sample_truncated_normal(rng, mean=100.0, sigma=20.0, size=20000)
        assert values.mean() == pytest.approx(100.0, rel=0.02)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            sample_truncated_normal(np.random.default_rng(0), 1.0, 1.0, -1)


class TestZipf:
    def test_sums_to_one(self):
        pmf = zipf_pmf(100, 1.0)
        assert pmf.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        pmf = zipf_pmf(50, 0.8)
        assert np.all(np.diff(pmf) < 0)

    def test_exponent_zero_is_uniform(self):
        pmf = zipf_pmf(10, 0.0)
        np.testing.assert_allclose(pmf, 0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_pmf(0, 1.0)


class TestConfidenceInterval:
    def test_single_sample_zero_width(self):
        ci = mean_confidence_interval([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0
        assert ci.num_trials == 1

    def test_constant_samples_zero_width(self):
        ci = mean_confidence_interval([2.0, 2.0, 2.0])
        assert ci.half_width == 0.0

    def test_known_t_interval(self):
        # mean 2, sd 1, n 4 -> sem .5, t(3, .975) = 3.1824.
        ci = mean_confidence_interval([1.0, 2.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        sem = np.std([1, 2, 2, 3], ddof=1) / 2.0
        assert ci.half_width == pytest.approx(3.182446 * sem, rel=1e-4)

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999])
    def test_half_width_is_t_ppf_times_sem_exactly(self, level):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 10, 30, 101, 400):
            values = rng.normal(10.0, 3.0, n)
            sem = float(values.std(ddof=1) / math.sqrt(n))
            t_crit = float(stats.t.ppf(0.5 + level / 2.0, df=n - 1))
            ci = mean_confidence_interval(values, level=level)
            assert ci.half_width == t_crit * sem

    def test_contains_and_overlaps(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0)
        assert ci.contains(9.0)
        assert not ci.contains(12.5)
        other = ConfidenceInterval(mean=13.0, half_width=1.5)
        assert ci.overlaps(other)
        assert not ci.overlaps(ConfidenceInterval(mean=20.0, half_width=1.0))

    def test_relative_half_width(self):
        assert ConfidenceInterval(10.0, 1.0).relative_half_width() == pytest.approx(0.1)
        assert ConfidenceInterval(0.0, 1.0).relative_half_width() == math.inf

    def test_coverage_of_standard_normal_means(self):
        # 95% CI should cover the true mean ~95% of the time.
        rng = np.random.default_rng(1)
        covered = 0
        for _ in range(300):
            ci = mean_confidence_interval(rng.normal(0.0, 1.0, 10))
            covered += ci.contains(0.0)
        assert 0.90 <= covered / 300 <= 0.99

    def test_rejects_empty_and_bad_level(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], level=1.5)


class TestGroupBy:
    def test_basic_grouping(self):
        stats = group_by([3, 3, 7], [1.0, 3.0, 10.0])
        table = stats.as_dict()
        assert table[3][0] == pytest.approx(2.0)   # mean
        assert table[3][1] == pytest.approx(1.0)   # population std
        assert table[3][2] == 2                    # count
        assert table[7] == (pytest.approx(10.0), pytest.approx(0.0), 1)

    def test_rows_sorted_by_key(self):
        stats = group_by([5, 1, 3], [1.0, 1.0, 1.0])
        assert [row[0] for row in stats.rows()] == [1, 3, 5]

    def test_total_count(self):
        stats = group_by([1, 1, 2, 2, 2], [0.0] * 5)
        assert stats.total_count() == 5

    def test_empty_input(self):
        stats = group_by([], [])
        assert stats.keys == ()
        assert stats.total_count() == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            group_by([1, 2], [1.0])

    def test_mean_for_missing_key_raises(self):
        stats = group_by([1], [2.0])
        with pytest.raises(KeyError):
            stats.mean_for(9)
