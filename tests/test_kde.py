"""Tophat KDE tests: sampling, bandwidth rule, density/CDF consistency."""

import math

import numpy as np
import pytest

from perfectsum import (
    DiscretePmf,
    KdeModel,
    exact_sum_pmf,
    fit_bandwidth,
    fit_kde,
    js_divergence,
    sample_subset_sums,
    set_statistics,
    subset_sum_variance,
)
from perfectsum.evaluation import discretize
from perfectsum.kde import shared_subset_sums
from perfectsum.simulation import SetSpec, generate_set


class TestSampleSubsetSums:
    def test_full_size_always_total(self):
        sums = sample_subset_sums([1, 2, 3, 4], 4, 5, seed=11)
        assert sums.tolist() == [10.0] * 5

    def test_constant_set(self):
        sums = sample_subset_sums([3.0] * 7, 4, 10, seed=0)
        assert sums.tolist() == [12.0] * 10

    def test_empirical_mean_near_expected(self):
        values = [1, 2, 3, 4]
        m = 100_000
        sums = sample_subset_sums(values, 2, m, seed=5)
        var = subset_sum_variance(set_statistics(values), 2)
        assert abs(sums.mean() - 5.0) <= 3 * math.sqrt(var / m)

    def test_deterministic_per_seed(self):
        a = sample_subset_sums([1, 5, 9, 13, 2], 3, 1000, seed=77)
        b = sample_subset_sums([1, 5, 9, 13, 2], 3, 1000, seed=77)
        c = sample_subset_sums([1, 5, 9, 13, 2], 3, 1000, seed=78)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_blocking_invariance(self, monkeypatch):
        import perfectsum.kde as kde_mod

        cases = [
            (4, "_SAMPLE_BLOCK_CELLS", 160),  # 8-row blocks, r = k
            (15, "_SAMPLE_BLOCK_CELLS", 160),  # k > n/2: the r = 5 drawn indices are left out
            (5, "_SAMPLE_BLOCK_CELLS", 140),  # 7-row blocks: 500 % 7 != 0, 7 * r = 35 is odd
            (5, "_FLOYD_CHUNK_ROWS", 7),  # 7-row passes of Floyd's loop inside one block
        ]
        for k, constant, value in cases:
            full = sample_subset_sums(list(range(20)), k, 500, seed=3)
            with monkeypatch.context() as patched:
                patched.setattr(kde_mod, constant, value)
                blocked = kde_mod.sample_subset_sums(list(range(20)), k, 500, seed=3)
            assert np.array_equal(full, blocked), (k, constant)

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_subset_sums([1, 2, 3], 2, 1, seed=0)

    def test_sums_are_genuine_subset_sums(self):
        values = [1.0, 10.0, 100.0, 1000.0]
        sums = sample_subset_sums(values, 2, 300, seed=8)
        achievable = {a + b for i, a in enumerate(values) for b in values[i + 1 :]}
        assert set(sums.tolist()) <= achievable
        # and over 300 draws every pair should appear
        assert set(sums.tolist()) == achievable

    def test_rejection_regime_uniform_over_subsets(self):
        # n=10, k=2 uses the tuple-rejection sampler; powers of 10 make
        # each subset's sum unique, so frequencies identify subsets
        import collections

        values = (10.0 ** np.arange(10)).tolist()
        sums = sample_subset_sums(values, 2, 90_000, seed=3)
        freq = collections.Counter(sums.tolist())
        assert len(freq) == 45
        counts = np.array(list(freq.values()))
        expected = 90_000 / 45
        chi2_stat = float(((counts - expected) ** 2 / expected).sum())
        # df=44: mean 44, sd ~9.4; 100 is ~6 sd out
        assert chi2_stat < 100.0

    @pytest.mark.parametrize(
        "k, subsets, bound",
        [
            (3, 56, 120.0),  # Floyd draws the k kept indices; df=55, sd ~10.5
            (6, 28, 70.0),  # Floyd draws the 2 left-out indices; df=27, sd ~7.3
        ],
    )
    def test_floyd_regime_uniform_over_subsets(self, k, subsets, bound):
        # n=8 with 2k^2 > n uses Floyd's sampler; powers of 2 make each
        # subset's sum unique, so frequencies identify subsets
        import collections

        values = (2.0 ** np.arange(8)).tolist()
        m = 2_000 * subsets
        sums = sample_subset_sums(values, k, m, seed=3)
        freq = collections.Counter(sums.tolist())
        assert len(freq) == subsets
        assert all(bin(int(s)).count("1") == k for s in freq)
        counts = np.array(list(freq.values()))
        expected = m / subsets
        chi2_stat = float(((counts - expected) ** 2 / expected).sum())
        assert chi2_stat < bound

    def test_left_out_branch_sums_kept_elements(self):
        # k > n/2: a sum formed as total minus the left-out sum loses the
        # small elements to 1e16's rounding; every sum below 1e15 must be
        # an exact sum of four of 1..5
        sums = sample_subset_sums([1e16, 1, 2, 3, 4, 5], 4, 2_000, seed=9)
        small = sums[sums < 1e15]
        assert small.size > 0
        assert set(small.tolist()) <= {10.0, 11.0, 12.0, 13.0, 14.0}


class TestSharedSubsetSums:
    def test_every_stratum_uniform_over_subsets(self):
        # powers of 2 make each subset's sum unique, so frequencies identify
        # subsets; one draw serves every k < n
        import collections

        values = (2.0 ** np.arange(8)).tolist()
        m = 140_000  # 2,000 per subset at k = 4, the largest stratum
        columns = list(shared_subset_sums(values, 1, 7, m, seed=3))
        assert len(columns) == 7
        for k, sums in enumerate(columns, start=1):
            subsets = math.comb(8, k)
            freq = collections.Counter(sums.tolist())
            assert len(freq) == subsets, k
            assert all(bin(int(s)).count("1") == k for s in freq), k
            counts = np.array(list(freq.values()))
            expected = m / subsets
            chi2_stat = float(((counts - expected) ** 2 / expected).sum())
            df = subsets - 1
            assert chi2_stat < df + 6 * math.sqrt(2 * df), k

    def test_grouping_and_row_blocks_do_not_change_samples(self, monkeypatch):
        import perfectsum.kde as kde_mod

        values = np.random.default_rng(1).uniform(0, 10, 19)
        full = np.array(list(shared_subset_sums(values, 1, 18, 500, seed=4)))
        rerun = np.array(list(shared_subset_sums(values, 1, 18, 500, seed=4)))
        other = np.array(list(shared_subset_sums(values, 1, 18, 500, seed=5)))
        assert full.shape == (18, 500)
        assert np.array_equal(full, rerun)
        assert not np.array_equal(full, other)
        # 140 cells: one stratum per group, 7-row blocks; 1,500 cells: groups
        # of 3 strata, 78-row blocks. Neither divides 18 strata or 500 rows.
        for cells in (140, 1_500):
            with monkeypatch.context() as patched:
                patched.setattr(kde_mod, "_SAMPLE_BLOCK_CELLS", cells)
                blocked = np.array(list(shared_subset_sums(values, 1, 18, 500, seed=4)))
            assert np.array_equal(full, blocked), cells
        # a narrower range reads the same columns
        some = np.array(list(shared_subset_sums(values, 9, 17, 500, seed=4)))
        assert np.array_equal(some, full[8:17])

    def test_sums_add_only_the_kept_elements(self):
        # total minus the rest would lose the small elements to 1e16's rounding
        for sums in shared_subset_sums([1e16, 1, 2, 3, 4, 5], 4, 4, 2_000, seed=9):
            small = sums[sums < 1e15]
            assert small.size > 0
            assert set(small.tolist()) <= {10.0, 11.0, 12.0, 13.0, 14.0}

    def test_rejects_k_equal_n_and_too_few_samples(self):
        with pytest.raises(ValueError, match="1..3"):
            next(shared_subset_sums([1, 2, 3, 4], 2, 4, 10, seed=0))
        with pytest.raises(ValueError, match="at least 2"):
            next(shared_subset_sums([1, 2, 3, 4], 2, 2, 1, seed=0))
        assert list(shared_subset_sums([1, 2, 3, 4], 4, 3, 10, seed=0)) == []


class TestFitBandwidth:
    def test_unit_gaps(self):
        assert fit_bandwidth(np.arange(100.0)) == 1.0

    def test_all_equal_fallback(self):
        assert fit_bandwidth([5.0] * 10) == pytest.approx(5.0 * 1e-6)
        assert fit_bandwidth([0.0] * 10) == pytest.approx(1e-6)

    def test_zero_gaps_dropped(self):
        # gaps: 0,0,2,2 -> positive gaps (2,2); 10% lower quantile = 2
        assert fit_bandwidth([1.0, 1.0, 1.0, 3.0, 5.0]) == 2.0

    def test_regression_pin_seeded_run(self):
        values = generate_set(SetSpec(family="uniform", n=20, seed=42, low=0, high=20))
        sums = sample_subset_sums(values, 5, 1000, seed=123)
        assert fit_bandwidth(sums) == pytest.approx(0.0034725528432844044, rel=1e-12)

    def test_too_few_sums(self):
        with pytest.raises(ValueError):
            fit_bandwidth([1.0])


class TestKdeEvaluation:
    def test_density_all_mass_at_one_point(self):
        model = KdeModel(sums=np.full(50, 3.0), bandwidth=0.25)
        assert model.density(3.0) == pytest.approx(1 / (2 * 0.25))

    def test_density_compact_support(self):
        model = KdeModel(sums=np.array([0.0, 10.0]), bandwidth=1.0)
        assert model.density(0.0) == 0.25
        assert model.density(5.0) == 0.0
        assert model.density(11.5) == 0.0

    def test_cdf_limits(self):
        model = KdeModel(sums=np.array([2.0, 4.0, 9.0]), bandwidth=0.5)
        assert model.cdf(2.0 - 0.5 - 1e-9) == 0.0
        assert model.cdf(9.0 + 0.5 + 1e-9) == 1.0

    def test_single_sample_midpoint(self):
        model = KdeModel(sums=np.array([7.0, 7.0]), bandwidth=1.0)
        assert model.cdf(7.0) == 0.5

    def test_normalization_exact(self):
        model = fit_kde(list(range(10)), 3, m=1000, seed=4)
        lo = model.sums.min() - model.bandwidth
        hi = model.sums.max() + model.bandwidth
        assert model.cdf(hi + 1) - model.cdf(lo - 1) == 1.0

    def test_cdf_matches_density_derivative(self):
        model = fit_kde([1, 4, 9, 16, 25], 2, m=400, seed=6)
        h = model.bandwidth
        eps = h * 1e-4
        rng = np.random.default_rng(0)
        for t in rng.uniform(model.sums.min(), model.sums.max(), 40):
            dens = model.density(t)
            # skip kernel edges where the density jumps
            near_edge = np.any(
                np.minimum(
                    np.abs(model.sums - (t - h)), np.abs(model.sums - (t + h))
                ) < 4 * eps
            )
            if near_edge:
                continue
            numeric = (model.cdf(t + eps) - model.cdf(t - eps)) / (2 * eps)
            assert numeric == pytest.approx(dens, abs=1e-6 * max(1.0, dens))

    def test_cdf_monotone(self):
        model = fit_kde([3, 1, 4, 1, 5, 9, 2, 6], 3, m=2000, seed=2)
        grid = np.linspace(model.sums.min() - 1, model.sums.max() + 1, 500)
        vals = model.cdf(grid)
        assert np.all(np.diff(vals) >= -1e-15)


class TestKdeConvergence:
    def test_jsd_to_exact_pmf_shrinks_with_m(self):
        values = [1, 2, 3, 4]
        exact = exact_sum_pmf(values, 2)
        exact_pmf = DiscretePmf(support=exact.support, mass=exact.mass)
        avg = {}
        for m in (100, 1_000, 10_000):
            divs = []
            for seed in range(20):
                model = fit_kde(values, 2, m=m, seed=seed)
                approx = discretize(model, exact.support, 1.0)
                divs.append(js_divergence(exact_pmf, approx))
            avg[m] = np.mean(divs)
        assert avg[1_000] < avg[100]
        assert avg[10_000] < avg[1_000]
