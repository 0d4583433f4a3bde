"""Moment formulas checked against full enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfectsum import (
    SetStatistics,
    membership_probability,
    pair_covariance,
    pair_product_expectation,
    set_statistics,
    subset_sum_mean,
    subset_sum_variance,
)

from conftest import brute_subset_sums, two_pass_stats


class TestSetStatistics:
    def test_basic(self):
        stats = set_statistics([1, 2, 3, 4])
        assert stats.n == 4
        assert stats.mean == 2.5
        assert stats.variance == 1.25
        # cross-check with an independent two-pass computation
        n, mean, var = two_pass_stats([1, 2, 3, 4])
        assert (stats.n, stats.mean) == (n, mean)
        assert stats.variance == pytest.approx(var, rel=1e-12)

    def test_singleton(self):
        assert set_statistics([7]) == SetStatistics(1, 7.0, 0.0)

    def test_constant_set(self):
        stats = set_statistics([3.5, 3.5, 3.5])
        assert stats == SetStatistics(3, 3.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            set_statistics([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            set_statistics([1.0, math.nan])
        with pytest.raises(ValueError, match="non-finite"):
            set_statistics([1.0, math.inf])
        with pytest.raises(ValueError, match="non-finite value at position 3"):
            set_statistics([1.0, 2.0, -math.inf, math.nan])


    @pytest.mark.parametrize(
        "values, message",
        [([1e200, -1e200], "set variance must be >= 0 and finite, got inf"),
         ([1e308, 1e308, 5.0], "set mean must be finite as a float, got inf")],
        ids=["variance", "mean"],
    )
    def test_overflowing_moments_rejected(self, values, message):
        # an infinite variance made every normal cdf NaN, which counted 0
        with pytest.raises(ValueError, match=message):
            set_statistics(values)


class TestMembershipProbability:
    def test_half(self):
        assert membership_probability(2, 4) == 0.5

    def test_whole_set(self):
        assert membership_probability(9, 9) == 1.0

    def test_against_enumeration(self):
        # fraction of all C(26,1) subsets containing a fixed element
        n = 26
        subsets = list(itertools.combinations(range(n), 1))
        frac = sum(1 for s in subsets if 0 in s) / len(subsets)
        assert membership_probability(1, n) == pytest.approx(frac, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            membership_probability(0, 4)
        with pytest.raises(ValueError):
            membership_probability(5, 4)


class TestSubsetSumMoments:
    def test_mean_matches_brute_force(self):
        stats = set_statistics([1, 2, 3, 4])
        sums = brute_subset_sums([1, 2, 3, 4], 2)
        assert sorted(sums) == [3, 4, 5, 5, 6, 7]
        assert subset_sum_mean(stats, 2) == pytest.approx(np.mean(sums), rel=1e-15)
        assert subset_sum_mean(stats, 2) == 5.0

    def test_mean_k_equals_n(self):
        stats = set_statistics([2.5, -1, 17])
        assert subset_sum_mean(stats, 3) == pytest.approx(2.5 - 1 + 17, rel=1e-12)

    def test_mean_constant_set(self):
        assert subset_sum_mean(set_statistics([5, 5, 5]), 2) == 10.0

    def test_variance_matches_brute_force(self):
        stats = set_statistics([1, 2, 3, 4])
        sums = brute_subset_sums([1, 2, 3, 4], 2)
        assert subset_sum_variance(stats, 2) == pytest.approx(np.var(sums), rel=1e-12)
        assert subset_sum_variance(stats, 2) == pytest.approx(5 / 3, rel=1e-12)

    def test_variance_zero_at_full_size(self):
        for values in ([1, 2, 3, 4], [0.5, -3.5, 2.25]):
            stats = set_statistics(values)
            assert subset_sum_variance(stats, stats.n) == 0.0

    def test_variance_k1_is_population_variance(self):
        stats = set_statistics([1, 2, 3, 4])
        assert subset_sum_variance(stats, 1) == 1.25

    def test_singleton_set(self):
        stats = set_statistics([7])
        assert subset_sum_variance(stats, 1) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            subset_sum_variance(set_statistics([1, 2]), 3)

    def test_array_of_sizes_matches_scalar_calls(self):
        for values in ([2.5, -1, 17, 4, 0.125], [7], [3, 3, 3]):
            stats = set_statistics(values)
            ks = np.arange(1, stats.n + 1)
            for sizes in (ks, ks.astype(np.float64)):
                means = subset_sum_mean(stats, sizes)
                variances = subset_sum_variance(stats, sizes)
                for i, k in enumerate(ks.tolist()):
                    assert means[i] == subset_sum_mean(stats, k)
                    assert variances[i] == subset_sum_variance(stats, k)
        with pytest.raises(ValueError, match="k=0 out of range"):
            subset_sum_mean(set_statistics([1, 2]), np.array([1, 0, 2]))
        with pytest.raises(ValueError, match="k=3 out of range"):
            subset_sum_variance(set_statistics([1, 2]), np.array([1, 3]))


class TestPairMoments:
    def test_covariance_matches_brute_force(self):
        values = [1, 2, 3, 4]
        pairs = [(x, y) for x, y in itertools.permutations(values, 2)]
        prods = [x * y for x, y in pairs]
        ex = np.mean([x for x, _ in pairs])
        ey = np.mean([y for _, y in pairs])
        brute_cov = np.mean(prods) - ex * ey
        stats = set_statistics(values)
        assert pair_covariance(stats) == pytest.approx(brute_cov, rel=1e-12)
        assert pair_covariance(stats) == pytest.approx(-1.25 / 3, rel=1e-12)

    def test_covariance_constant_set(self):
        assert pair_covariance(set_statistics([2, 2, 2])) == 0.0

    def test_covariance_shrinks_with_n(self):
        prev = math.inf
        for n in (3, 10, 100, 1000):
            stats = SetStatistics(n=n, mean=0.0, variance=4.0)
            mag = abs(pair_covariance(stats))
            assert mag < prev
            prev = mag

    def test_pair_product_matches_brute_force(self):
        for values in ([1, 2, 3, 4], [0, 0, 1, 1]):
            prods = [x * y for x, y in itertools.permutations(values, 2)]
            stats = set_statistics(values)
            assert pair_product_expectation(stats) == pytest.approx(
                np.mean(prods), rel=1e-12
            )
        assert pair_product_expectation(set_statistics([0, 0, 1, 1])) == pytest.approx(
            1 / 6, rel=1e-12
        )

    def test_pair_product_constant_set(self):
        assert pair_product_expectation(set_statistics([3, 3])) == pytest.approx(9.0)

    def test_n1_rejected(self):
        stats = set_statistics([7])
        with pytest.raises(ValueError):
            pair_covariance(stats)
        with pytest.raises(ValueError):
            pair_product_expectation(stats)


@st.composite
def small_sets(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    ints = draw(st.booleans())
    if ints:
        return draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=32),
            min_size=n,
            max_size=n,
        )
    )


class TestExactIdentities:
    """The formulas are identities, not approximations."""

    @given(small_sets())
    @settings(max_examples=60, deadline=None)
    def test_enumeration_identity(self, values):
        stats = set_statistics(values)
        scale = max(1.0, max(abs(v) for v in values) ** 2 * stats.n)
        for k in range(1, stats.n + 1):
            sums = brute_subset_sums(values, k)
            assert subset_sum_mean(stats, k) == pytest.approx(
                np.mean(sums), rel=1e-12, abs=1e-12 * scale
            )
            assert subset_sum_variance(stats, k) == pytest.approx(
                np.var(sums), rel=1e-12, abs=1e-12 * scale
            )

    @given(small_sets())
    @settings(max_examples=60, deadline=None)
    def test_covariance_identity(self, values):
        stats = set_statistics(values)
        if stats.n < 2:
            return
        # algebraic identity: cov * (n-1) + variance == 0
        assert pair_covariance(stats) * (stats.n - 1) + stats.variance == pytest.approx(
            0.0, abs=1e-9 * max(1.0, stats.variance)
        )

    @given(small_sets(), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_variance_decomposition(self, values, k):
        stats = set_statistics(values)
        if not (2 <= stats.n and 1 <= k <= stats.n):
            return
        # Var = k*sigma^2 + k(k-1)*cov
        decomposed = k * stats.variance + k * (k - 1) * pair_covariance(stats)
        assert subset_sum_variance(stats, k) == pytest.approx(
            decomposed, rel=1e-12, abs=1e-12 * max(1.0, stats.variance * k)
        )

    @given(small_sets())
    @settings(max_examples=60, deadline=None)
    def test_variance_complement_symmetry(self, values):
        stats = set_statistics(values)
        for k in range(1, stats.n + 1):
            assert subset_sum_variance(stats, k) == pytest.approx(
                subset_sum_variance(stats, stats.n - k) if k < stats.n else 0.0,
                rel=1e-12,
                abs=1e-12 * max(1.0, stats.variance * stats.n),
            )
