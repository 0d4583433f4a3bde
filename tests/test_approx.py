"""Distribution-family tests: oracles are quadrature and Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from perfectsum import (
    ChiSquareSum,
    IrwinHallSum,
    NormalSum,
    berry_esseen_terms,
    fit_kde,
    normal_sum_approx,
    probability_query,
    set_statistics,
    subset_sum_mean,
    subset_sum_variance,
)
from perfectsum.approx import _SATURATED_Z

from conftest import mc_cdf, normal_mass_quad


class TestNormalSumApprox:
    def test_moments_shared_with_formulas(self):
        stats = set_statistics([1, 2, 3, 4])
        dist = normal_sum_approx(stats, 2)
        # bit-for-bit the same numbers as the moment formulas
        assert dist.mean == subset_sum_mean(stats, 2)
        assert dist.variance == subset_sum_variance(stats, 2)

    def test_degenerate_at_full_size(self):
        stats = set_statistics([1, 2, 3, 4])
        dist = normal_sum_approx(stats, 4)
        assert isinstance(dist, NormalSum)
        assert dist.mean == 10.0
        assert dist.variance == 0.0

    def test_degenerate_for_constant_set(self):
        stats = set_statistics([2, 2, 2])
        assert normal_sum_approx(stats, 1).variance == 0.0
        dists = normal_sum_approx(stats, np.array([1.0, 2.0, 3.0]))
        assert dists.variance.tolist() == [0.0, 0.0, 0.0]

    def test_ndtr_saturates_past_the_window_bound(self):
        # the normal query reads a stratum with |z| > _SATURATED_Z as exactly
        # 0.0 or 1.0 without evaluating it; a scipy whose ndtr stops rounding
        # there would change the report's bits
        z = np.concatenate(
            (
                np.linspace(0.99 * _SATURATED_Z, 1e3, 1_000_001),
                np.geomspace(1e3, 1e308, 10_001),
                [math.inf],
            )
        )
        assert np.all(ndtr(-z) == 0.0)
        assert np.all(ndtr(z) == 1.0)

    def test_mass_against_quadrature(self):
        dist = normal_sum_approx(set_statistics([1, 2, 3, 4]), 2)
        oracle = normal_mass_quad(5.0, 5 / 3, 4.5, 5.5)
        # the mass on (4.5, 5.5] is the eq window around 5 at granularity 1
        mass = probability_query(dist, 5.0, "eq", 1.0)
        assert mass == pytest.approx(oracle, abs=1e-9)
        assert mass == pytest.approx(0.3015, abs=5e-4)
        # compare with exact pmf value 1/3 (qualitative closeness)
        assert abs(mass - 1 / 3) < 0.04


class TestIrwinHall:
    def test_k1_is_uniform(self):
        dist = IrwinHallSum(1, 0, 1)
        assert dist.cdf(0.5) == pytest.approx(0.5, abs=1e-12)
        assert dist.cdf(-0.1) == 0.0
        assert dist.cdf(1.1) == 1.0

    def test_k2_triangular_midpoint(self):
        assert IrwinHallSum(2, 0, 1).cdf(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_k3_against_monte_carlo(self):
        dist = IrwinHallSum(3, 0, 1)
        oracle = mc_cdf(lambda rng, m: rng.random((3, m)).sum(axis=0), 1.2)
        assert dist.cdf(1.2) == pytest.approx(oracle, abs=1e-3)
        assert dist.cdf(1.5) == pytest.approx(0.5, abs=1e-12)

    def test_rescaled_bounds(self):
        dist = IrwinHallSum(4, -2, 6)
        assert dist.mean == pytest.approx(4 * 2.0)
        assert dist.variance == pytest.approx(4 * 64 / 12)
        oracle = mc_cdf(lambda rng, m: rng.uniform(-2, 6, (4, m)).sum(axis=0), 10.0)
        assert dist.cdf(10.0) == pytest.approx(oracle, abs=1e-3)

    def test_midpoint_symmetry_up_to_40(self):
        for k in range(1, 41):
            dist = IrwinHallSum(k, 0, 1)
            assert dist.cdf(k / 2) == pytest.approx(0.5, abs=1e-9), k

    def test_normal_fallback_beyond_40(self):
        dist = IrwinHallSum(80, 0, 1)
        assert dist.cdf(40.0) == pytest.approx(0.5, abs=1e-12)
        sd = math.sqrt(80 / 12)
        assert dist.cdf(40.0 + sd) == pytest.approx(0.8413, abs=1e-3)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            IrwinHallSum(2, 1.0, 1.0)

    @pytest.mark.parametrize("k", [5, np.arange(1, 6)])
    def test_variance_past_the_float_range(self, k):
        # the square of the spread overflowed in the variance property
        with pytest.raises(ValueError, match="Irwin-Hall variance at k = 5 must be >= 0 and finite"):
            IrwinHallSum(k, 0.0, 1e155)
        assert np.all(np.isfinite(IrwinHallSum(k, 0.0, 1e150).variance))


class TestChiSquareSum:
    def test_exponential_special_case(self):
        dist = ChiSquareSum(1, 2)
        assert dist.cdf(2 * math.log(2)) == pytest.approx(0.5, rel=1e-10)
        for x in (0.5, 1.0, 3.0):
            assert dist.cdf(x) == pytest.approx(1 - math.exp(-x / 2), rel=1e-10)

    def test_moment_additivity(self):
        dist = ChiSquareSum(5, 2)
        assert dist.dof == 10
        assert dist.mean == 10.0
        assert dist.variance == 20.0

    def test_against_monte_carlo(self):
        dist = ChiSquareSum(3, 4)
        oracle = mc_cdf(lambda rng, m: rng.chisquare(4, (3, m)).sum(axis=0), 12.0)
        assert dist.cdf(12.0) == pytest.approx(oracle, abs=1e-3)

    def test_bad_df(self):
        with pytest.raises(ValueError):
            ChiSquareSum(2, 0.0)

    @pytest.mark.parametrize("k", [5, np.arange(1, 6)])
    def test_variance_past_the_float_range(self, k):
        # k * df overflowed to infinite degrees of freedom, whose cdf read 0 everywhere
        with pytest.raises(ValueError, match="chi-square variance at k = 5 must be >= 0 and finite"):
            ChiSquareSum(k, 1e308)
        assert np.all(np.isfinite(ChiSquareSum(k, 1e307).variance))


class TestBerryEsseen:
    def test_full_size_takes_delta1_branch(self):
        terms = berry_esseen_terms([1, 2, 3, 4], 4)
        assert terms.q == 0.0
        assert terms.bound_over_c == terms.delta1
        assert math.isinf(terms.bound_over_c)

    def test_constant_set_rejected(self):
        with pytest.raises(ValueError, match="bound undefined"):
            berry_esseen_terms([5, 5, 5], 2)

    def test_regression_pin(self):
        values = np.random.default_rng(0).uniform(0, 1, 1000)
        terms = berry_esseen_terms(values, 100)
        assert math.isfinite(terms.bound_over_c)
        assert terms.bound_over_c > 0
        assert terms.bound_over_c == pytest.approx(0.15328309334005863, rel=1e-12)
        assert terms.delta2 == pytest.approx(0.07896149101520075, rel=1e-12)

    def test_decreasing_toward_half_n(self):
        # Net trend over k = 1 .. n/2 is downward on uniform sets. Strict
        # per-step monotonicity is not a property of the formula: the
        # delta1 term 1/(sqrt(k) q^1.5) has an interior minimum at
        # k = n/4, so the envelope wiggles slightly past it. The checks
        # here are the faithful statistical version: k = 1 is always the
        # worst bound and the half-n endpoint is strictly better.
        for seed in range(10):
            values = np.random.default_rng(seed).uniform(0, 1, 60)
            bounds = [berry_esseen_terms(values, k).bound_over_c for k in range(1, 31)]
            assert max(bounds) == bounds[0]
            assert bounds[-1] < bounds[0]
            early = np.mean(bounds[:15])
            late = np.mean(bounds[15:])
            assert late < early


class TestProbabilityQuery:
    def test_normal_eq_with_window(self):
        dist = NormalSum(mean=5.0, variance=5 / 3)
        oracle = normal_mass_quad(5.0, 5 / 3, 4.5, 5.5)
        assert probability_query(dist, 5.0, "eq", 1.0) == pytest.approx(oracle, abs=1e-9)

    def test_point_mass_cdf_steps_at_the_mean(self):
        assert NormalSum(10.0, 0.0).cdf(10.0) == 1.0
        assert NormalSum(10.0, 0.0).cdf(np.nextafter(10.0, 0.0)) == 0.0
        assert NormalSum(10.0, 0.0).cdf([9.0, 10.0, 11.0]).tolist() == [0.0, 1.0, 1.0]
        # only the zero-variance entry of an array of laws steps
        mixed = NormalSum(np.array([10.0, 10.0]), np.array([0.0, 4.0]))
        assert mixed.cdf(10.0).tolist() == [1.0, 0.5]
        assert mixed.cdf(9.0)[0] == 0.0 and 0.0 < mixed.cdf(9.0)[1] < 0.5

    def test_degenerate_direct_comparison(self):
        dist = NormalSum(10.0, 0.0)
        for g in (0.0, 1.0, 7.0):
            assert probability_query(dist, 10.0, "eq", g) == 1.0
            # eq counts the atom in the window (9 - g/2, 9 + g/2], as exact strata do
            assert probability_query(dist, 9.0, "eq", g) == (1.0 if g == 7.0 else 0.0)
            assert probability_query(dist, 9.0, "ge", g) == 1.0
            assert probability_query(dist, 11.0, "le", g) == 1.0

    def test_lattice_offset_snaps_each_stratum(self):
        # the strata lie on 2Z and on 1 + 2Z: ge at 10 starts at 10 and at 11,
        # le ends at 10 and at 9, and 10 is no sum of the second stratum
        dists = NormalSum(np.array([10.0, 10.0]), np.array([4.0, 4.0]))
        offset = np.array([0.0, 1.0])

        def alone(target, relation):
            return probability_query(NormalSum(10.0, 4.0), target, relation, 2.0)

        ge = probability_query(dists, 10.0, "ge", 2.0, offset)
        le = probability_query(dists, 10.0, "le", 2.0, offset)
        eq = probability_query(dists, 10.0, "eq", 2.0, offset)
        assert ge.tolist() == [alone(10.0, "ge"), alone(11.0, "ge")]
        assert le.tolist() == [alone(10.0, "le"), alone(9.0, "le")]
        assert eq.tolist() == [alone(10.0, "eq"), 0.0]
        # a point mass counts the same lattice points
        atoms = NormalSum(np.array([9.0, 11.0]), np.array([0.0, 0.0]))
        assert probability_query(atoms, 10.0, "ge", 2.0, offset).tolist() == [0.0, 1.0]
        assert probability_query(atoms, 10.0, "eq", 2.0, offset).tolist() == [0.0, 0.0]

    def test_far_below_target_ge_is_total_mass(self):
        for dist in (
            NormalSum(5.0, 5 / 3),
            IrwinHallSum(3, 0, 1),
            ChiSquareSum(2, 3),
        ):
            assert probability_query(dist, -1e9, "ge", 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_nan_target_rejected(self):
        # the query returned nan
        with pytest.raises(ValueError, match="target must be a number"):
            probability_query(NormalSum(0.0, 1.0), math.nan, "ge", 1.0)

    def test_eq_without_granularity_rejected(self):
        with pytest.raises(ValueError, match="granularity"):
            probability_query(NormalSum(0.0, 1.0), 0.0, "eq", 0.0)

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("target", [-3.0, 0.0, 2.5, 9.0])
    def test_complement_identity(self, g, target):
        dists = [
            NormalSum(2.0, 4.0),
            IrwinHallSum(4, -1, 2),
            ChiSquareSum(3, 2),
            NormalSum(2.5, 0.0),
            fit_kde([1, 5, 9, 2], 2, m=500, seed=9),
        ]
        for dist in dists:
            ge = probability_query(dist, target, "ge", g)
            le = probability_query(dist, target, "le", g)
            eq = probability_query(dist, target, "eq", g)
            assert ge + le - eq == pytest.approx(1.0, abs=1e-9), dist

    def test_cdf_monotone_on_grids(self):
        grid = np.linspace(-10, 60, 400)
        for dist in (
            NormalSum(2.0, 9.0),
            IrwinHallSum(5, 0, 10),
            ChiSquareSum(4, 3),
            NormalSum(7.0, 0.0),
        ):
            vals = np.asarray(dist.cdf(grid), dtype=np.float64)
            assert np.all(np.diff(vals) >= -1e-15), dist
            assert np.all((vals >= 0) & (vals <= 1))


@given(
    mean=st.floats(-50, 50, allow_nan=False),
    var=st.floats(0.01, 100, allow_nan=False),
    a=st.floats(-100, 100, allow_nan=False),
    # a window of width 0 has no mass by definition; the eq query rejects it
    width=st.floats(0, 50, allow_nan=False, exclude_min=True),
)
@settings(max_examples=80, deadline=None)
def test_normal_mass_nonnegative(mean, var, a, width):
    dist = NormalSum(mean, var)
    # the mass on the window (a - width/2, a + width/2]
    assert 0.0 <= probability_query(dist, a, "eq", width) <= 1.0
