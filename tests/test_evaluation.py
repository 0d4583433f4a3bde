"""Discretization and Jensen-Shannon divergence tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfectsum import (
    DiscretePmf,
    IrwinHallSum,
    NormalSum,
    discretize,
    fit_kde,
    js_divergence,
)

from conftest import jsd_oracle, normal_mass_quad


class TestDiscretePmf:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscretePmf(np.array([0.0, 1.0]), np.array([0.6, 0.5]))

    def test_no_duplicate_support(self):
        with pytest.raises(ValueError, match="increasing"):
            DiscretePmf(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscretePmf(np.array([0.0, 1.0]), np.array([1.5, -0.5]))

    @pytest.mark.parametrize(
        "support, mass",
        [([0.0, 1.0], [0.5, math.nan]), ([0.0, math.nan], [0.5, 0.5]),
         ([0.0, math.inf], [0.5, 0.5])],
        ids=["nan_mass", "nan_support", "inf_support"],
    )
    def test_non_finite_support_or_mass_rejected(self, support, mass):
        with pytest.raises(ValueError, match="support and mass must be finite"):
            DiscretePmf(support=support, mass=mass)


class TestDiscretize:
    def test_degenerate_hits_one_bin(self):
        pmf = discretize(NormalSum(10.0, 0.0), np.array([8.0, 9.0, 10.0, 11.0]), 1.0)
        assert pmf.mass.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert pmf.captured_mass == 1.0

    def test_normal_window_mass(self):
        support = np.arange(3.0, 8.0)
        pmf = discretize(NormalSum(5.0, 5 / 3), support, 1.0)
        oracle = normal_mass_quad(5.0, 5 / 3, 4.5, 5.5)
        raw = pmf.mass[2] * pmf.captured_mass  # undo renormalization
        assert raw == pytest.approx(oracle, abs=1e-9)
        assert raw == pytest.approx(0.3015, abs=5e-4)

    def test_uniform_two_bins(self):
        pmf = discretize(IrwinHallSum(1, 0, 1), np.array([0.25, 0.75]), 0.5)
        assert pmf.mass.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_kde_model_accepted(self):
        model = fit_kde([1, 2, 3, 4], 2, m=500, seed=1)
        pmf = discretize(model, np.arange(2.0, 9.0), 1.0)
        assert pmf.mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_missed_support_rejected(self):
        with pytest.raises(ValueError, match="misses"):
            discretize(NormalSum(1000.0, 1.0), np.arange(0.0, 5.0), 1.0)

    @pytest.mark.parametrize("granularity", [math.nan, math.inf, 0.0, -1.0])
    def test_granularity_must_be_finite_and_positive(self, granularity):
        # a NaN granularity returned a NaN mass
        with pytest.raises(ValueError, match="granularity must be > 0 and finite"):
            discretize(NormalSum(0.0, 1.0), [0.0], granularity)

    def test_spacing_below_granularity_rejected(self):
        with pytest.raises(ValueError, match="spaced"):
            discretize(NormalSum(0.0, 1.0), np.array([0.0, 0.5]), 1.0)


class TestJsDivergence:
    def test_identical_is_zero(self):
        p = DiscretePmf(np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.5, 0.3]))
        assert js_divergence(p, p) == 0.0

    def test_disjoint_supports_maximal(self):
        p = DiscretePmf(np.array([0.0]), np.array([1.0]))
        q = DiscretePmf(np.array([5.0]), np.array([1.0]))
        assert js_divergence(p, q) == pytest.approx(math.log(2), rel=1e-12)

    def test_against_independent_oracle(self):
        p = DiscretePmf(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        q = DiscretePmf(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        expected = jsd_oracle({0.0: 1.0, 1.0: 0.0}, {0.0: 0.5, 1.0: 0.5})
        assert js_divergence(p, q) == pytest.approx(expected, rel=1e-12)
        assert js_divergence(p, q) == pytest.approx(0.21576155433883565, rel=1e-9)

    def test_partial_overlap_against_oracle(self):
        p = DiscretePmf(np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
        q = DiscretePmf(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.7]))
        expected = jsd_oracle(
            dict(zip(p.support.tolist(), p.mass.tolist())),
            dict(zip(q.support.tolist(), q.mass.tolist())),
        )
        assert js_divergence(p, q) == pytest.approx(expected, rel=1e-12)


@st.composite
def pmf_pairs(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    support = np.array(sorted(draw(st.sets(st.integers(-20, 20), min_size=size, max_size=size))), dtype=float)
    def masses():
        raw = draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False), min_size=len(support),
                max_size=len(support),
            ).filter(lambda xs: sum(xs) > 1e-6)
        )
        arr = np.array(raw)
        return arr / arr.sum()
    return (
        DiscretePmf(support, masses()),
        DiscretePmf(support, masses()),
    )


class TestJsdProperties:
    @given(pmf_pairs())
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_bounds(self, pair):
        p, q = pair
        d_pq = js_divergence(p, q)
        d_qp = js_divergence(q, p)
        assert d_pq == pytest.approx(d_qp, abs=1e-12)
        assert 0.0 <= d_pq <= math.log(2)

    @given(pmf_pairs())
    @settings(max_examples=100, deadline=None)
    def test_zero_iff_equal(self, pair):
        p, q = pair
        d = js_divergence(p, q)
        if np.allclose(p.mass, q.mass, atol=1e-12):
            assert d == pytest.approx(0.0, abs=1e-9)
        if d == pytest.approx(0.0, abs=1e-12):
            assert np.allclose(p.mass, q.mass, atol=1e-9)
