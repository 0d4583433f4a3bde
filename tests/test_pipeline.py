"""Pipeline tests: counting loop, rounding, hybrid mode, report shape."""

import decimal
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfectsum import (
    ApproxConfig,
    InfeasibleError,
    approximate_perfect_sum,
    auto_granularity,
    binomial,
    dp_counts,
    enumerate_counts,
    exact_perfect_sum,
    normal_sum_approx,
    probability_query,
    set_statistics,
)
from perfectsum import pipeline
from perfectsum.exact import _lattice_offset
from perfectsum.moments import _CHUNK
from perfectsum.pipeline import (
    _EXACT,
    EXACT_STRATUM_BUDGET,
    _build_distribution,
    _counts,
    _round_half_even,
)

from conftest import brute_counts


class TestRounding:
    def test_round_half_even(self):
        assert _round_half_even(0.5, 5) == 2  # 2.5 -> 2
        assert _round_half_even(0.5, 7) == 4  # 3.5 -> 4
        assert _round_half_even(0.3, 10) == 3
        assert _round_half_even(1.0, 12345) == 12345
        assert _round_half_even(0.0, 99) == 0

    def test_full_precision_product(self):
        # the float is expanded exactly: 0.1 is 0.100000000000000005551...,
        # so times 10 it lands just above 1 and must round to 1, and times
        # 10**30 the rounding error stays within half a unit of the exact
        # binary rational.
        assert _round_half_even(0.1, 10) == 1
        big = 10**30
        expected = Fraction(0.1) * big
        assert abs(_round_half_even(0.1, big) - expected) <= Fraction(1, 2)

    def test_matches_fraction_formula(self, rng):
        def reference(p, c):
            f = Fraction(p) * c
            q, r = divmod(f.numerator, f.denominator)
            if 2 * r > f.denominator or (2 * r == f.denominator and q % 2 == 1):
                return q + 1
            return q

        ps = [0.5, 0.25, 0.75, 0.125, 0.1, 5e-324, 1e-300, 1.0 - 2.0**-53]
        ps += rng.random(100).tolist() + (rng.random(40) ** 40).tolist()
        cs = [1, 2, 3, 4, 5, 6, 7, 12, 255]
        cs += [math.comb(n, k) for n, k in ((60, 7), (1000, 500), (10000, 3000))]
        ties = set()
        for p in ps:
            for c in cs:
                got = _round_half_even(p, c)
                assert got == reference(p, c), (p, c)
                if (Fraction(p) * c).denominator == 2:
                    ties.add(got > Fraction(p) * c)
        # exact ties occur, rounding both up (0.5 * 7) and down (0.5 * 5)
        assert ties == {False, True}

    def test_int_and_decimal_round_alike(self, rng):
        # ties (odd c times a power-of-two fraction), the float extremes and p = 1
        ps = [0.5, 0.25, 0.75, 5e-324, 1.0 - 2.0**-53, 1.0, 0.1]
        ps += rng.random(30).tolist() + (rng.random(10) ** 40).tolist()
        cs = [1, 3, 5, 7, 255, 10**399 + 1, 10**400 - 1, math.comb(1000, 500)]
        cs += [int("".join(map(str, rng.integers(0, 10, d)))) | 1 for d in (17, 90, 400)]
        assert max(len(str(c)) for c in cs) == 400
        with decimal.localcontext(_EXACT):
            for p in ps:
                for c in cs:
                    got = _round_half_even(p, Decimal(c))
                    assert str(got) == str(_round_half_even(p, c)), (p, c)

    def test_exact_share_rounds_back_to_its_count(self, rng):
        # a hybrid stratum keeps count / C with C <= the exact budget, and the
        # count loop must recover the count from that float
        for c in (1, 2, 3, 7, 255, 999_983, EXACT_STRATUM_BUDGET):
            counts = {0, 1, c // 3, c // 2, c - 1, c, *rng.integers(0, c + 1, 500).tolist()}
            for count in counts:
                assert _round_half_even(count / c, c) == count, (count, c)


class TestApproximatePerfectSum:
    def test_normal_close_to_exact(self):
        report = approximate_perfect_sum([1, 2, 3, 4], 5, ApproxConfig(relation="ge"))
        assert abs(report.total - 9) <= 2

    def test_constant_set_degenerate(self):
        report = approximate_perfect_sum(
            [1.0] * 10, 3, ApproxConfig(relation="eq", granularity=1)
        )
        by_k = report.counts_by_k()
        assert by_k[3] == binomial(10, 3)
        assert report.total == binomial(10, 3)
        assert all(c == 0 for k, c in by_k.items() if k != 3)

    def test_target_above_max_sum(self):
        for method in ("normal", "kde"):
            report = approximate_perfect_sum(
                [1, 2, 3, 4], 100, ApproxConfig(method=method, relation="ge", seed=1)
            )
            assert report.total == 0

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"granularity": math.nan}, "granularity must be >= 0 and finite"),
            ({"granularity": math.inf}, "granularity must be >= 0 and finite"),
            ({"granularity": -1.0}, "granularity must be >= 0 and finite"),
            ({"low": -math.inf, "high": 1.0}, "low must be finite"),
            ({"high": math.nan}, "high must be finite"),
            ({"df": math.inf}, "df must be finite"),
        ],
    )
    def test_config_rejects_non_finite_floats(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ApproxConfig(**fields)

    @pytest.mark.parametrize("tolerance", [True, "0.5"])
    def test_tolerance_must_be_a_number(self, tolerance):
        # True ran as 1 and was echoed as true; "0.5" raised TypeError
        for engine in ("auto", "enumerate"):
            with pytest.raises(ValueError, match="tolerance must be >= 0 and finite"):
                exact_perfect_sum([1, 2, 3], 3, "eq", tolerance, engine=engine)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # a NaN tolerance used to count no subset at all
        with pytest.raises(ValueError, match="tolerance must be >= 0 and finite"):
            enumerate_counts([1, 2, 3], 3, "eq", tolerance)
        with pytest.raises(ValueError, match="tolerance must be >= 0 and finite"):
            exact_perfect_sum([1, 2, 3], 3, "eq", tolerance)

    def test_k_equals_n_is_degenerate(self):
        report = approximate_perfect_sum([1, 2, 3, 4], 10, ApproxConfig(relation="ge"))
        assert report.counts_by_k()[4] == 1
        report = approximate_perfect_sum(
            [1, 2, 3, 4], 10, ApproxConfig(method="chi_square", df=2.0, relation="ge")
        )
        assert report.counts_by_k()[4] == 1
        for target, count in ((10, 1), (10.5, 0)):
            report = approximate_perfect_sum(
                [1, 2, 3, 4], target, ApproxConfig(method="kde", relation="ge", samples=50)
            )
            assert report.counts_by_k()[4] == count

    @pytest.mark.parametrize(
        "method, extra",
        [("normal", {}), ("irwin_hall", {"low": 0.0, "high": 1.0}), ("chi_square", {"df": 1.0}),
         ("kde", {"samples": 50})],
    )
    def test_k_equals_n_compares_the_sum_of_the_set(self, method, extra):
        # 49 * mean and 7 * mean miss these sets' sums by an ulp
        for values, target, relation in (([1] + [0] * 48, 1, "ge"), ([29] + [0] * 6, 29, "le")):
            config = ApproxConfig(method=method, relation=relation, **extra)
            n = len(values)
            report = approximate_perfect_sum(values, target, config)
            assert report.counts_by_k()[n] == 1
            arr = np.array(values, dtype=np.float64)
            dist = _build_distribution(arr, set_statistics(arr), n, config)
            assert dist.mean == sum(values) and dist.variance == 0.0
        if method == "normal":
            assert approximate_perfect_sum([1] + [0] * 48, 1, ApproxConfig()).total == 2**48

    def test_counts_within_bounds(self, rng):
        for _ in range(5):
            values = rng.integers(0, 21, 12).tolist()
            target = float(rng.integers(0, 130))
            for method, extra in (
                ("normal", {}),
                ("irwin_hall", {"low": 0.0, "high": 20.0}),
                ("chi_square", {"df": 3.0}),
                ("kde", {"samples": 500, "seed": 3}),
            ):
                for relation in ("eq", "ge", "le"):
                    report = approximate_perfect_sum(
                        values, target,
                        ApproxConfig(method=method, relation=relation, **extra),
                    )
                    n = len(values)
                    for k, c in report.counts_by_k().items():
                        assert 0 <= c <= binomial(n, k)
                    assert report.total <= 2**n - 1
                    assert report.total == sum(report.counts)
                    assert np.all(report.probabilities >= 0)
                    assert np.all(report.probabilities <= 1)

    def test_monotone_in_target_for_ge(self, rng):
        values = rng.integers(0, 21, 14).tolist()
        config = ApproxConfig(relation="ge")
        totals = [
            approximate_perfect_sum(values, t, config).total
            for t in np.linspace(-10, sum(values) + 10, 25)
        ]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_hybrid_equals_exact_when_all_strata_exact(self, rng):
        values = rng.integers(0, 30, 12).tolist()
        target = float(rng.integers(10, 200))
        for relation in ("eq", "ge", "le"):
            report = approximate_perfect_sum(
                values, target, ApproxConfig(relation=relation, exact_small_k=12)
            )
            exact = exact_perfect_sum(values, target, relation)
            assert report.total == exact.total
            assert report.counts_by_k() == exact.counts_by_k()
            assert set(report.methods) == {"exact"}

    def test_hybrid_small_strata_only(self):
        values = list(range(1, 15))
        # no 1-subset reaches either target and no 2-subset reaches 30: an
        # exact stratum of count 0 has probability 0 and no row
        for target, exact_rows in ((30.0, []), (20.0, [2])):
            report = approximate_perfect_sum(
                values, target, ApproxConfig(relation="ge", exact_small_k=2)
            )
            methods = dict(zip(report.ks.tolist(), report.methods))
            assert [k for k, m in methods.items() if m == "exact"] == exact_rows
            assert {m for k, m in methods.items() if k > 2} == {"normal"}
            brute = brute_counts(values, target, "ge")
            assert report.counts_by_k()[1] == brute[1]
            assert report.counts_by_k()[2] == brute[2]

    def test_hybrid_stratum_over_the_budget_keeps_its_model(self, rng):
        # C(60, 4) = 487,635 is within the exact budget; C(60, 5) = 5,461,512 is not
        values = rng.integers(0, 30, 60).tolist()
        target = 0.5 * sum(values)
        hybrid = approximate_perfect_sum(
            values, target, ApproxConfig(relation="ge", exact_small_k=5)
        )
        model = approximate_perfect_sum(values, target, ApproxConfig(relation="ge"))
        assert all((m == "exact") == (k <= 4) for k, m in zip(hybrid.ks.tolist(), hybrid.methods))
        dp = dp_counts(values, target, "ge")
        counts, model_counts = hybrid.counts_by_k(), model.counts_by_k()
        assert [counts[k] for k in range(1, 5)] == [dp[k] for k in range(1, 5)]
        assert all(counts[k] == model_counts[k] for k in range(5, 61))
        probs = dict(zip(hybrid.ks.tolist(), hybrid.probabilities.tolist()))
        model_probs = dict(zip(model.ks.tolist(), model.probabilities.tolist()))
        assert {k: p for k, p in probs.items() if k > 4} == {
            k: p for k, p in model_probs.items() if k > 4
        }
        assert hybrid.total == sum(hybrid.counts)

    def test_k_range_restriction(self):
        report = approximate_perfect_sum(
            [1, 2, 3, 4, 5], 6, ApproxConfig(relation="ge", k_min=2, k_max=3)
        )
        assert report.ks.tolist() == [2, 3]

    def test_vectorized_normal_path_matches_scalar_queries(self, rng):
        # every parametric family answers its strata in one array query, bit
        # for bit the scalar query of each stratum; k = n is the atom n * mean
        from types import SimpleNamespace

        from perfectsum import (
            ChiSquareSum,
            IrwinHallSum,
            NormalSum,
            normal_sum_approx,
            probability_query,
            set_statistics,
        )
        from perfectsum.approx import IRWIN_HALL_EXACT_MAX_K, _irwin_hall_cdf_std

        def irwin_hall(stats, k):
            return IrwinHallSum(k, -10.0, 30.0)

        def irwin_hall_one(stats, k):
            # the exact sum up to the cutoff, the normal limit above it
            if k > IRWIN_HALL_EXACT_MAX_K:
                dist = irwin_hall(stats, k)
                return NormalSum(dist.mean, dist.variance)
            return SimpleNamespace(
                cdf=lambda x: _irwin_hall_cdf_std((np.float64(x) - k * -10.0) / 40.0, k)
            )

        def chi_square(stats, k):
            return ChiSquareSum(k, 3.0)

        families = {  # method: (config fields, model of an array of sizes, of one size)
            "normal": ({}, normal_sum_approx, normal_sum_approx),
            "irwin_hall": ({"low": -10.0, "high": 30.0}, irwin_hall, irwin_hall_one),
            "chi_square": ({"df": 3.0}, chi_square, chi_square),
        }
        values = rng.uniform(-10, 30, 17).tolist()
        wide = rng.uniform(-10, 30, 60).tolist()
        cases = [  # values, target, granularity, k_min, k_max
            (values, 25.0, 2.0, None, None),
            (values, 25.0, 2.0, 9, 17),
            # Irwin-Hall is exact up to k = 40 and its normal limit above
            (wide, 400.0, 2.0, 39, 41),
            (wide[:41], 400.0, 2.0, 36, 41),
            # atoms: constant sets, n = 1 and windows that end at k = n
            ([1.5] * 6, 4.5, 0.0, 1, 6),
            ([1.5] * 6, 4.5, 0.5, 2, 6),
            ([3.0] * 5, 9.0, None, 1, 5),
            ([2.5], 2.5, 0.0, 1, 1),
            ([4.0], 3.0, 1.0, 1, 1),
        ]
        checked = {method: 0 for method in families}
        for method, (extra, model, model_one) in families.items():
            for values, target, g, k_min, k_max in cases:
                stats = set_statistics(values)
                n = stats.n
                ks = np.arange(k_min or 1, (k_max or n) + 1)
                g_used = auto_granularity(values) if g is None else g

                def scalar(k, relation):
                    # the normal model reaches the k = n atom on its own
                    atom = k == n and method != "normal"
                    dist = NormalSum(k * stats.mean, 0.0) if atom else model_one(stats, k)
                    return probability_query(dist, target, relation, g_used)

                for relation in ("eq", "ge", "le"):
                    config = ApproxConfig(
                        method=method, relation=relation, granularity=g,
                        k_min=k_min, k_max=k_max, **extra,
                    )
                    try:
                        report = approximate_perfect_sum(values, target, config)
                    except ValueError:
                        # only where a stratum's own query fails (eq at g = 0)
                        with pytest.raises(ValueError, match="needs granularity > 0"):
                            [scalar(k, relation) for k in ks.tolist()]
                        continue
                    # the normal array model holds the k = n atom too; the
                    # Irwin-Hall and chi-square array models stop below it
                    sized = ks if method == "normal" else ks[ks < n]
                    arrays = [
                        probability_query(model(stats, sizes), target, relation, g_used)
                        for sizes in (sized, sized.astype(np.float64))
                    ] if sized.size else []
                    for array in arrays:
                        assert isinstance(array, np.ndarray) and array.shape == sized.shape
                    probs = dict(zip(report.ks.tolist(), report.probabilities.tolist()))
                    for i, k in enumerate(ks.tolist()):
                        expected = scalar(k, relation)
                        assert isinstance(expected, float)
                        assert probs.get(k, 0.0) == expected, (method, relation, k)
                        for array in arrays if i < sized.size else []:
                            assert array[i] == expected, (method, relation, k)
                        checked[method] += 1
        # only the eq queries at g = 0 on continuous strata are skipped
        assert min(checked.values()) >= 150

    def test_kde_per_stratum_seeds_are_stable(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        config = ApproxConfig(method="kde", relation="ge", samples=400, seed=5)
        a = approximate_perfect_sum(values, 15, config)
        b = approximate_perfect_sum(values, 15, config)
        assert a.counts == b.counts
        # restricting the k range must not shift other strata's randomness
        c = approximate_perfect_sum(
            values, 15, ApproxConfig(method="kde", relation="ge", samples=400, seed=5,
                                     k_min=3, k_max=3)
        )
        assert c.counts_by_k() == {3: a.counts_by_k()[3]}

    def test_kde_strata_read_one_shared_draw(self, rng):
        from perfectsum import KdeModel, fit_bandwidth, probability_query
        from perfectsum.kde import shared_subset_sums

        values = rng.integers(0, 21, 30).tolist()
        config = ApproxConfig(method="kde", relation="ge", samples=300, seed=8, k_max=29)
        report = approximate_perfect_sum(values, 200.0, config)
        g = report.meta["granularity"]
        probs = dict(zip(report.ks.tolist(), report.probabilities.tolist()))
        columns = shared_subset_sums(values, 1, 29, 300, seed=8)
        for k, sums in enumerate(columns, start=1):
            model = KdeModel(sums=sums, bandwidth=fit_bandwidth(sums))
            assert probs.get(k, 0.0) == probability_query(model, 200.0, "ge", g)

    def test_kde_too_few_samples_fail_with_k(self):
        with pytest.raises(ValueError, match="need at least 2 samples for a bandwidth, got m=1"):
            approximate_perfect_sum(
                [1, 2, 3], 2, ApproxConfig(method="kde", samples=1, k_min=2)
            )

    def test_kde_too_few_samples_fail_in_the_config(self):
        with pytest.raises(ValueError, match="need at least 2 samples for a bandwidth, got m=1"):
            ApproxConfig(method="kde", samples=1)
        # other methods never sample
        assert ApproxConfig(method="normal", samples=1).samples == 1

    def test_kde_too_few_samples_fail_at_k_equal_n(self):
        # k = n needs no sample, but the run still rejects the config
        with pytest.raises(ValueError, match="need at least 2 samples for a bandwidth, got m=0"):
            approximate_perfect_sum(
                [1, 2, 3], 2, ApproxConfig(method="kde", samples=0, k_min=3)
            )

    def test_missing_family_params_fail_with_k(self):
        with pytest.raises(ValueError, match="irwin_hall method needs low and high bounds"):
            approximate_perfect_sum([1, 2, 3], 2, ApproxConfig(method="irwin_hall"))
        with pytest.raises(ValueError, match="chi_square method needs df"):
            approximate_perfect_sum([1, 2, 3], 2, ApproxConfig(method="chi_square"))

    def test_eq_needs_granularity_on_real_sets(self):
        # every method raises the same error type for the same input error
        for method, extra in (
            ("normal", {}),
            ("irwin_hall", {"low": 1.0, "high": 4.0}),
            ("chi_square", {"df": 2.0}),
            ("kde", {"samples": 50}),
        ):
            with pytest.raises(ValueError, match="needs granularity > 0"):
                approximate_perfect_sum(
                    [1.5, 2.25, 3.75], 4.0, ApproxConfig(method=method, relation="eq", **extra)
                )

    def test_eq_on_atoms_needs_no_granularity(self):
        # every stratum of a constant real set or of n = 1 is an atom,
        # counted exactly at granularity 0
        report = approximate_perfect_sum([1.5, 1.5, 1.5], 3.0, ApproxConfig(relation="eq"))
        assert report.meta["granularity"] == 0.0
        assert report.counts_by_k() == {1: 0, 2: 3, 3: 0}
        assert report.total == 3
        for target, total in ((2.5, 1), (2.0, 0)):
            report = approximate_perfect_sum([2.5], target, ApproxConfig(relation="eq"))
            assert report.counts_by_k() == {1: total} and report.total == total
        # a window holding only k = n of a real set
        report = approximate_perfect_sum(
            [1.5, 2.25, 3.75], 7.5, ApproxConfig(relation="eq", k_min=3, k_max=3)
        )
        assert report.counts_by_k() == {3: 1}

    def test_eq_atom_counts_in_the_granularity_window(self):
        # every stratum of [3, 3, 3] is an atom; k = 2 sums to 6, inside (5.7, 6.7]
        config = ApproxConfig(relation="eq", granularity=1)
        report = approximate_perfect_sum([3, 3, 3], 6.2, config)
        hybrid = approximate_perfect_sum(
            [3, 3, 3], 6.2, ApproxConfig(relation="eq", granularity=1, exact_small_k=2)
        )
        assert report.counts_by_k() == hybrid.counts_by_k() == {1: 0, 2: 3, 3: 0}
        assert exact_perfect_sum([3, 3, 3], 6.2, "eq", tolerance=0.5).total == 3
        # the window is open below and closed above
        for target, counts in ((5.5, [0, 3, 0]), (6.5, [0, 0, 0]), (8.5, [0, 0, 1])):
            by_k = approximate_perfect_sum([3, 3, 3], target, config).counts_by_k()
            assert list(by_k.values()) == counts

    def test_eq_without_granularity_rejected_when_a_stratum_is_continuous(self):
        # k = 2 is continuous even though k = 3 is an atom
        with pytest.raises(
            ValueError, match="needs granularity > 0; an exact continuous sum has probability 0"
        ):
            approximate_perfect_sum(
                [1.5, 2.25, 3.75], 7.5, ApproxConfig(relation="eq", k_min=2, k_max=3)
            )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            approximate_perfect_sum([], 1.0, ApproxConfig())


class TestSumLattice:
    """Each stratum k of an integer set is read on its lattice k * x0 + g * Z (normal, n = 200)."""

    INTS = np.random.default_rng(0).integers(0, 21, 200)
    ODD = 2 * np.random.default_rng(0).integers(0, 11, 200) + 1

    @staticmethod
    def total_error(values, target, relation):
        truth = dp_counts(values, target, relation).total
        got = approximate_perfect_sum(values, target, ApproxConfig(relation=relation)).total
        return abs(got - truth) / truth

    @pytest.mark.parametrize("relation", ["ge", "le"])
    def test_target_off_the_lattice(self, relation):
        # ge counted from 1199.8, not from 1201, and was off by 1.56e-2
        assert self.total_error(self.INTS, 1200.3, relation) < 1e-4

    @pytest.mark.parametrize("target", [1200.3, 1000.3])
    def test_eq_off_the_lattice_counts_nothing(self, target):
        # the window (T - 1/2, T + 1/2] holds a lattice point: 2.4e57 at 1200.3
        assert dp_counts(self.INTS, target, "eq").total == 0
        report = approximate_perfect_sum(self.INTS, target, ApproxConfig(relation="eq"))
        assert report.total == 0 and report.ks.size == 0

    @pytest.mark.parametrize("relation", ["eq", "ge", "le"])
    @pytest.mark.parametrize("target", [1200, 1201])
    def test_odd_values_put_odd_strata_off_the_even_lattice(self, relation, target):
        # a k-subset of odd values has the parity of k; eq counted twice the truth
        assert self.total_error(self.ODD, target, relation) < 1e-4

    @pytest.mark.parametrize("relation", ["eq", "ge", "le"])
    @pytest.mark.parametrize("target", [24, 24.5])
    def test_exact_strata_count_their_lattice(self, relation, target):
        # every stratum of 12 values is exact; 24 is off the odd strata's lattice
        values = [1, 3, 5, 7, 9, 11, 3, 5, 1, 7, 9, 13]
        config = ApproxConfig(relation=relation, exact_small_k=len(values))
        report = approximate_perfect_sum(values, target, config)
        assert report.counts_by_k() == dp_counts(values, target, relation).counts

    @pytest.mark.parametrize("target", [4, 8])
    def test_odd_strata_of_an_even_target_count_nothing(self, target):
        # the k-sums of {1, 3, 5} lie on k + 2Z, so an even target is a sum of
        # two values alone; the window (T - 1, T + 1] gave k = 1 a count at 4
        # and the k = 3 atom (sum 9) one at 8
        report = approximate_perfect_sum([1, 3, 5], target, ApproxConfig(relation="eq"))
        assert report.ks.tolist() == [2]

    @pytest.mark.parametrize("relation, shifted", [("ge", 9.7), ("le", 10.7)])
    def test_explicit_granularity_counts_the_centred_window(self, relation, shifted):
        # an explicit granularity reads (T - g/2, +inf) and (-inf, T + g/2], in
        # the exact strata and the k = n atom as in the model
        values = [1, 2, 3, 4, 5, 6]
        config = ApproxConfig(relation=relation, granularity=1, exact_small_k=6)
        report = approximate_perfect_sum(values, 10.2, config)
        assert report.counts_by_k() == dp_counts(values, shifted, relation).counts


class TestCountMaterialisation:
    @pytest.mark.parametrize("kind", ["integer", "gaussian"])
    def test_counts_match_per_stratum_formula(self, kind):
        rng = np.random.default_rng(300)
        n = 300
        if kind == "integer":
            values, g = rng.integers(0, 21, n).astype(float), None
        else:
            values, g = rng.normal(5.0, 2.0, n), 0.5
        pair_sums = (values[:, None] + values[None, :])[np.triu_indices(n, 1)]
        exact_strata = {1: values, 2: pair_sums}
        for relation in ("eq", "ge", "le"):
            for frac in (0.5, 0.9 if relation == "ge" else 0.1):
                target = frac * float(values.sum())
                for k_min, k_max, exact_small_k in ((None, None, 2), (2, 250, 2), (40, 260, 0)):
                    report = approximate_perfect_sum(
                        values, target,
                        ApproxConfig(relation=relation, granularity=g, k_min=k_min,
                                     k_max=k_max, exact_small_k=exact_small_k),
                    )
                    gran = report.meta["granularity"]
                    probs = dict(zip(report.ks.tolist(), report.probabilities.tolist()))
                    methods = dict(zip(report.ks.tolist(), report.methods))
                    for k, count in report.counts_by_k().items():
                        p = probs.get(k, 0.0)
                        if k <= exact_small_k:
                            sums = exact_strata[k]
                            if relation == "eq":
                                hit = (sums > target - gran / 2) & (sums <= target + gran / 2)
                            elif relation == "ge":
                                hit = sums >= target
                            else:
                                hit = sums <= target
                            assert count == int(hit.sum()), (relation, frac, k)
                        elif p > 0.0:
                            assert count == _round_half_even(p, math.comb(n, k)), (relation, k)
                        else:
                            assert count == 0, (relation, frac, k)
                    assert report.total == sum(report.counts)
                    exact_ks = [k for k, m in methods.items() if m == "exact"]
                    assert exact_ks == [k for k in methods if k <= exact_small_k]

    def test_int_and_decimal_ladders_agree(self, rng):
        # a sparse k list with gaps of every length, both ends of 1..n, and
        # probabilities from the float extremes to exact ties
        n = 5000
        ks = np.unique(np.concatenate([[1, 2, 3, 2500, n - 1, n],
                                       rng.choice(np.arange(4, n - 1), 200, replace=False)]))
        probs = rng.random(ks.size)
        probs[:6] = [1.0, 0.5, 5e-324, 0.75, 1.0 - 2.0**-53, 0.25]
        ks, probs = ks.tolist(), probs.tolist()
        with decimal.localcontext(_EXACT):
            emitted = [str(c) for c in _counts(n, ks, probs, Decimal)]
        assert emitted == [str(c) for c in _counts(n, ks, probs, int)]


class TestAutoGranularity:
    def test_integer_sets_use_gcd(self):
        assert auto_granularity([2, 4, 10]) == 2.0
        assert auto_granularity([0, 5, 20]) == 5.0
        assert auto_granularity([1, 2, 3]) == 1.0

    def test_constant_integer_set(self):
        assert auto_granularity([7, 7, 7]) == 1.0

    def test_real_sets_disable(self):
        assert auto_granularity([1.5, 2.0]) == 0.0

    def test_differences_past_int64(self):
        # 6e18 - (-4e18) wrapped in int64, which gave 524288
        assert auto_granularity([-4e18, 4e18, 6e18]) == 2e18
        assert auto_granularity([-4e18, 4e18]) == 8e18
        assert auto_granularity([2.0**62, 1, 1]) == float(2**62 - 1)
        assert auto_granularity([1e19, 1, 2]) == 1.0

    def test_empty_set(self):
        assert auto_granularity([]) == 0.0

    def test_gcd_one_inside_the_first_chunk(self):
        values = 6.0 * np.arange(3 * _CHUNK)
        values[1] = 7.0
        assert auto_granularity(values) == 1.0
        # the reduction stops at 1, but every chunk is still checked for integers
        values[-1] = 0.5
        assert auto_granularity(values) == 0.0

    def test_one_odd_value_after_the_first_chunk(self):
        values = 2.0 * np.random.default_rng(3).integers(0, 50, 3 * _CHUNK)
        assert auto_granularity(values) == 2.0
        values[_CHUNK + 5] += 1
        assert auto_granularity(values) == 1.0

    def test_large_constant_set(self):
        assert auto_granularity(np.full(2 * _CHUNK + 3, -4.0)) == 1.0


@pytest.mark.parametrize(
    "count",
    [
        lambda t: approximate_perfect_sum([1, 2, 3], t, ApproxConfig()),
        lambda t: exact_perfect_sum([1, 2, 3], t, "ge"),
        lambda t: enumerate_counts([1, 2, 3], t, "ge"),
        lambda t: dp_counts([1, 2, 3], t, "ge"),
    ],
    ids=["approximate_perfect_sum", "exact_perfect_sum", "enumerate_counts", "dp_counts"],
)
def test_nan_target_rejected(count):
    with pytest.raises(ValueError, match="target must be a number, got nan"):
        count(math.nan)


class TestExactPerfectSum:
    def test_eq_example(self):
        report = exact_perfect_sum([1, 2, 3, 4], 5, "eq")
        assert report.total == 2

    def test_le_zero_with_positive_set(self):
        assert exact_perfect_sum([1, 2, 3, 4], 0, "le").total == 0

    def test_engines_agree(self, rng):
        values = rng.integers(0, 40, 18).tolist()
        target = float(rng.integers(0, 300))
        for relation in ("eq", "ge", "le"):
            dp = exact_perfect_sum(values, target, relation, engine="dp")
            en = exact_perfect_sum(values, target, relation, engine="enumerate")
            assert dp.total == en.total
            assert dp.counts_by_k() == en.counts_by_k()

    def test_probability_column(self):
        report = exact_perfect_sum([1, 2, 3, 4], 5, "ge")
        assert report.ks.tolist() == [2, 3, 4]
        assert report.probabilities.tolist() == pytest.approx([4 / 6, 4 / 4, 1.0])

    def test_values_past_int64_go_through_the_dp(self):
        # the auto engine cast them to int64 for the dp, which wrapped: total 0
        values = [1e19, 2e19, 3e19, 4e19]
        assert exact_perfect_sum(values, 5e19, "eq", engine="enumerate").total == 2
        with pytest.raises(InfeasibleError, match="cells"):
            exact_perfect_sum(values, 5e19, "eq")
        # the float sums 2^62 + 1 and 2^62 + 2 round to 2^62; the DP's do not
        report = exact_perfect_sum([2.0**62, 1, 1], 2.0**62, "eq")
        assert report.meta["method"] == "dp"
        assert report.total == 1
        assert exact_perfect_sum([1e19, 1, 2], 1e19, "eq").total == 1

    def test_real_values_go_through_enumeration(self):
        report = exact_perfect_sum([1.5, 2.5, 3.0], 4.0, "ge")
        assert report.meta["method"] == "enumerate"
        assert report.total == sum(brute_counts([1.5, 2.5, 3.0], 4.0, "ge").values())

    def test_tolerance_only_where_it_is_honoured(self):
        # the three 2-subsets sum to 6, within 0.5 of 6.2; the enumerator
        # counts them, the dp counts exact sums only and refuses
        assert exact_perfect_sum([3, 3, 3], 6.2, "eq", tolerance=0.5, engine="enumerate").total == 3
        assert exact_perfect_sum([3, 3, 3], 6.2, "eq", tolerance=0.5).total == 3
        with pytest.raises(ValueError, match="tolerance must be 0"):
            exact_perfect_sum([3, 3, 3], 6.2, "eq", tolerance=0.5, engine="dp")
        for engine in ("auto", "enumerate", "dp"):
            with pytest.raises(ValueError, match="tolerance must be >= 0"):
                exact_perfect_sum([3, 3, 3], 6.0, "eq", tolerance=-0.5, engine=engine)


class TestReportSerialization:
    def test_meta_echoes_the_config(self):
        keys = ["command", "n", "target", "relation", "method", "granularity", "k_min",
                "k_max", "exact_small_k", "samples", "seed", "low", "high", "df"]
        normal = approximate_perfect_sum(
            [1, 2, 3, 4], 5, ApproxConfig(relation="le", samples=7, seed=3, k_min=2)
        ).meta
        assert list(normal) == keys
        assert normal["granularity"] == 1.0
        assert (normal["k_min"], normal["k_max"]) == (2, 4)
        assert normal["samples"] is None and normal["seed"] is None
        kde = approximate_perfect_sum(
            [1, 2, 3, 4], 5, ApproxConfig(method="kde", samples=7, seed=3)
        ).meta
        assert list(kde) == keys
        assert (kde["samples"], kde["seed"]) == (7, 3)

    def test_counts_as_decimal_strings(self):
        report = exact_perfect_sum([1, 2, 3, 4], 5, "ge")
        doc = report.to_json_dict()
        assert doc["total"] == "9"
        assert all(isinstance(c, str) for c in doc["per_k"]["count"])
        json.dumps(doc)  # must be serializable as-is

    def test_zero_rows_elided(self):
        report = exact_perfect_sum([1, 2, 3, 4], 5, "eq")
        doc = report.to_json_dict()
        assert doc["per_k"]["k"] == [2]
        assert doc["per_k"]["count"] == ["2"]

    @staticmethod
    def _kept_columns(report):
        """The rows of positive probability or nonzero count, from every k of the window."""
        probs = dict(zip(report.ks.tolist(), report.probabilities.tolist()))
        methods = dict(zip(report.ks.tolist(), report.methods))
        kept = [(k, c) for k, c in report.counts_by_k().items()
                if probs.get(k, 0.0) > 0 or c != 0]
        return {
            "k": [k for k, _ in kept],
            "probability": [probs[k] for k, _ in kept],
            "count": [str(c) for _, c in kept],
            "method_used": [methods[k] for k, _ in kept],
        }

    def test_per_k_matches_filtered_rows(self):
        report = approximate_perfect_sum(
            list(range(1, 41)), 700.0, ApproxConfig(relation="ge", exact_small_k=2)
        )
        assert 0 < len(report.to_json_dict()["per_k"]["k"]) < len(report.counts_by_k())
        assert report.to_json_dict()["per_k"] == self._kept_columns(report)

    def test_count_kept_where_probability_underflowed(self):
        # a k-subset sums to 560 when it holds all 560 ones and k - 560 zeros;
        # C(1120, k) exceeds the float range near k = 560, so count / C
        # underflows to 0.0 on the first rows, which keep their counts
        report = exact_perfect_sum([0] * 560 + [1] * 560, 560, "eq")
        assert report.ks.tolist() == list(range(560, 1121))
        assert report.counts == [math.comb(560, k - 560) for k in range(560, 1121)]
        assert report.probabilities[:3].tolist() == [0.0, 0.0, 0.0]
        per_k = report.to_json_dict()["per_k"]
        assert per_k == self._kept_columns(report)
        assert per_k["count"][:3] == ["1", "560", "156520"]

    @staticmethod
    def _mid_report(n):
        values = np.random.default_rng(n).integers(0, 21, n).astype(float)
        return approximate_perfect_sum(values, float(round(values.sum() / 2)),
                                       ApproxConfig(relation="ge"))

    def test_decimal_counts_match_the_int_counts(self):
        # counts of over 4,000 digits, just below the interpreter's limit
        report = self._mid_report(14_000)
        doc = report.to_json_dict()
        assert 4000 < max(len(c) for c in doc["per_k"]["count"]) <= 4300
        assert doc["per_k"]["count"] == [str(c) for c in report.counts]
        assert doc["total"] == str(report.total) and sum(report.counts) == report.total

    def test_total_past_the_digit_limit_raises_before_any_count(self, monkeypatch):
        # pins today's behaviour: the n = 20,000 total has about 6,000 digits, and
        # its str(int) raises before the counts are converted. Lifting the
        # limit will change this; the counts past it are checked already
        report = self._mid_report(20_000)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "_counts", None)  # a count converted first fails
                with pytest.raises(ValueError, match="integer string conversion"):
                    report.to_json_dict()
            sys.set_int_max_str_digits(0)
        try:
            doc = report.to_json_dict()
            assert max(len(c) for c in doc["per_k"]["count"]) > 4300
            assert doc["per_k"]["count"] == [str(c) for c in report.counts]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_counts_by_k_covers_all_k(self):
        report = exact_perfect_sum([1, 2, 3, 4], 5, "eq")
        assert report.ks.tolist() == [2]
        assert report.counts_by_k() == {1: 0, 2: 2, 3: 0, 4: 0}
        # no stratum of the window reaches 100: a report of no rows
        report = approximate_perfect_sum(
            [1, 2, 3, 4, 5], 100, ApproxConfig(relation="ge", k_min=2, k_max=4)
        )
        assert report.ks.tolist() == [] and report.to_json_dict()["per_k"]["k"] == []
        assert report.counts_by_k() == {2: 0, 3: 0, 4: 0}

    def test_diagnostics_serialization(self, rng):
        from perfectsum import berry_esseen_terms

        keys = ["k", "p", "q", "b", "delta1", "delta2", "bound_over_c"]
        report = approximate_perfect_sum(
            [1, 2, 3, 4, 5], 7, ApproxConfig(relation="ge", diagnostics=True)
        )
        doc = report.to_json_dict()
        assert list(doc["diagnostics"]) == keys
        assert all(len(column) == 5 for column in doc["diagnostics"].values())
        # k = n entry is the infinite delta1 branch, serialized as a string
        for key in ("delta1", "delta2", "bound_over_c"):
            assert doc["diagnostics"][key][-1] == "inf"
        assert doc["diagnostics"]["q"][-1] == 0.0
        json.dumps(doc)

        # one columnar record, each entry within 4 ulp of the scalar terms
        # (numpy's array powers may round differently from Python's pow)
        values = rng.uniform(0, 1, 40).tolist()
        for k_min, k_max in ((None, None), (7, 33), (35, 40)):
            config = ApproxConfig(relation="ge", diagnostics=True, k_min=k_min, k_max=k_max)
            report = approximate_perfect_sum(values, 20.0, config)
            doc = json.loads(json.dumps(report.to_json_dict()))["diagnostics"]
            assert list(doc) == keys
            window = list(report.counts_by_k())
            assert doc["k"] == window
            assert all(len(column) == len(window) for column in doc.values())
            for i, k in enumerate(window):
                terms = berry_esseen_terms(values, k)
                for key in keys[1:]:
                    got, want = doc[key][i], getattr(terms, key)
                    assert isinstance(want, float)
                    if math.isinf(want):
                        assert got == "inf" and k == 40, (key, k)
                    else:
                        assert abs(got - want) <= 4 * math.ulp(want), (key, k)

    def test_diagnostics_on_constant_set_aborts(self):
        with pytest.raises(ValueError, match="bound undefined for this input: set variance"):
            approximate_perfect_sum(
                [2.0, 2.0, 2.0], 4, ApproxConfig(relation="ge", diagnostics=True)
            )


# the kinds of set the window must keep bit-identical: integers whose sums
# lie on the lattice 0 + gZ or on an offset one, a mean of exactly 0, reals
# (g = 0), sets whose spread is far below the rounding of their sums, and
# values whose window coefficients pass the float range
_WINDOW_SETS = {
    "even": lambda rng, n: 2.0 * rng.integers(-6, 11, n),
    "odd": lambda rng, n: 2.0 * rng.integers(-6, 11, n) + 1,
    "integers": lambda rng, n: rng.integers(-20, 21, n).astype(np.float64),
    "negative": lambda rng, n: rng.integers(-20, 3, n).astype(np.float64),
    "zero_mean": lambda rng, n: np.concatenate(
        (half := rng.integers(-20, 21, n // 2), -half, [0.0] * (n % 2))
    ),
    "reals": lambda rng, n: rng.normal(rng.normal(0.0, 5.0), rng.uniform(0.01, 5.0), n),
    "near_constant": lambda rng, n: 1e15 + rng.integers(0, 2, n).astype(np.float64),
    "near_constant_reals": lambda rng, n: 3.0 + 1e-12 * rng.random(n),
    "huge": lambda rng, n: rng.uniform(1e149, 1e151, n),
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(_WINDOW_SETS)),
    n=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    relation=st.sampled_from(["ge", "le", "eq"]),
    granularity=st.sampled_from([None, None, 0.5, 1.0, 3.0]),
    where=st.one_of(
        st.floats(-0.3, 1.3),
        st.sampled_from([-math.inf, math.inf, -1e308, 1e308]),
    ),
    window=st.tuples(st.floats(0, 1), st.floats(0, 1)) | st.none(),
    integral=st.booleans(),
    exact_small_k=st.integers(0, 2),
)
def test_normal_strata_match_the_all_sizes_query_bit_for_bit(
    kind, n, seed, relation, granularity, where, window, integral, exact_small_k
):
    """The normal report's probabilities are the positive entries of one query over every size."""
    arr = _WINDOW_SETS[kind](np.random.default_rng(seed), n)
    # a target between the smallest and the largest sum, or a far one
    low, high = float(np.minimum(arr, 0).sum()), float(np.maximum(arr, 0).sum())
    target = low + where * (high - low) if -2 < where < 2 else where
    if integral and -2 < where < 2:
        target = float(round(target))  # on some strata's lattice, for eq
    k_min, k_max = None, None
    if window is not None:
        k_min, k_max = sorted(1 + int(u * (n - 1)) for u in window)
    exact_small_k = min(exact_small_k, k_max or n)
    config = ApproxConfig(
        relation=relation,
        granularity=granularity,
        k_min=k_min,
        k_max=k_max,
        exact_small_k=exact_small_k,
    )

    stats = set_statistics(arr)
    g = auto_granularity(arr) if granularity is None else granularity
    sizes = np.arange(k_min or 1, min(k_max or n, n - 1) + 1, dtype=np.float64)
    offset = _lattice_offset(float(arr[0]), sizes, g) if granularity is None and g > 0 else None
    try:
        want = probability_query(normal_sum_approx(stats, sizes), target, relation, g, offset)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            approximate_perfect_sum(arr, target, config)
        return
    want = np.broadcast_to(want, sizes.shape)
    report = approximate_perfect_sum(arr, target, config)

    exact_ks = set(range(1, exact_small_k + 1))
    got = [
        (k, p.hex())
        for k, p, m in zip(report.ks.tolist(), report.probabilities.tolist(), report.methods)
        if k < n and m == "normal"
    ]
    assert got == [
        (k, p.hex())
        for k, p in zip(sizes.astype(int).tolist(), want.tolist())
        if p > 0 and k not in exact_ks
    ]


def test_normal_query_reads_only_its_unsaturated_strata(monkeypatch):
    # a tail target on 2e5 values saturates all but a few hundred strata; a
    # silent return to the all-strata query would read every one of them
    values = np.random.default_rng(3).integers(0, 21, 200_000)
    total = int(values.sum())
    sizes = []

    def query(dist, *args):
        sizes.append(np.size(dist.mean))
        return probability_query(dist, *args)

    monkeypatch.setattr(pipeline, "probability_query", query)
    report = approximate_perfect_sum(values, total - 5 * total / values.size, ApproxConfig())
    assert report.total > 0 and len(sizes) == 1 and sizes[0] < 1000
