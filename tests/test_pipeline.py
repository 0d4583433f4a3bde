"""Pipeline tests: counting loop, rounding, hybrid mode, report shape."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from perfectsum import (
    ApproxConfig,
    ApproxReport,
    approximate_perfect_sum,
    auto_granularity,
    binomial,
    dp_counts,
    enumerate_counts,
    exact_perfect_sum,
    set_statistics,
)
from perfectsum.pipeline import EXACT_STRATUM_BUDGET, _build_distribution, _round_half_even

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
            assert _build_distribution(arr, set_statistics(arr), n, config).atom == sum(values)
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
        report = approximate_perfect_sum(
            values, 30.0, ApproxConfig(relation="ge", exact_small_k=2)
        )
        assert report.methods[0] == "exact"
        assert report.methods[1] == "exact"
        assert set(report.methods[2:]) == {"normal"}
        brute = brute_counts(values, 30.0, "ge")
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
        assert hybrid.methods == ["exact"] * 4 + ["normal"] * 56
        dp = dp_counts(values, target, "ge")
        assert hybrid.counts[:4] == [dp[k] for k in range(1, 5)]
        assert hybrid.counts[4:] == model.counts[4:]
        assert hybrid.probabilities[4:].tobytes() == model.probabilities[4:].tobytes()
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
            DegenerateSum,
            NormalSum,
            chi_square_sum,
            irwin_hall_sum,
            normal_sum_approx,
            probability_query,
            set_statistics,
        )
        from perfectsum.approx import IRWIN_HALL_EXACT_MAX_K, _irwin_hall_cdf_std

        def irwin_hall(stats, k):
            return irwin_hall_sum(k, -10.0, 30.0)

        def irwin_hall_one(stats, k):
            # the exact sum up to the cutoff, the normal limit above it
            if k > IRWIN_HALL_EXACT_MAX_K:
                dist = irwin_hall(stats, k)
                return NormalSum(dist.mean, dist.variance)
            return SimpleNamespace(
                cdf=lambda x: _irwin_hall_cdf_std((np.float64(x) - k * -10.0) / 40.0, k)
            )

        def chi_square(stats, k):
            return chi_square_sum(k, 3.0)

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
                    dist = DegenerateSum(k * stats.mean) if atom else model_one(stats, k)
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
                    for i, k in enumerate(ks.tolist()):
                        expected = scalar(k, relation)
                        assert isinstance(expected, float)
                        assert report.probabilities[i] == expected, (method, relation, k)
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
        assert c.counts[0] == a.counts_by_k()[3]

    def test_kde_strata_read_one_shared_draw(self, rng):
        from perfectsum import KdeModel, fit_bandwidth, probability_query
        from perfectsum.kde import shared_subset_sums

        values = rng.integers(0, 21, 30).tolist()
        config = ApproxConfig(method="kde", relation="ge", samples=300, seed=8, k_max=29)
        report = approximate_perfect_sum(values, 200.0, config)
        g = report.meta["granularity"]
        columns = shared_subset_sums(values, 1, 29, 300, seed=8)
        for k, sums in enumerate(columns, start=1):
            model = KdeModel(sums=sums, bandwidth=fit_bandwidth(sums))
            assert report.probabilities[k - 1] == probability_query(model, 200.0, "ge", g)

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
            assert report.counts == [total] and report.total == total
        # a window holding only k = n of a real set
        report = approximate_perfect_sum(
            [1.5, 2.25, 3.75], 7.5, ApproxConfig(relation="eq", k_min=3, k_max=3)
        )
        assert report.counts == [1]

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
            assert approximate_perfect_sum([3, 3, 3], target, config).counts == counts

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
                    rows = zip(report.ks.tolist(), report.probabilities.tolist(),
                               report.counts, report.methods)
                    for k, p, count, method in rows:
                        if method == "exact":
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
                    exact_ks = [k for k, m in zip(report.ks.tolist(), report.methods)
                                if m == "exact"]
                    assert exact_ks == ([] if exact_small_k == 0 else list(range(report.ks[0], 3)))


class TestAutoGranularity:
    def test_integer_sets_use_gcd(self):
        assert auto_granularity([2, 4, 10]) == 2.0
        assert auto_granularity([0, 5, 20]) == 5.0
        assert auto_granularity([1, 2, 3]) == 1.0

    def test_constant_integer_set(self):
        assert auto_granularity([7, 7, 7]) == 1.0

    def test_real_sets_disable(self):
        assert auto_granularity([1.5, 2.0]) == 0.0

    def test_empty_set(self):
        assert auto_granularity([]) == 0.0


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
        assert report.probabilities.tolist() == pytest.approx([0.0, 4 / 6, 4 / 4, 1.0])

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
        kept = [r for r in report.rows() if r["probability"] > 0 or r["count"] != 0]
        return {
            "k": [r["k"] for r in kept],
            "probability": [r["probability"] for r in kept],
            "count": [str(r["count"]) for r in kept],
            "method_used": [r["method_used"] for r in kept],
        }

    def test_per_k_matches_filtered_rows(self):
        report = approximate_perfect_sum(
            list(range(1, 41)), 700.0, ApproxConfig(relation="ge", exact_small_k=2)
        )
        assert 0 < len(report.to_json_dict()["per_k"]["k"]) < report.ks.size
        assert report.to_json_dict()["per_k"] == self._kept_columns(report)

    def test_count_kept_where_probability_underflowed(self):
        report = ApproxReport(
            ks=np.arange(3, 11, dtype=np.int64),
            probabilities=np.array([0.0, 0.25, 0.0, 0.0, 1e-300, 0.0, 0.0, 0.5]),
            counts=[0, 14, 0, 0, 0, 3, 0, 9],
            methods=["normal", "normal", "exact", "normal", "normal", "exact", "normal", "normal"],
            total=26,
        )
        per_k = report.to_json_dict()["per_k"]
        assert per_k == self._kept_columns(report)
        # k = 8 has count 3 at probability 0.0; k = 7 has count 0 at p > 0
        assert per_k["k"] == [4, 7, 8, 10]
        assert per_k["count"] == ["14", "0", "3", "9"]

    def test_rows_iterator_covers_all_k(self):
        report = exact_perfect_sum([1, 2, 3, 4], 5, "eq")
        rows = list(report.rows())
        assert [r["k"] for r in rows] == [1, 2, 3, 4]
        assert sum(r["count"] for r in rows) == 2

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
            assert doc["k"] == report.ks.tolist()
            assert all(len(column) == report.ks.size for column in doc.values())
            for i, k in enumerate(report.ks.tolist()):
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
