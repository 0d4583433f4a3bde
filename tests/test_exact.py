"""Exact-oracle tests: enumeration vs DP vs brute force, binomials, pmfs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfectsum import (
    InfeasibleError,
    binomial,
    dp_counts,
    enumerate_counts,
    exact_sum_pmf,
    set_statistics,
    subset_sum_mean,
    subset_sum_variance,
)
from perfectsum import exact as exact_mod
from perfectsum.exact import _merge_close, _sum_table, _sums_of_size

from conftest import brute_counts, brute_subset_sums, pascal_triangle

# (copies of -1, zeros, ones) for n = 70 sets, past the int64 table limit
TERNARY_MIXES = [(0, 30, 40), (25, 20, 25)]


def ternary_set(mix, rng):
    a, b, c = mix
    values = np.array([-1] * a + [0] * b + [1] * c)
    rng.shuffle(values)
    return values.tolist()


def ternary_sum_counts(mix, k):
    """Closed-form number of k-subsets per sum for a set of -1s, 0s and 1s."""
    a, b, c = mix
    by_sum = {}
    for i in range(min(a, k) + 1):
        for j in range(min(c, k - i) + 1):
            z = k - i - j
            if z <= b:
                by_sum[j - i] = by_sum.get(j - i, 0) + (
                    math.comb(a, i) * math.comb(b, z) * math.comb(c, j)
                )
    return by_sum


def poly_counts(values):
    """by_size[k][s] = number of k-subsets with sum s, from the product of (1 + y z^x).

    Each polynomial in z is one Python int in base 2^B (Kronecker
    substitution): the coefficient of z^e sits in bits [e*B, (e+1)*B).
    B = n + 1 bits hold every count <= 2^n, so no coefficient carries.
    Exponents are shifted by the smallest value so they stay nonnegative:
    a k-subset with sum s sits at z^(s - k*low).
    """
    n = len(values)
    low = min(min(values), 0)
    bits = n + 1
    polys = [1] + [0] * n
    for x in values:
        for k in range(n, 0, -1):
            polys[k] += polys[k - 1] << ((x - low) * bits)
    mask = (1 << bits) - 1
    by_size = []
    for k, p in enumerate(polys):
        by_sum, e = {}, 0
        while p:
            if p & mask:
                by_sum[e + k * low] = p & mask
            p >>= bits
            e += 1
        by_size.append(by_sum)
    return by_size


def counts_from_poly(by_size, target, relation):
    holds = {"eq": lambda s: s == target, "ge": lambda s: s >= target, "le": lambda s: s <= target}
    test = holds[relation]
    return {
        k: sum(c for s, c in by_sum.items() if test(s))
        for k, by_sum in enumerate(by_size[1:], start=1)
    }


def anchor_walk(sums, tol):
    """Sequential grouping of sorted sums: each group takes every sum within tol of its first."""
    support, counts = [], []
    i = 0
    while i < len(sums):
        j = i
        while j < len(sums) and sums[j] <= sums[i] + tol:
            j += 1
        support.append(sums[i])
        counts.append(j - i)
        i = j
    return support, counts


class TestCountBySize:
    def test_total_follows_the_counts(self):
        result = exact_mod.CountBySize(counts={1: 2, 2: 5, 3: 0})
        assert result.total == 7
        assert result[2] == 5


class TestBinomial:
    def test_known_value(self):
        assert binomial(100, 5) == 75_287_520

    def test_choose_zero(self):
        for n in (0, 1, 17, 100):
            assert binomial(n, 0) == 1

    def test_k_above_n_is_zero(self):
        assert binomial(5, 6) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(5, -2)

    def test_pascal_rule_exhaustive(self):
        rows = pascal_triangle(60)
        for n in range(61):
            for k in range(n + 1):
                assert binomial(n, k) == rows[n][k]

    def test_multiplicative_oracle(self):
        # independent multiplicative big-int computation
        acc = 1
        for i in range(1, 14):
            acc = acc * (26 - i + 1) // i
        assert binomial(26, 13) == acc


def split_half_counts(values, target, relation, tolerance=0.0):
    """Per-size counts of the subsets whose split-half float sum passes the relation.

    A subset's sum is fl(a + b): a adds its members among the first n // 2
    values in order, b its other members. That is the sum the enumerator
    tests, so near-ties in the last bit (0.1 + 0.2 against 0.3) count the
    same way in both.
    """
    n = len(values)
    half = n // 2
    counts = dict.fromkeys(range(1, n + 1), 0)
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        a = sum(values[i] for i in members if i < half)
        b = sum(values[i] for i in members if i >= half)
        y = b + a
        if relation == "eq":
            ok = abs(y - target) <= tolerance
        elif relation == "ge":
            ok = y >= target
        else:
            ok = y <= target
        counts[len(members)] += ok
    return counts


# values that tie in the last bit: 0.1 + 0.2 > 0.3, and 0.3 - 0.1 < 0.2
NEAR_TIES = [0.1, 0.2, 0.3, 0.6, -0.1, -0.3, 0.7, 1e-17, 1.0, 2.0]


@st.composite
def enumeration_cases(draw):
    values = draw(st.one_of(
        st.lists(st.sampled_from(NEAR_TIES), min_size=1, max_size=14),
        st.lists(st.integers(-6, 12).map(float), min_size=1, max_size=14),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=14),
    ))
    n = len(values)
    # a target that some subset reaches up to rounding, or any value
    picked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    reached = math.fsum(values[i] for i in picked)
    target = draw(st.one_of(st.just(reached), st.sampled_from([0.3, 0.6, 1.0, -0.1]),
                            st.floats(-20, 20, allow_nan=False)))
    relation = draw(st.sampled_from(["eq", "ge", "le"]))
    tolerance = draw(st.sampled_from([0.0, 1e-17, 1e-9, 0.25])) if relation == "eq" else 0.0
    return values, target, relation, tolerance


class TestEnumerateCounts:
    def test_eq_example(self):
        res = enumerate_counts([1, 2, 3, 4], 5, "eq")
        assert res.counts == {1: 0, 2: 2, 3: 0, 4: 0}
        assert res.total == 2

    def test_ge_example(self):
        res = enumerate_counts([1, 2, 3, 4], 5, "ge")
        assert res.counts == {1: 0, 2: 4, 3: 4, 4: 1}
        assert res.total == 9

    def test_low_target_counts_everything(self):
        values = [3.5, 4.25, 9.0, 1.5, 2.0]
        res = enumerate_counts(values, 0.0, "ge")
        assert res.counts == {k: binomial(5, k) for k in range(1, 6)}
        assert res.total == 2**5 - 1

    def test_matches_brute_force(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 11))
            values = rng.integers(-10, 30, n).tolist()
            target = float(rng.integers(-5, 40))
            for relation in ("eq", "ge", "le"):
                res = enumerate_counts(values, target, relation)
                assert res.counts == brute_counts(values, target, relation)

    def test_eq_tolerance(self):
        values = [0.1, 0.2, 0.3]
        res = enumerate_counts(values, 0.3, "eq", tolerance=1e-9)
        # 0.1+0.2 != 0.3 in floats but is within 1e-9; {0.3} matches exactly
        assert res.counts == {1: 1, 2: 1, 3: 0}

    def test_cap(self):
        with pytest.raises(InfeasibleError, match="26"):
            enumerate_counts(list(range(27)), 5, "ge")
        # explicit larger cap admits the instance
        res = enumerate_counts(list(range(27)), 300, "ge", cap=27)
        assert res.counts == dp_counts(list(range(27)), 300, "ge").counts

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            enumerate_counts([1.0, math.nan], 1, "ge")

    @settings(max_examples=150, deadline=None)
    @given(case=enumeration_cases())
    def test_matches_split_half_oracle(self, case):
        values, target, relation, tolerance = case
        got = enumerate_counts(values, target, relation, tolerance).counts
        assert got == split_half_counts(values, target, relation, tolerance)

    @pytest.mark.parametrize("relation", ["eq", "ge", "le"])
    @pytest.mark.parametrize("target", [0.0, 1e308, math.inf, -math.inf])
    def test_overflowing_half_sums(self, relation, target):
        # half sums reach +-inf, and opposite infinities add to NaN, which
        # passes no relation; those sums are tested one by one
        values = [1e308, 1e308, -1e308, 5.0, -1e308, -1e308, 1e308, 2.0]
        with np.errstate(over="ignore", invalid="ignore"):
            got = enumerate_counts(values, target, relation, 1.0 if relation == "eq" else 0.0)
        want = split_half_counts(values, target, relation, 1.0 if relation == "eq" else 0.0)
        assert got.counts == want

    def test_relation_partition(self, rng):
        # ge + le - eq covers each stratum exactly once
        values = rng.integers(0, 20, 10).tolist()
        target = 31.0
        ge = enumerate_counts(values, target, "ge")
        le = enumerate_counts(values, target, "le")
        eq = enumerate_counts(values, target, "eq")
        for k in range(1, 11):
            assert ge.counts[k] + le.counts[k] - eq.counts[k] == binomial(10, k)


class TestDpCounts:
    def test_matches_enumeration_on_examples(self):
        for relation in ("eq", "ge", "le"):
            a = dp_counts([1, 2, 3, 4], 5, relation)
            b = enumerate_counts([1, 2, 3, 4], 5, relation)
            assert a.counts == b.counts

    def test_set_without_positive_values(self):
        # every subset sum is <= 0, so le at a target >= 0 counts every subset
        values = [-1, -2, -3]
        for target in (5.0, 0.0, -0.5, -3.0, -7.0):
            for relation in ("le", "ge"):
                assert dp_counts(values, target, relation).counts == enumerate_counts(
                    values, target, relation
                ).counts, (target, relation)

    def test_duplicate_zeros(self):
        res = dp_counts([0, 0], 0, "eq")
        assert res.counts == {1: 2, 2: 1}

    def test_cross_oracle_random_instances(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 15))
            values = rng.integers(0, 51, n).tolist()
            target = float(rng.integers(0, int(sum(values)) + 2))
            for relation in ("eq", "ge", "le"):
                assert dp_counts(values, target, relation).counts == enumerate_counts(
                    values, target, relation
                ).counts, (values, target, relation)

    def test_signed_values(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            values = rng.integers(-20, 21, n).tolist()
            target = float(rng.integers(-30, 31))
            for relation in ("eq", "ge", "le"):
                assert dp_counts(values, target, relation).counts == brute_counts(
                    values, target, relation
                ), (values, target, relation)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            dp_counts([1.5, 2], 2, "eq")

    def test_fractional_targets(self):
        values = [1, 2, 3, 4]
        assert dp_counts(values, 4.5, "ge").counts == brute_counts(values, 4.5, "ge")
        assert dp_counts(values, 4.5, "le").counts == brute_counts(values, 4.5, "le")
        assert dp_counts(values, 4.5, "eq").total == 0

    def test_integers_past_int64(self):
        # the positive sum 1.2e19 wrapped in int64; 1e19 wrapped in the cast
        assert dp_counts([4e18] * 3, 5, "ge").counts == {1: 3, 2: 3, 3: 1}
        assert dp_counts([1e19, 1, 2], 5, "ge").counts == {1: 1, 2: 2, 3: 1}
        assert dp_counts([2.0**62, 1, 1], 2.0**62, "eq").counts == {1: 1, 2: 0, 3: 0}

    def test_table_budget(self):
        with pytest.raises(InfeasibleError, match="cells"):
            dp_counts([10**7, 10**7, 10**7], 10**7, "eq", max_cells=1000)

    def test_budget_counts_the_mirrored_table(self):
        # ge 810 of 1..40 (total 820) reads le 10 at row n - k: 41 x 11 cells
        values = list(range(1, 41))
        res = dp_counts(values, 810, "ge", max_cells=41 * 11)
        assert res.counts == counts_from_poly(poly_counts(values), 810, "ge")
        assert res.counts[40] == 1 and res.counts[39] == 10
        with pytest.raises(InfeasibleError, match="41 x 11 = 451 cells"):
            dp_counts(values, 810, "ge", max_cells=450)

    def test_big_set_beyond_enumeration_cap(self):
        # 40 ones: DP handles what enumeration cannot
        res = dp_counts([1] * 40, 20, "eq")
        assert res.counts[20] == math.comb(40, 20)
        assert res.total == math.comb(40, 20)
        assert res.counts[19] == 0

    @pytest.mark.parametrize("mix", TERNARY_MIXES)
    def test_object_table_matches_closed_form(self, mix, rng):
        values = ternary_set(mix, rng)
        n = len(values)
        holds = {
            "eq": lambda s, t: s == t,
            "ge": lambda s, t: s >= t,
            "le": lambda s, t: s <= t,
        }
        for target in (-3, 0, 7, 12.5):
            for relation, test in holds.items():
                expected = {
                    k: sum(c for s, c in ternary_sum_counts(mix, k).items() if test(s, target))
                    for k in range(1, n + 1)
                }
                assert dp_counts(values, target, relation).counts == expected, (
                    mix, target, relation,
                )

    @pytest.mark.parametrize(
        "values",
        [
            list(range(7)) * 10,  # n = 70, nonnegative with zeros
            [3, 0, 5, 1, 1, 8, 2] * 11,  # n = 77, nonnegative, repeated values
            list(range(-4, 6)) * 7,  # n = 70, signed, total 35
            [-6, 2, 1, 1, 0, 3, -1, 4] * 9,  # n = 72, signed, total 36
        ],
    )
    def test_object_table_matches_polynomial_product(self, values, rng):
        values = rng.permutation(values).tolist()
        n, total = len(values), sum(values)
        lo = sum(v for v in values if v < 0)
        hi = sum(v for v in values if v > 0)
        by_size = poly_counts(values)
        # both sides of total / 2 (direct and mirrored tables), the range ends,
        # and targets past them; k = n is read from row 0 when mirrored
        points = [lo - 1, lo, 0, total // 4, total // 2, total - total // 3, hi - 2, hi, hi + 1]
        targets = sorted({float(t) for t in points} | {t + 0.5 for t in points})
        for target in targets:
            for relation in ("eq", "ge", "le"):
                res = dp_counts(values, target, relation)
                assert res.counts == counts_from_poly(by_size, target, relation), (
                    target, relation,
                )
                assert res.total == sum(res.counts.values())

    @pytest.mark.parametrize("n", [12, 90])
    def test_ge_is_le_of_the_complement(self, n, rng):
        values = rng.integers(0, 9, n).tolist()
        total = sum(values)
        for target in (0.0, 3.0, total / 3, total / 2, total / 2 + 0.5, 0.9 * total, total - 1.0):
            ge = dp_counts(values, target, "ge")
            le = dp_counts(values, total - target, "le")
            for k in range(1, n):
                assert ge[k] == le[n - k], (target, k)


class TestExactSumPmf:
    def test_pairs_example(self):
        pmf = exact_sum_pmf([1, 2, 3, 4], 2)
        assert pmf.support.tolist() == [3, 4, 5, 6, 7]
        assert pmf.mass.tolist() == pytest.approx([1 / 6, 1 / 6, 2 / 6, 1 / 6, 1 / 6])

    def test_wide_integer_range_is_infeasible(self):
        # the int64 sum of the positive values wrapped: "negative dimensions"
        with pytest.raises(InfeasibleError, match="cells"):
            exact_sum_pmf([4e18] * 3, 2)

    def test_constant_set_point_mass(self):
        pmf = exact_sum_pmf([2.5] * 6, 3)
        assert pmf.support.tolist() == [7.5]
        assert pmf.mass.tolist() == [1.0]

    def test_full_size_point_mass(self):
        pmf = exact_sum_pmf([1, 2, 3, 4], 4)
        assert pmf.support.tolist() == [10]
        assert pmf.mass.tolist() == [1.0]

    @pytest.mark.parametrize("mix", TERNARY_MIXES)
    def test_object_table_masses_match_closed_form(self, mix, rng):
        values = ternary_set(mix, rng)
        by_sum = ternary_sum_counts(mix, 35)
        total = math.comb(70, 35)
        pmf = exact_sum_pmf(values, 35)
        assert pmf.support.tolist() == sorted(by_sum)
        assert pmf.mass.tolist() == [by_sum[s] / total for s in sorted(by_sum)]

    def test_masses_are_counts_over_binomial(self, rng):
        values = rng.uniform(0, 10, 12).tolist()
        for k in (1, 3, 6):
            pmf = exact_sum_pmf(values, k)
            c = binomial(12, k)
            assert math.fsum(pmf.mass) == pytest.approx(1.0, abs=1e-12)
            for m in pmf.mass:
                assert round(m * c) == pytest.approx(m * c, abs=1e-6)

    def test_real_support_matches_brute_force(self, rng):
        values = rng.uniform(-5, 5, 10).tolist()
        pmf = exact_sum_pmf(values, 3)
        brute = sorted(brute_subset_sums(values, 3))
        assert pmf.support.size <= len(brute)
        # every brute sum lands within the merge tolerance of a support point
        idx = np.searchsorted(pmf.support, brute)
        for s, i in zip(brute, idx):
            near = [pmf.support[j] for j in (max(i - 1, 0), min(i, pmf.support.size - 1))]
            assert min(abs(s - v) for v in near) <= 1e-9

    @pytest.mark.parametrize("low, n", [(0, 64), (-9, 40), (0, 9)])
    def test_integer_pmf_equals_the_full_table_row(self, low, n, rng):
        # the pmf builds sizes up to min(k, n - k) and reflects k > n/2; the
        # full table's row k is the reference, bit for bit
        ints = rng.integers(low, 21, n)
        lo, hi = int(ints[ints < 0].sum()), int(ints[ints > 0].sum())
        full = _sum_table(ints, lo, hi, 10**8)
        for k in sorted({1, 3, n // 2, n - 3, n - 1, n}):
            row = full[k]
            idx = np.flatnonzero(row)
            support = (idx + lo).astype(np.float64)
            mass = np.array([int(row[i]) / math.comb(n, k) for i in idx])
            pmf = exact_sum_pmf(ints.tolist(), k)
            assert pmf.support.tobytes() == support.tobytes(), k
            assert pmf.mass.tobytes() == mass.tobytes(), k

    def test_moments_match_formulas(self, rng):
        for values in (rng.integers(0, 20, 12).tolist(), rng.uniform(0, 20, 11).tolist()):
            stats = set_statistics(values)
            for k in range(1, stats.n + 1):
                pmf = exact_sum_pmf(values, k)
                mean = float(np.dot(pmf.support, pmf.mass))
                variance = float(np.dot((pmf.support - mean) ** 2, pmf.mass))
                scale = max(1.0, abs(subset_sum_mean(stats, k)))
                assert mean == pytest.approx(
                    subset_sum_mean(stats, k), rel=1e-10, abs=1e-10 * scale
                )
                assert variance == pytest.approx(
                    subset_sum_variance(stats, k), rel=1e-9, abs=1e-9 * scale
                )


def split_half_merge(values, k):
    """Size-k sums of up to 32 values: each half's subsets by doubling, outer sums per ka."""

    def doubling(part):
        sums, sizes = np.zeros(1), np.zeros(1, dtype=np.int64)
        for x in part:
            sums, sizes = np.concatenate([sums, sums + x]), np.concatenate([sizes, sizes + 1])
        return sums, sizes

    half = len(values) // 2
    sums_a, sizes_a = doubling(values[:half])
    sums_b, sizes_b = doubling(values[half:])
    return np.concatenate([
        (sums_a[sizes_a == ka][:, None] + sums_b[sizes_b == k - ka][None, :]).ravel()
        for ka in range(max(0, k - (len(values) - half)), min(half, k) + 1)
    ])


class TestSumsOfSize:
    @pytest.mark.parametrize(
        "n, k",
        [(33, 1), (33, 33), (40, 4), (33, 3), (34, 30), (36, 4)],
    )
    def test_large_sets_match_itertools(self, n, k, rng):
        arr = rng.chisquare(3, n)
        idx = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
        # past 32 values the halves recurse, so a sum of k nonnegative reals
        # may associate differently from itertools' order; either rounding is
        # within (k - 1) * eps / 2 of the exact sum
        np.testing.assert_allclose(
            np.sort(_sums_of_size(arr, k)),
            np.sort(arr[idx].sum(axis=1)),
            rtol=k * np.finfo(np.float64).eps,
            atol=0,
        )
        # integer sums are exact in any order
        ints = np.floor(arr * 1000)
        got = np.sort(_sums_of_size(ints, k))
        assert got.tolist() == np.sort(ints[idx].sum(axis=1)).tolist()
        # up to 32 values the sums are the split-half merge's, bit for bit and in order
        small = arr[: n - 8]
        j = min(k, small.size)
        assert _sums_of_size(small, j).tobytes() == split_half_merge(small, j).tobytes()


class TestMergeClose:
    def test_chained_runs_match_anchor_walk(self, rng):
        draws = rng.normal(size=20_000)
        # chains of near-ties 0.6e-9 apart are wider than tol = 1e-9, including
        # one below the smallest and one above the largest draw; exact ties too
        chains = [
            start + 0.6e-9 * np.arange(length)
            for start, length in ((0.5, 5), (-1.25, 3), (2.0, 8), (draws.min() - 1, 4),
                                  (draws.max() + 1, 6))
        ]
        sums = np.sort(np.concatenate([draws, *chains, draws[:50], [0.25] * 3]))
        support, counts = _merge_close(sums, 1e-9)
        ref_support, ref_counts = anchor_walk(sums.tolist(), 1e-9)
        assert support.tolist() == ref_support
        assert counts.tolist() == ref_counts
        assert support.dtype == np.float64 and counts.dtype == np.int64
