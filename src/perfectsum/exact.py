"""Ground-truth engines for subset-sum counting.

Two independent oracles are provided: enumeration of all subsets
(meet in the middle over sorted halves) and a dynamic program over
(subset size, partial sum) for integer-valued sets. Both count subsets
of every size k = 1..n whose sum compares to a target, with exact
arbitrary-precision results. Enumeration builds all 2^(n/2) sums of
each half, so it is capped (default n <= 26); the DP extends much
further whenever the sum range is small. One
(k, sum) table builder serves the DP counts and the integer path of
``exact_sum_pmf``. It is banded: each element updates only the sums
each row can reach. ``dp_counts`` also reads a size-k count off the
complementary (n - k)-subsets when that table is narrower, so on a
nonnegative set its table is O(min(target, total - target)) wide.
Hybrid strata and real-valued pmfs enumerate the size-k sums alone, by
meet in the middle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .evaluation import DiscretePmf
from .moments import _check_k, _check_number, _integral, as_finite_array

__all__ = [
    "InfeasibleError",
    "CountBySize",
    "binomial",
    "enumerate_counts",
    "dp_counts",
    "exact_sum_pmf",
]

RELATIONS = ("eq", "ge", "le")

DEFAULT_ENUMERATION_CAP = 26

# enumerate_counts keeps its counts in int64, exact while every count fits
# below 2^63; counts are bounded by C(n, k) <= 2^n, so n <= 62 is safe
_INT64_SAFE_N = 62

_DEFAULT_MAX_TABLE_CELLS = 50_000_000

# exact_sum_pmf on real-valued sets: enumeration budget, and the spread
# within which float sums count as one support point
_PMF_MAX_SUBSETS = 20_000_000
_PMF_MERGE_TOLERANCE = 1e-9


class InfeasibleError(RuntimeError):
    """Raised when an exact computation would exceed its size/memory budget."""


@dataclass(frozen=True)
class CountBySize:
    """Exact subset counts indexed by subset size k = 1..n."""

    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, k: int) -> int:
        return self.counts[k]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) as an arbitrary-precision integer.

    ``k > n`` returns 0 by convention; negative arguments are a domain error.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        return 0
    return math.comb(n, k)


def _check_relation(relation: str) -> None:
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")


def _check_query(target: float, relation: str) -> None:
    _check_relation(relation)
    if math.isnan(target):
        raise ValueError(f"target must be a number, got {target}")


def _sum_interval(target: float, relation: str, g: float = 0.0, offset=None, tolerance=0.0):
    """The closed interval [a, b] of sums that satisfy ``relation`` against ``target``.

    With an ``offset`` and g > 0 the sums lie on the lattice
    ``offset + g * Z``: ``ge`` starts at the least lattice point >= target,
    ``le`` ends at the greatest one <= target, and ``eq`` is [target,
    target] when the target is a lattice point, else empty (a = b + g).
    ``offset`` is a float or an array, one entry per stratum, and so are
    the finite ends. Otherwise ``ge`` is [target, +inf), ``le`` is (-inf,
    target] and ``eq`` is [target - tolerance, target + tolerance].
    """
    a = b = target
    if offset is not None and g > 0:
        a = offset + g * np.ceil((target - offset) / g)
        b = offset + g * np.floor((target - offset) / g)
    if relation == "ge":
        return a, math.inf
    if relation == "le":
        return -math.inf, b
    return a - tolerance, b + tolerance


def _lattice_offset(x: float, k, g: float):
    """The offset in [0, g) of the lattice that holds the size-k sums of a set on x + g * Z.

    It is k * r mod g with r = x mod g, for an int k or an array of sizes;
    r = 0 gives the scalar 0.0 whatever ``k`` is, with no pass over the sizes.
    """
    r = x % g
    return 0.0 if r == 0 else (k * r) % g


def _doubling_sums(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums and sizes of all 2^m subsets of ``values``, built incrementally."""
    m = len(values)
    sums = np.zeros(1 << m, dtype=np.float64)
    sizes = np.zeros(1 << m, dtype=np.int64)
    filled = 1
    for x in values:
        sums[filled : 2 * filled] = sums[:filled] + x
        sizes[filled : 2 * filled] = sizes[:filled] + 1
        filled *= 2
    return sums, sizes


def enumerate_counts(
    values,
    target: float,
    relation: str,
    tolerance: float = 0.0,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CountBySize:
    """Count, for every subset size k, the k-subsets whose sum satisfies the relation.

    Meet in the middle with sorted halves (Horowitz & Sahni, JACM 21(2),
    1974): every subset is a pair of one subset of each half, and for each
    distinct first-half sum s and each size class of the second half, the
    second-half sums b whose float sum fl(s + b) satisfies the relation
    form one run of that class's sorted distinct sums (see
    ``_first_passing``). So the counts are those of testing all 2^n sums,
    in O(2^(n/2) log 2^(n/2)) time. ``tolerance`` applies only to ``eq``
    and means ``|sum - target| <= tolerance``; the default 0 is exact float
    equality, mainly useful for integer-valued data.

    Raises
    ------
    InfeasibleError
        If ``len(values) > cap``.
    ValueError
        On non-finite values, a NaN target, a bad relation, or a tolerance
        that is negative or not finite.
    """
    _check_query(target, relation)
    _check_number("tolerance", tolerance, low=0)
    arr = as_finite_array(values)
    n = arr.size
    if n > cap:
        raise InfeasibleError(
            f"enumeration over {n} values would visit 2^{n} subsets; "
            f"the cap is n = {cap} (raise `cap` explicitly or use dp_counts)"
        )
    if n > _INT64_SAFE_N:
        raise InfeasibleError(f"enumeration not supported beyond n = {_INT64_SAFE_N}")

    # a sum y passes when low <= fl(y - T) <= high, [low, high] being the
    # relation's interval at target 0. The passing b of a class run from the
    # first where `start` holds to the first where `stop` holds (None at an
    # infinite end), and a search for the guess rounded T - s finds each
    # boundary within a few values. fl(y - T) is NaN where y ties an
    # infinite target: the tie satisfies y >= T and y <= T, not |y - T| <= tol
    low, high = _sum_interval(0.0, relation, tolerance=tolerance)
    tie = math.isinf(target) and (math.isinf(low) or math.isinf(high))
    start = stop = None
    if low > -math.inf:
        start = (lambda y: (y - target >= low) | (tie & (y == target)), target + low, "left")
    if high < math.inf:
        # not `y - target > high`: a NaN sum stops the run, so it passes no relation
        stop = (lambda y: ~((y - target <= high) | (tie & (y == target))), target + high, "right")

    half = n // 2
    sums_a, sizes_a = _doubling_sums(arr[:half])
    sums_b, sizes_b = _doubling_sums(arr[half:])
    # the first half as distinct (size, sum) pairs with their multiplicities
    classes = [np.unique(sums_a[sizes_a == i], return_counts=True) for i in range(half + 1)]
    sa = np.concatenate([sums for sums, _ in classes])
    weight = np.concatenate([mult for _, mult in classes])
    offsets = np.cumsum([0] + [sums.size for sums, _ in classes[:-1]])
    # a half sum can overflow to +-inf, and fl(s + b) is NaN for opposite
    # infinities, which no boundary search allows; those s test both
    # predicates on every b, and the search sees 0 in their place
    finite = np.isfinite(sa)
    direct = np.flatnonzero(~finite).tolist()
    searched = np.where(finite, sa, 0.0)

    counts = np.zeros(n + 1, dtype=np.int64)
    for j in range(n - half + 1):
        sb, mult = np.unique(sums_b[sizes_b == j], return_counts=True)
        before = np.concatenate(([0], np.cumsum(mult)))  # b's below each distinct sum
        lo = before[_first_passing(searched, sb, start)] if start else 0
        hi = before[_first_passing(searched, sb, stop)] if stop else before[-1]
        # eq's stop comes first only where a sum ties an infinite target
        passing = np.maximum(hi - lo, 0)
        for i in direct:
            y = sa[i] + sb
            held = start[0](y) if start else np.ones(sb.size, dtype=bool)
            if stop:
                held &= ~stop[0](y)
            passing[i] = mult[held].sum()
        counts[j : j + half + 1] += np.add.reduceat(weight * passing, offsets)

    return CountBySize({k: int(counts[k]) for k in range(1, n + 1)})


def _first_passing(sa: np.ndarray, sb: np.ndarray, test) -> np.ndarray:
    """For each sum s of ``sa``, the first index i of the sorted ``sb`` where pred(fl(s + sb[i])).

    ``test`` is (pred, x, side): ``pred`` must be False then True along
    ``sb`` for every s, which any comparison of fl(fl(s + b) - T) with a
    constant is, rounding being monotone, as long as no fl(s + b) is NaN. The
    search starts where ``x - s`` would go on ``side`` and steps one
    distinct value at a time towards the boundary, testing the predicate
    itself, so rounding in ``x - s`` costs steps, never a miscount.
    """
    pred, x, side = test
    i = np.searchsorted(sb, x - sa, side=side)
    last = sb.size - 1
    while True:
        back = (i > 0) & pred(sa + sb[np.maximum(i - 1, 0)])
        ahead = (i <= last) & ~pred(sa + sb[np.minimum(i, last)])
        if not (back.any() or ahead.any()):
            return i
        i = i - back + ahead


def _sums_of_size(arr: np.ndarray, k: int) -> np.ndarray:
    """The sums of all C(n, k) size-k subsets of ``arr``, as one float64 array.

    Meet in the middle (Horowitz & Sahni, JACM 21(2), 1974): for each
    feasible ka, the outer sum of the first half's ka-subset sums and the
    second half's (k - ka)-subset sums.
    """
    n = arr.size
    half = n // 2
    return np.concatenate([
        np.add.outer(_half_sums(arr[:half], ka), _half_sums(arr[half:], k - ka)).ravel()
        for ka in range(max(0, k - (n - half)), min(half, k) + 1)
    ])


def _half_sums(arr: np.ndarray, k: int) -> np.ndarray:
    """The size-k subset sums of one half: by doubling up to 16 values, else recursively."""
    if k == 0:
        return np.zeros(1)
    if k == 1:
        return arr
    if arr.size <= 16:
        sums, sizes = _doubling_sums(arr)
        return sums[sizes == k]
    return _sums_of_size(arr, k)


def _int_values(arr: np.ndarray) -> tuple[list[int], int, int]:
    """(ints, lo, hi): the integral array as Python ints, which never wrap, and
    the sums of its negative and of its positive values."""
    ints = [int(v) for v in arr.tolist()]
    return ints, sum(v for v in ints if v < 0), sum(v for v in ints if v > 0)


def dp_counts(
    values,
    target: float,
    relation: str,
    *,
    max_cells: int = _DEFAULT_MAX_TABLE_CELLS,
) -> CountBySize:
    """Exact subset counts per size k via dynamic programming on (k, partial sum).

    Requires an integer-valued set, of any magnitude: values, sums and
    counts are Python ints. The relation is the interval [a, b] of
    integer sums that ``_sum_interval`` gives on Z, and every count is
    read off one table of counts per (k, sum): a row's sums in [a, b],
    or, when b is the largest sum, the row's C(n, k) less its sums below
    a. The table keeps sums from the smallest possible one up to the
    largest it reads (at least 0) and, within that, only each row's band
    of reachable sums (see ``_sum_table``). A k-subset with sum s leaves
    an (n - k)-subset with sum total - s, so the same counts can be read
    at row n - k of the table for the mirrored interval
    [total - b, total - a]; the narrower of the two tables is built. On a
    nonnegative set its width is O(min(target, total - target)).

    Raises
    ------
    InfeasibleError
        If the table would exceed ``max_cells`` cells (the message
        reports the computed size).
    """
    _check_query(target, relation)
    arr = as_finite_array(values)
    if not _integral(arr):
        raise ValueError("dp_counts requires an integer-valued set; pre-scale rationals first")
    ints, lo, hi = _int_values(arr)
    n = len(ints)

    # the sums in [a, b] on Z; every sum lies in [lo, hi], so clamping the
    # ends there keeps infinities out of the integers and changes no count
    a, b = (float(end) for end in _sum_interval(target, relation, 1.0, 0.0))
    a, b = int(min(max(a, lo), hi + 1)), int(max(min(b, hi), lo - 1))
    if a > b:
        return CountBySize(dict.fromkeys(range(1, n + 1), 0))

    def top(a, b):
        # the largest sum the table holds to count [a, b]: [a, hi] is read as
        # every subset but those with sums below a
        return min(hi, max(a - 1 if b == hi else b, 0))

    # a k-subset with sum s leaves an (n - k)-subset with sum lo + hi - s
    flip = top(lo + hi - b, lo + hi - a) < top(a, b)
    if flip:
        a, b = lo + hi - b, lo + hi - a
    complement = b == hi
    if complement:
        a, b = lo, a - 1
    if a > b:
        rows = [0] * (n + 1)
    else:
        dp = _sum_table(ints, lo, top(a, b), max_cells)
        rows = dp[:, a - lo : b - lo + 1].sum(axis=1).tolist()
    if complement:
        rows = [math.comb(n, j) - r for j, r in enumerate(rows)]
    if flip:
        rows.reverse()
    return CountBySize({k: rows[k] for k in range(1, n + 1)})


def _check_cells(rows: int, width: int, max_cells: int) -> None:
    cells = rows * width
    if cells > max_cells:
        raise InfeasibleError(
            f"DP table of {rows} x {width} = {cells} cells exceeds the "
            f"budget of {max_cells}; shrink the sum range or use sampling"
        )


def _sum_table(
    ints: list[int], lo: int, top: int, max_cells: int, rows: int | None = None
) -> np.ndarray:
    """Table with ``dp[k, s - lo]`` = number of k-subsets of ``ints`` with sum s.

    Sums run from ``lo`` (the sum of the negative elements) to
    ``top >= 0``; larger sums are dropped. Elements are added in
    ascending order, so a subset's running sum never exceeds
    max(0, its final sum) and dropping is exact. After the i smallest
    elements, row j can be nonzero only between the sum of the j
    smallest and the sum of the j largest of them; each element updates
    only that band of each row, clipped to the table. Only the sizes
    k <= ``rows`` (default n) are built; a row depends on no larger size.
    """
    n = len(ints)
    rows = n if rows is None else rows
    width = top - lo + 1
    _check_cells(rows + 1, width, max_cells)
    # Python int cells: a count can exceed any fixed width
    dp = np.zeros((rows + 1, width), dtype=object)
    dp[0, -lo] = 1
    ascending = sorted(ints)
    prefix = [0, *itertools.accumulate(ascending)]
    for i, x in enumerate(ascending):
        # row k gains row k - 1 shifted by x; k descends so each element is
        # counted once per subset, and rows above i + 1 are still empty
        for k in range(min(i + 1, rows), 0, -1):
            first = prefix[k - 1] - lo
            last = min(prefix[i] - prefix[i - k + 1], top, top - x) - lo
            if first <= last:
                dp[k, first + x : last + x + 1] += dp[k - 1, first : last + 1]
    return dp


def exact_sum_pmf(values, k: int) -> DiscretePmf:
    """Exact pmf of the sum of a uniform random size-k subset.

    Integer-valued sets go through the DP table, which is exact and fast
    regardless of C(n, k). It builds only the sizes up to min(k, n - k):
    when k > n/2 a k-subset with sum s leaves an (n - k)-subset with sum
    total - s, so the pmf is row n - k read backwards. Real-valued sets
    enumerate all C(n, k) subsets (at most ``_PMF_MAX_SUBSETS``) and merge
    sums that agree within ``_PMF_MERGE_TOLERANCE`` of the group's first
    representative, so float associativity noise cannot split a support
    point.
    """
    arr = as_finite_array(values)
    n = arr.size
    _check_k(k, n)
    total_subsets = math.comb(n, k)

    if _integral(arr):
        ints, lo, hi = _int_values(arr)
        r = min(k, n - k)
        row = _sum_table(ints, lo, hi, _DEFAULT_MAX_TABLE_CELLS, rows=r)[r]
        if r < k:
            # sums run lo..hi along the row; reversed, index i holds the
            # (n - k)-subsets with sum hi - i, whose complements sum to lo + i
            row = row[::-1]
        idx = np.flatnonzero(row)
        support = (idx + lo).astype(np.float64)
        mass = np.array([int(row[i]) / total_subsets for i in idx], dtype=np.float64)
        return DiscretePmf(support=support, mass=mass)

    if total_subsets > _PMF_MAX_SUBSETS:
        raise InfeasibleError(
            f"C({n},{k}) = {total_subsets} subsets exceeds the budget of {_PMF_MAX_SUBSETS}"
        )

    sums = np.sort(_sums_of_size(arr, k))
    assert sums.size == total_subsets

    support, counts = _merge_close(sums, _PMF_MERGE_TOLERANCE)
    mass = counts.astype(np.float64) / total_subsets
    return DiscretePmf(support=support, mass=mass)


def _merge_close(sums: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group sorted sums onto the first representative within ``tol``.

    Adjacent-gap runs are found vectorized. A run can only be wider than
    ``tol`` when near-ties chain, which real data rarely produces; only
    those runs get the sequential anchor walk, whose extra group starts
    are merged into the vectorized ones.
    """
    boundaries = np.flatnonzero(np.diff(sums) > tol) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [sums.size]])
    wide = np.flatnonzero(sums[ends - 1] - sums[starts] > tol)
    splits = []
    for lo, hi in zip(starts[wide].tolist(), ends[wide].tolist()):
        i = lo
        while True:
            i += int(np.searchsorted(sums[i:hi], sums[i] + tol, side="right"))
            if i == hi:
                break
            splits.append(i)
    if splits:
        starts = np.insert(starts, np.searchsorted(starts, splits), splits)
        ends = np.append(starts[1:], sums.size)
    return sums[starts], ends - starts
