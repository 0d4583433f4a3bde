"""Parametric approximations for the distribution of size-k subset sums.

The workhorse is the normal family with the finite-population variance
correction. The Irwin-Hall and chi-square families model the sum of k
i.i.d. draws instead (no finite-population correction): they are meant
for sets that are themselves i.i.d. samples of a known continuous law.
Each family is one frozen dataclass that checks its own parameters and
has a vectorized ``cdf``, a ``mean`` and a ``variance``. A point mass, such
as the k = n subset sum, is a ``NormalSum`` of variance zero.
A Berry-Esseen style diagnostic quantifies (up to an absolute constant)
how far the standardized subset sum can be from the standard normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, ndtr

from .exact import _check_query, _sum_interval
from .moments import (
    SetStatistics,
    _check_k,
    _check_number,
    _subset_sum_variance,
    set_statistics,
    subset_sum_mean,
)

__all__ = [
    "NormalSum",
    "IrwinHallSum",
    "ChiSquareSum",
    "BerryEsseenTerms",
    "normal_sum_approx",
    "berry_esseen_terms",
    "probability_query",
]

# The exact Irwin-Hall CDF is an alternating binomial sum; beyond ~40 terms
# the cancellation exceeds float64 precision, so larger k uses the family's
# own normal limit (matched mean and variance).
IRWIN_HALL_EXACT_MAX_K = 40


@dataclass(frozen=True)
class NormalSum:
    """Normal law; ``mean`` and ``variance`` are floats or equal-shape arrays.

    A zero variance is a point mass at ``mean``: its ``cdf`` steps from 0
    to 1 at ``x >= mean``.
    """

    mean: float
    variance: float

    @property
    def sd(self):
        return np.sqrt(self.variance)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        # a zero sd sends x = mean to NaN and the rest to -inf or +inf; the
        # step is written over the zero-variance entries alone. A z past the
        # float range is the infinity at which ndtr is exactly 0 or 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = ndtr((x - self.mean) / self.sd)
        point = np.asarray(self.variance) <= 0.0
        if point.any():
            x, mean, point = np.broadcast_arrays(x, self.mean, point)
            out = np.asarray(out)
            out[point] = x[point] >= mean[point]
        return out


def _check_sizes(k) -> None:
    if not np.all(np.asarray(k) >= 1):
        raise ValueError(f"k must be >= 1, got {k}")


def _check_variance(family: str, k, per_draw: float) -> None:
    """Raise ValueError unless the variance ``per_draw`` times the largest size is finite.

    Past the float range a family's moments are no longer its law's (the
    chi-square cdf runs on infinite degrees of freedom); an empty array
    of sizes has no stratum to check.
    """
    top = int(np.max(k, initial=0))
    if top:
        _check_number(f"the {family} variance at k = {top}", top * per_draw, low=0)


@dataclass(frozen=True)
class IrwinHallSum:
    """Sum of k i.i.d. uniforms on [low, high] (rescaled Irwin-Hall).

    ``k`` is an int or an array of sizes. Sizes above
    ``IRWIN_HALL_EXACT_MAX_K`` take the family's normal limit in one
    array call; the exact sum overwrites the entries at or below it.
    """

    k: int
    low: float
    high: float

    def __post_init__(self):
        _check_sizes(self.k)
        if not self.low < self.high:
            raise ValueError(f"need low < high, got [{self.low}, {self.high}]")
        # a product past the float range is inf, where a power raises OverflowError
        spread = self.high - self.low
        _check_variance("Irwin-Hall", self.k, spread * spread / 12.0)

    @property
    def mean(self):
        return self.k * (self.low + self.high) / 2.0

    @property
    def variance(self):
        return self.k * (self.high - self.low) ** 2 / 12.0

    def cdf(self, x):
        out = NormalSum(self.mean, self.variance).cdf(x)
        u = (np.asarray(x, dtype=np.float64) - self.k * self.low) / (self.high - self.low)
        u, k = np.broadcast_arrays(u, self.k)
        exact = k <= IRWIN_HALL_EXACT_MAX_K
        if not exact.any():
            return out
        out = np.array(out, dtype=np.float64)
        out[exact] = [_irwin_hall_cdf_std(ui, int(ki)) for ui, ki in zip(u[exact], k[exact])]
        return out if out.ndim else float(out)


def _irwin_hall_cdf_std(u: float, k: int) -> float:
    # F(u) = (1/k!) * sum_j (-1)^j C(k,j) (u-j)^k over j <= floor(u)
    if u <= 0.0:
        return 0.0
    if u >= k:
        return 1.0
    terms = [
        (-1.0) ** j * math.comb(k, j) * (u - j) ** k for j in range(int(math.floor(u)) + 1)
    ]
    val = math.fsum(terms) / math.factorial(k)
    return min(max(val, 0.0), 1.0)


@dataclass(frozen=True)
class ChiSquareSum:
    """Sum of k i.i.d. chi-square(df) variables: chi-square with k*df dof.

    ``k`` is an int or an array of sizes; ``cdf`` is ``gammainc`` elementwise.
    """

    k: int
    df: float

    def __post_init__(self):
        _check_sizes(self.k)
        if not self.df > 0:
            raise ValueError(f"df must be > 0, got {self.df}")
        _check_variance("chi-square", self.k, 2.0 * self.df)

    @property
    def dof(self):
        return self.k * self.df

    @property
    def mean(self):
        return self.dof

    @property
    def variance(self):
        return 2.0 * self.dof

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return gammainc(self.dof / 2.0, np.maximum(x, 0.0) / 2.0)


def normal_sum_approx(stats: SetStatistics, k) -> NormalSum:
    """Normal approximation of the size-k subset sum with corrected variance.

    Mean and variance come from the exact subset-sum moment formulas; a
    zero variance (k = n, or a constant set) is a point mass at the mean.
    ``k`` is an int or an array of sizes.
    """
    mean = subset_sum_mean(stats, k)  # checks k for both moments
    return NormalSum(mean=mean, variance=_subset_sum_variance(stats, k))


# scipy's ndtr is exactly 0.0 below z = -37.7 and exactly 1.0 above z = 8.3
# (pinned by a test); past |z| = _SATURATED_Z a normal cdf is one of the two
_SATURATED_Z = 40.0


def _unsaturated_sizes(stats: SetStatistics, target: float, relation: str, g: float):
    """The sizes [start, stop) outside which the normal model saturates, or None.

    ``probability_query`` reads stratum k's normal model at the finite ends
    x of ``exact._sum_interval`` (a - g/2 and b + g/2; a stratum lattice
    moves them by less than g), at z = (x - k m) / s_k with s_k^2 = v k (n -
    k) / (n - 1), m and v the set's mean and variance. With Z =
    ``_SATURATED_Z``, |z| <= Z is the quadratic (m^2 + c) k^2 - (2 x m + c
    n) k + x^2 <= 0, c = Z^2 v / (n - 1), whose leading coefficient is
    positive: it holds on one interval of k. Outside the hull of those
    intervals over the range of x, and of the zeros k = x / m of x - k m,
    x - k m keeps one sign and |z| > Z on each side, so every stratum 1 <= k
    < n below ``start`` reads the same probability, exactly 0.0 or 1.0, and
    so does every one from ``stop`` on. The roots come from the stable
    formula, rounded outwards and padded. Returns None, for the all-strata
    query, on an infinite end, a variance whose c is zero or subnormal, or
    coefficients past the float range; ``start`` and ``stop`` lie in [0, n].
    """
    n, m, v = stats.n, stats.mean, stats.variance
    a, b = _sum_interval(target, relation)
    ends = [x for x in (a - g / 2, b + g / 2) if abs(x) < math.inf]
    if not ends:
        return None
    lo, hi = min(ends) - g, max(ends) + g
    c = _SATURATED_Z**2 * v / (n - 1)
    if not c >= np.finfo(np.float64).tiny:
        return None
    if m == 0.0 and lo <= 0.0 <= hi:
        return None  # x - k m vanishes at every k
    points = [lo / m, hi / m] if m else []
    quad = m * m + c
    for x in (lo, hi):
        lin, const = 2 * x * m + c * n, x * x
        disc = lin * lin - 4 * quad * const
        if not math.isfinite(disc):
            return None
        # a discriminant rounded below 0 keeps the vertex
        q = (lin + math.copysign(math.sqrt(max(disc, 0.0)), lin)) / 2
        points += [q / quad, const / q if q else 0.0]
    # beyond the roots, by 2 + n * 2^-22 strata, |x - k m| exceeds Z s_k by
    # more than the rounding of the roots (about sqrt(u) n near a double
    # root, u = 2^-53) and of x - k m (about u n |m|) can take back
    pad = 2 + n * 2.0**-22
    start = int(np.clip(np.floor(min(points) - pad), 0, n))
    stop = int(np.clip(np.ceil(max(points) + pad) + 1, start, n))
    return start, stop


@dataclass(frozen=True)
class BerryEsseenTerms:
    """Terms of the finite-population Berry-Esseen bound, sans the absolute constant.

    The observed values are treated as degenerate random variables and
    standardized to zero mean and unit second moment, after which
    ``b = q`` and the remaining terms reduce to the third-moment
    aggregate. ``bound_over_c`` is ``min(delta1, delta2 + 1/sqrt(k*q))``
    with the ``1/0 = +inf`` convention, so ``q = 0`` (k = n) yields the
    delta1 branch, which is itself infinite there. Each term is a float
    for one subset size and an array, one entry per size, for an array.
    """

    p: float
    q: float
    b: float
    delta1: float
    delta2: float
    bound_over_c: float


def berry_esseen_terms(values, k) -> BerryEsseenTerms:
    """Evaluate the Berry-Esseen diagnostic for drawing k of the given values.

    ``k`` is an int or an array of sizes. The powers are numpy's, which
    can differ from Python's ``pow`` in the last bits (by up to 3 ulp in
    ``delta1``, ``delta2`` and ``bound_over_c``); ``p``, ``q`` and ``b``
    are exact float64 evaluations of their formulas.

    Raises
    ------
    ValueError
        If the set has zero variance (no normal limit exists, and the
        standardization that the bound's terms assume is undefined), or
        if ``b <= 0`` for a size below n.
    """
    stats = set_statistics(values)
    if stats.variance <= 0.0:
        raise ValueError("bound undefined for this input: set variance is zero")
    n = stats.n
    _check_k(k, n)
    z = (np.asarray(values, dtype=np.float64).reshape(-1) - stats.mean) / math.sqrt(
        stats.variance
    )
    m2 = float(np.mean(z * z))
    abs3 = float(np.mean(np.abs(z) ** 3))
    # After standardization m2 is 1 up to rounding, so b = 1 - p*m2 = q; the
    # standardized third moment feeds every remaining term (degenerate
    # variables make E|x - p E(x)|^3 collapse to |x|^3 q^3).
    p = np.asarray(k) / n
    q = 1.0 - p
    b = 1.0 - p * m2
    full = q == 0.0
    if np.any(b[~full] <= 0.0):
        raise ValueError("bound undefined for this input: b <= 0 after standardization")
    # k = n divides by zero and takes the infinite delta1 branch
    with np.errstate(divide="ignore", invalid="ignore"):
        b_15 = b**1.5
        delta1 = np.where(full, np.inf, abs3 / (np.sqrt(k) * b_15))
        delta2 = np.where(
            full, np.inf, abs3 / np.sqrt(n * b) + abs3 * q**3 / (math.sqrt(n) * b_15)
        )
        bound = np.minimum(delta1, delta2 + 1.0 / np.sqrt(k * q))
    terms = (p, q, np.where(full, np.maximum(b, 0.0), b), delta1, delta2, bound)
    if np.ndim(k) == 0:
        terms = map(float, terms)
    return BerryEsseenTerms(*terms)


def _holds(sums, a, b, g: float):
    """Which exact sums lie in the event the model reads for the sums in [a, b].

    The event is (a - g/2, b + g/2], and [a, b] itself at g = 0.
    """
    if g > 0:
        return (sums > a - g / 2) & (sums <= b + g / 2)
    return (sums >= a) & (sums <= b)


def probability_query(dist, target: float, relation: str, granularity: float = 0.0, offset=None):
    """P(sum {=, >=, <=} target) under an approximating distribution.

    ``exact._sum_interval`` maps the query to the closed interval [a, b]
    of sums that satisfy it, and the model reads F(b + g/2) - F(a - g/2),
    g being ``granularity``, the value spacing of the underlying discrete
    data (e.g. 1 for integer sets); an infinite end reads 1 - F(a - g/2)
    or F(b + g/2). ``offset`` (a float, or an array with one entry per
    stratum) puts the sums on the lattice ``offset + g * Z``: ``ge``
    starts at the least lattice point >= target, ``le`` ends at the
    greatest one <= target, and ``eq`` means sum = target, so a target
    off the lattice has probability 0. Without it the ends are the target
    itself: ``eq`` is the window (target - g/2, target + g/2] of width g
    centred on the target. ``eq`` on a continuous distribution needs
    g > 0 (an exact continuous sum has probability 0). A zero
    ``variance`` means an atom, a point mass at ``mean``, counted by the
    rule exact strata use: 1 when it lies in (a - g/2, b + g/2], or in
    [a, b] at g = 0.
    Works for any object with a ``cdf``; one without ``variance`` (a
    kernel density model) is continuous. Returns a float for scalar
    parameters and an array, one entry per stratum, for array ones. A NaN
    target, an unknown relation, or a granularity that is negative or not
    finite raises ValueError.
    """
    _check_query(target, relation)
    _check_number("granularity", granularity, low=0)

    atom = np.asarray(getattr(dist, "variance", 1.0)) <= 0.0
    g = granularity
    a, b = _sum_interval(target, relation, g, offset)
    prob = 0.0
    if not atom.all():
        if relation == "eq" and g == 0.0:
            raise ValueError(
                "eq query on a continuous distribution needs granularity > 0; "
                "an exact continuous sum has probability 0"
            )
        # F is 1 and 0 at the infinite ends; no name keeps a cdf array alive
        # past the subtraction, so np.clip reuses its memory
        prob = 1.0 if np.all(b == math.inf) else dist.cdf(b + g / 2)
        if not np.all(a == -math.inf):
            prob = prob - dist.cdf(a - g / 2)
    if atom.any():
        prob = np.where(atom, _holds(dist.mean, a, b, g), prob)
    prob = np.clip(prob, 0.0, 1.0)
    return float(prob) if np.ndim(prob) == 0 else prob
