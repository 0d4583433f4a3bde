"""Closed-form moments of sums of uniformly random fixed-size subsets.

A size-k subset drawn uniformly from a finite set behaves like a sample
taken without replacement, so the elements are negatively correlated and
the variance of the subset sum carries a finite-population correction.
All formulas here are exact identities, not approximations; the test
suite checks them against full enumeration.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SetStatistics",
    "set_statistics",
    "membership_probability",
    "subset_sum_mean",
    "subset_sum_variance",
    "pair_covariance",
    "pair_product_expectation",
]

# integrality tests and gcd scans read a set in chunks of this many values
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SetStatistics:
    """Cardinality, mean and population variance of a finite numeric set.

    ``variance`` uses the population convention (divisor ``n``). The
    subset-sum identities require this convention; the sample variance
    (divisor ``n - 1``) would break their exactness.
    """

    n: int
    mean: float
    variance: float

    def __post_init__(self):
        _check_number("set size", self.n, numbers.Integral, low=1)
        # a set whose sum or squares pass the float range has an infinite or
        # NaN moment, whose normal cdf is NaN for every stratum
        _check_number("set mean", self.mean)
        _check_number("set variance", self.variance, low=0)


def _check_number(name: str, value, kind=numbers.Real, optional=False, *, low=None) -> None:
    """Raise ValueError unless ``value`` is a ``kind`` number (or None if ``optional``).

    A real must be finite as a float, which an int past its range is not. With
    ``low`` it must be >= ``low`` too, and every failure states the whole rule.
    """
    if value is None and optional:
        return
    integral = kind is numbers.Integral
    # a bool is an int to Python, but a JSON true is no number
    typed = not isinstance(value, bool) and isinstance(value, kind)
    top = math.inf if integral else sys.float_info.max
    if typed and (-top if low is None else low) <= value <= top:
        return
    if low is not None:
        rule = f"an integer >= {low}" if integral else f">= {low} and finite"
    elif typed:
        rule = "finite as a float"
    else:
        rule = ("an integer" if integral else "a real number") + (" or None" if optional else "")
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def as_finite_array(values) -> np.ndarray:
    """``values`` as a flat float64 array.

    Raises ValueError if empty or non-finite; the message names the
    1-based position of the first non-finite value.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("empty set")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"non-finite value at position {bad + 1}")
    return arr


def set_statistics(values) -> SetStatistics:
    """Compute n, population mean and population variance of a value set.

    Parameters
    ----------
    values : array_like
        Non-empty 1-D collection of finite reals.

    Raises
    ------
    ValueError
        On an empty set, any non-finite element, or a mean or variance
        that is not finite as a float (a sum or square past its range).
    """
    arr = as_finite_array(values)
    # an overflowing sum or square is left to SetStatistics to reject
    with np.errstate(over="ignore", invalid="ignore"):
        mean, variance = float(arr.mean()), float(arr.var())
    return SetStatistics(n=int(arr.size), mean=mean, variance=variance)


def _integral(arr: np.ndarray) -> bool:
    """Whether the float array is a nonempty set of integers, read in chunks of ``_CHUNK``."""
    for i in range(0, arr.size, _CHUNK):
        c = arr[i : i + _CHUNK]
        if np.count_nonzero(c != np.rint(c)):
            return False
    return arr.size > 0


def _check_k(k, n: int) -> None:
    """Raise unless every size in the int or array ``k`` lies in 1..n."""
    ks = np.asarray(k)
    bad = ks[(ks < 1) | (ks > n)]
    if bad.size:
        raise ValueError(f"subset size k={bad[0]} out of range 1..{n}")


def membership_probability(k: int, n: int) -> float:
    """Probability that a fixed element lands in a uniform random k-subset of an n-set."""
    _check_k(k, n)
    return k / n


def subset_sum_mean(stats: SetStatistics, k):
    """Expected sum of a uniformly random size-k subset: k times the set mean.

    ``k`` is an int or an array of sizes; the result has the same shape.
    """
    _check_k(k, stats.n)
    return k * stats.mean


def subset_sum_variance(stats: SetStatistics, k):
    """Variance of the sum of a uniformly random size-k subset.

    Equals ``k * variance * (1 - (k-1)/(n-1))``: the i.i.d. term shrunk by
    the finite-population correction. Zero when ``k == n`` (the whole set
    is the only subset). For ``k == 1`` the correction factor is exactly 1,
    which also covers the degenerate ``n == 1`` set. ``k`` is an int or an
    array of sizes; the result has the same shape.
    """
    _check_k(k, stats.n)
    return _subset_sum_variance(stats, k)


def _subset_sum_variance(stats: SetStatistics, k):
    """``subset_sum_variance`` without the range check on ``k``."""
    return k * stats.variance * (1.0 - (k - 1) / max(stats.n - 1, 1))


def pair_covariance(stats: SetStatistics) -> float:
    """Covariance between two distinct members of a random subset: -variance/(n-1)."""
    if stats.n < 2:
        raise ValueError("covariance undefined for a single-element set")
    return -stats.variance / (stats.n - 1)


def pair_product_expectation(stats: SetStatistics) -> float:
    """Expected product of two distinct members of a random subset."""
    if stats.n < 2:
        raise ValueError("pair product undefined for a single-element set")
    return stats.mean**2 - stats.variance / (stats.n - 1)
