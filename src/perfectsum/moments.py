"""Closed-form moments of sums of uniformly random fixed-size subsets.

A size-k subset drawn uniformly from a finite set behaves like a sample
taken without replacement, so the elements are negatively correlated and
the variance of the subset sum carries a finite-population correction.
All formulas here are exact identities, not approximations; the test
suite checks them against full enumeration.
"""

from __future__ import annotations

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
        if self.n < 1:
            raise ValueError(f"set size must be >= 1, got {self.n}")
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


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
        On an empty set or any non-finite element.
    """
    arr = as_finite_array(values)
    return SetStatistics(n=int(arr.size), mean=float(arr.mean()), variance=float(arr.var()))


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
