"""Tophat kernel density estimation of subset-sum distributions.

The estimator draws many independent size-k subsets (each sampled
without replacement inside the subset, with replacement across draws),
keeps their sums, and places a uniform kernel of half-width h on each
sum. The bandwidth rule is the 10% quantile of the consecutive gaps of
the sorted sample. Density and CDF are exact for the tophat mixture, so
the model integrates to 1 with no quadrature.

There are two samplers, both exact and seeded through numpy's PCG64
generator, so a fixed seed reproduces the model bit for bit:

- ``shared_subset_sums`` serves every stratum of one set at once. It
  takes m uniformly random permutations of the set (Fisher-Yates, as in
  Durstenfeld, CACM 7(7), 1964); the first k entries of a uniform
  permutation are a uniform k-subset, so column k - 1 of the rows'
  running sums is a sample of m size-k sums for every k together, in
  O(m * n) for all n strata. The approximation pipeline uses it. The
  strata share their draws, so their samples are correlated across k,
  although each stratum's marginal is exact.
- ``sample_subset_sums`` serves one stratum. Subsets come from
  index-tuple rejection when 2k^2 <= n, and otherwise from Floyd's
  algorithm (Bentley & Floyd, "A sample of brilliance", CACM 30(9),
  1987), run on a block of rows at once: it draws min(k, n - k) exact
  integers per subset, and when k > n/2 the drawn indices are the ones
  left out. For one k this costs O(m * min(k, n - k)), less than a full
  permutation per sample, so callers that need a single stratum (the
  divergence experiment, ``fit_kde`` and the sampled divergence
  reference) keep it, with their own per-k seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .moments import _check_k, as_finite_array

__all__ = [
    "KdeModel",
    "sample_subset_sums",
    "fit_bandwidth",
    "fit_kde",
    "kde_density",
    "kde_cdf",
]

DEFAULT_KDE_SAMPLES = 10_000

# Budget of one sample block, in matrix cells: a row block of either
# sampler, or one group of the shared sampler's strata (m cells each).
_SAMPLE_BLOCK_CELLS = 20_000_000
# Rows per pass of Floyd's loop. Every column of draws reads and writes
# each row's taken mask: at small n a pass this size keeps the mask in
# cache, and it is large enough to amortize numpy's per-call overhead.
_FLOYD_CHUNK_ROWS = 4096


def sample_subset_sums(values, k: int, m: int, seed: int) -> np.ndarray:
    """Sums of m independent uniformly random size-k subsets.

    Each draw picks a k-subset uniformly; distinct draws are independent,
    so the same subset can recur. Two regimes, both exact and both
    deterministic for a fixed seed: when 2k^2 <= n, ordered index tuples
    are drawn and rows with a repeated index are redrawn (every ordered
    tuple of distinct indices is equally likely); otherwise Floyd's
    algorithm picks r = min(k, n - k) distinct indices per row. For
    column c, with j = n - r + c, it draws t uniformly from [0, j] and
    takes t, or j if the row already holds t; every r-subset is equally
    likely. When r < k the r indices are the ones left out. Rows are
    processed in fixed-size blocks, one integer draw per block in row
    order, so the output does not depend on the block size. Each sum
    adds only the chosen elements.
    """
    arr = as_finite_array(values)
    n = arr.size
    _check_k(k, n)
    if m < 2:
        raise ValueError(f"need at least 2 samples for a bandwidth, got m={m}")

    if k == n:
        return np.full(m, arr.sum(), dtype=np.float64)

    rng = np.random.default_rng(seed)
    if k * k * 2 <= n:
        # rejection on ordered tuples: collision chance per row is about
        # k^2/(2n) <= 25%, so redraw rounds die off geometrically
        idx = rng.integers(0, n, (m, k))
        while True:
            sorted_rows = np.sort(idx, axis=1)
            bad = np.flatnonzero((np.diff(sorted_rows, axis=1) == 0).any(axis=1))
            if bad.size == 0:
                break
            idx[bad] = rng.integers(0, n, (bad.size, k))
        return arr[idx].sum(axis=1)

    r = min(k, n - k)
    highs = np.arange(n - r + 1, n + 1)
    out = np.empty(m, dtype=np.float64)
    block = max(1, _SAMPLE_BLOCK_CELLS // n)
    done = 0
    while done < m:
        rows = min(block, m - done)
        draws = rng.integers(0, highs, (rows, r))
        dst = out[done : done + rows]
        for lo in range(0, rows, _FLOYD_CHUNK_ROWS):
            part = slice(lo, lo + _FLOYD_CHUNK_ROWS)
            dst[part] = _floyd_sums(arr, k, draws[part])
        done += rows
    return out


def _floyd_sums(arr: np.ndarray, k: int, draws: np.ndarray) -> np.ndarray:
    """Sum of the k-subset that Floyd's algorithm builds from each row of draws."""
    rows, r = draws.shape
    n = arr.size
    taken = np.zeros(rows * n, dtype=bool)
    base = np.arange(rows) * n
    acc = np.zeros(rows)
    for c in range(r):
        t = draws[:, c]
        pick = np.where(taken[base + t], n - r + c, t)
        taken[base + pick] = True
        if r == k:
            acc += arr[pick]
    if r < k:
        # sum what is kept; total minus the left-out sum would cancel
        kept = ~taken.reshape(rows, n)
        acc = np.broadcast_to(arr, (rows, n))[kept].reshape(rows, k).sum(axis=1)
    return acc


def shared_subset_sums(values, k_lo: int, k_hi: int, m: int, seed: int) -> Iterator[np.ndarray]:
    """Yield m sampled size-k subset sums for each k = k_lo..k_hi, in order.

    Row i of every stratum's sample comes from the same uniformly random
    permutation i of the set: the size-k sum is its running sum at
    position k, which adds only the k kept elements. The sizes lie in
    1..n - 1 (k = n has one subset and needs no sampling); an empty range
    yields nothing. The strata are built in groups whose m x (strata)
    output stays within ``_SAMPLE_BLOCK_CELLS``; each group restarts the
    generator from ``seed`` and redraws the same m permutations, in row
    blocks of at most ``_SAMPLE_BLOCK_CELLS`` cells. Full rows are always
    permuted, so neither the budget nor the range asked for changes any
    sample.
    """
    arr = as_finite_array(values)
    n = arr.size
    if k_lo <= k_hi and not 1 <= k_lo <= k_hi < n:
        raise ValueError(f"sampled subset sizes must lie in 1..{n - 1}, got {k_lo}..{k_hi}")
    if m < 2:
        raise ValueError(f"need at least 2 samples for a bandwidth, got m={m}")
    group = max(1, _SAMPLE_BLOCK_CELLS // m)
    for g_lo in range(k_lo, k_hi + 1, group):
        g_hi = min(g_lo + group - 1, k_hi)
        # copies, so that no caller's view of a stratum keeps the group's
        # block alive while the next group is built
        yield from map(np.copy, _running_sums(arr, g_lo, g_hi, m, seed))


def _running_sums(arr: np.ndarray, k_lo: int, k_hi: int, m: int, seed: int) -> np.ndarray:
    """Running sums at positions k_lo..k_hi of m seeded permutations, one size per row."""
    n = arr.size
    buf = np.empty((min(m, max(1, _SAMPLE_BLOCK_CELLS // n)), n))
    out = np.empty((k_hi - k_lo + 1, m))
    rng = np.random.default_rng(seed)
    for r0 in range(0, m, buf.shape[0]):
        perm = buf[: m - r0]
        perm[:] = arr
        rng.permuted(perm, axis=1, out=perm)
        np.cumsum(perm, axis=1, out=perm)
        out[:, r0 : r0 + perm.shape[0]] = perm[:, k_lo - 1 : k_hi].T
    return out


def fit_bandwidth(sums) -> float:
    """Bandwidth h: the 10% quantile (lower interpolation) of sorted consecutive gaps.

    Zero gaps are dropped first; repeated sums would otherwise force
    h = 0 and an invalid kernel. If every gap is zero the fallback is
    ``max(|mean|, 1) * 1e-6``.
    """
    arr = np.sort(np.asarray(sums, dtype=np.float64).reshape(-1))
    if arr.size < 2:
        raise ValueError(f"need at least 2 sums, got {arr.size}")
    gaps = np.diff(arr)
    gaps = gaps[gaps > 0]
    if gaps.size == 0:
        return max(abs(float(arr.mean())), 1.0) * 1e-6
    return float(np.quantile(gaps, 0.10, method="lower"))


@dataclass(eq=False)
class KdeModel:
    """Sampled subset sums plus a tophat kernel of half-width ``bandwidth``."""

    sums: np.ndarray
    bandwidth: float
    kind: str = "kde"
    _sorted: np.ndarray = field(init=False, repr=False)
    _prefix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.sums = np.asarray(self.sums, dtype=np.float64).reshape(-1)
        if self.sums.size < 1:
            raise ValueError("model needs at least one sampled sum")
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        self._sorted = np.sort(self.sums)
        self._prefix = np.concatenate([[0.0], np.cumsum(self._sorted)])

    @property
    def m(self) -> int:
        return self.sums.size

    def cdf(self, x):
        return kde_cdf(self, x)


def fit_kde(values, k: int, m: int = DEFAULT_KDE_SAMPLES, seed: int = 0) -> KdeModel:
    """Sample m subset sums and fit the tophat model with the quantile bandwidth."""
    sums = sample_subset_sums(values, k, m, seed)
    return KdeModel(sums=sums, bandwidth=fit_bandwidth(sums))


def kde_density(model: KdeModel, t):
    """Density (1/(m*h)) * sum_i K((t - s_i)/h) with the tophat K = 1/2 on |u| <= 1.

    Only samples within h of t contribute, each exactly 1/(2*m*h); the
    sorted-sample search makes single-point evaluation O(log m).
    """
    t = np.asarray(t, dtype=np.float64)
    h = model.bandwidth
    lo = np.searchsorted(model._sorted, t - h, side="left")
    hi = np.searchsorted(model._sorted, t + h, side="right")
    dens = (hi - lo) / (2.0 * model.m * h)
    return float(dens) if t.ndim == 0 else dens


def kde_cdf(model: KdeModel, t):
    """Exact CDF of the tophat mixture: mean of clamp((t - s_i + h)/(2h), 0, 1).

    Samples fully below t - h contribute 1; those inside (t - h, t + h)
    contribute their linear ramp, evaluated with prefix sums.
    """
    t = np.asarray(t, dtype=np.float64)
    h = model.bandwidth
    lo = np.searchsorted(model._sorted, t - h, side="left")
    hi = np.searchsorted(model._sorted, t + h, side="right")
    window_sum = model._prefix[hi] - model._prefix[lo]
    window_cnt = hi - lo
    ramp = (window_cnt * (t + h) - window_sum) / (2.0 * h)
    val = (lo + ramp) / model.m
    val = np.clip(val, 0.0, 1.0)
    return float(val) if t.ndim == 0 else val
