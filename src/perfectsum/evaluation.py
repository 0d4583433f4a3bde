"""Discrete Jensen-Shannon divergence between exact and approximate sum laws.

A continuous approximation is first discretized onto a support grid by
integrating each point's granularity window, then compared to the exact
pmf with the discrete JSD (natural log, so the range is [0, ln 2]).
Supports are aligned by union with zero fill: an approximation that puts
mass where the exact law has none is penalized, not ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DiscretePmf", "discretize", "js_divergence"]


@dataclass(eq=False)
class DiscretePmf:
    """A pmf on a finite sorted support of finite points; masses sum to 1 within 1e-9.

    ``captured_mass`` records how much of the source distribution the
    support grid captured before renormalization (1.0 for natively
    discrete pmfs).
    """

    support: np.ndarray
    mass: np.ndarray
    captured_mass: float = 1.0

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.float64).reshape(-1)
        self.mass = np.asarray(self.mass, dtype=np.float64).reshape(-1)
        if self.support.size != self.mass.size:
            raise ValueError("support and mass must have equal length")
        if self.support.size == 0:
            raise ValueError("empty support")
        # a NaN passes every comparison below unseen
        if not (np.isfinite(self.support).all() and np.isfinite(self.mass).all()):
            raise ValueError("support and mass must be finite")
        if np.any(np.diff(self.support) <= 0):
            raise ValueError("support must be strictly increasing (no duplicates)")
        if np.any(self.mass < 0):
            raise ValueError("negative mass")
        total = float(self.mass.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1 within 1e-9, got {total}")


def discretize(dist, support, granularity: float) -> DiscretePmf:
    """Project a distribution onto a support grid by granularity windows.

    ``mass[i]`` is the distribution's mass on
    ``(support[i] - g/2, support[i] + g/2]``, renormalized to sum to 1.
    ``dist`` is anything with a ``cdf`` (a parametric sum distribution
    or a fitted kernel density model). Support points must be spaced at
    least ``granularity`` apart so windows cannot overlap.

    Raises
    ------
    ValueError
        If the windows capture less than 1e-6 of the distribution
        ("support misses the distribution"), the spacing is too fine, or
        the granularity is not a finite number > 0.
    """
    support = np.asarray(support, dtype=np.float64).reshape(-1)
    if not 0 < granularity < math.inf:
        raise ValueError(f"granularity must be > 0 and finite, got {granularity}")
    if support.size == 0:
        raise ValueError("empty support")
    if support.size > 1 and np.min(np.diff(support)) < granularity * (1 - 1e-12):
        raise ValueError("support points spaced closer than the granularity")

    g = granularity
    upper = np.asarray(dist.cdf(support + g / 2), dtype=np.float64)
    lower = np.asarray(dist.cdf(support - g / 2), dtype=np.float64)
    mass = np.clip(upper - lower, 0.0, 1.0)
    captured = float(mass.sum())
    if captured < 1e-6:
        raise ValueError("support misses the distribution")
    return DiscretePmf(support=support, mass=mass / captured, captured_mass=captured)


def js_divergence(p: DiscretePmf, q: DiscretePmf) -> float:
    """Discrete Jensen-Shannon divergence with natural log, in [0, ln 2].

    Supports are aligned by union; mass missing from one side counts as
    0 there. Terms with zero mass contribute 0 (the 0*log 0 convention).
    """
    support = np.union1d(p.support, q.support)
    pm = np.zeros(support.size)
    qm = np.zeros(support.size)
    pm[np.searchsorted(support, p.support)] = p.mass
    qm[np.searchsorted(support, q.support)] = q.mass
    mid = 0.5 * (pm + qm)

    def _half(a: np.ndarray) -> float:
        # the 1e-300 floor also keeps 0.5*a from underflowing to a zero
        # mixture mass for subnormal inputs; such terms contribute ~1e-298
        nz = a > 1e-300
        return float(np.sum(a[nz] * np.log(a[nz] / mid[nz])))

    val = 0.5 * _half(pm) + 0.5 * _half(qm)
    return min(max(val, 0.0), math.log(2.0))
