"""End-to-end perfect-sum counting: exact engines and the O(n) approximation.

The approximation models the sum of every subset size k with the
configured distribution family, converts the queried probability into
a subset count via round-half-even of p * C(n, k), and accumulates an
arbitrary-precision total. Counts are never accumulated in floating
point. A parametric family answers every stratum in one array query;
only the KDE method fits one model per stratum. An invalid input raises
for the whole run; no stratum is silently left out of the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import compress
from typing import Iterator, Optional

import numpy as np

from . import exact as exact_mod
from .approx import (
    BerryEsseenTerms,
    DegenerateSum,
    _relation_mask,
    berry_esseen_terms,
    chi_square_sum,
    irwin_hall_sum,
    normal_sum_approx,
    probability_query,
)
from .exact import binomial
from .kde import (
    DEFAULT_KDE_SAMPLES,
    KdeModel,
    fit_bandwidth,
    sample_subset_sums,
    shared_subset_sums,
)
from .moments import SetStatistics, as_finite_array, set_statistics

__all__ = [
    "ApproxConfig",
    "ApproxReport",
    "approximate_perfect_sum",
    "exact_perfect_sum",
    "auto_granularity",
]

METHODS = ("normal", "irwin_hall", "chi_square", "kde")

# The parameters of one stratum's model: what a divergence method spec
# may set besides its method, and the CLI's model options.
_MODEL_FIELDS = ("low", "high", "df", "samples", "seed")

# Hybrid mode never enumerates a stratum larger than this.
EXACT_STRATUM_BUDGET = 1_000_000


@dataclass(frozen=True)
class ApproxConfig:
    """Configuration of the approximation.

    ``granularity=None`` means auto: the gcd of pairwise differences for
    integer-valued sets (their sum lattice spacing), 0 for real-valued
    sets. ``exact_small_k`` switches strata k <= that bound to exact
    enumeration when C(n, k) stays within the stratum budget; the normal
    family is weakest at small k, where few large strata dominate.
    Irwin-Hall needs ``low`` and ``high``, chi-square ``df``, KDE at least
    2 ``samples``. The field order is the key order of the report's
    ``meta`` echo.
    """

    relation: str = "ge"
    method: str = "normal"
    granularity: Optional[float] = None
    k_min: Optional[int] = None
    k_max: Optional[int] = None
    exact_small_k: int = 0
    samples: int = DEFAULT_KDE_SAMPLES
    seed: int = 0
    low: Optional[float] = None
    high: Optional[float] = None
    df: Optional[float] = None
    diagnostics: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.relation not in exact_mod.RELATIONS:
            raise ValueError(f"relation must be one of {exact_mod.RELATIONS}")
        if self.exact_small_k < 0:
            raise ValueError("exact_small_k must be >= 0")
        if self.method == "irwin_hall" and (self.low is None or self.high is None):
            raise ValueError("irwin_hall method needs low and high bounds")
        if self.method == "chi_square" and self.df is None:
            raise ValueError("chi_square method needs df")
        if self.method == "kde" and self.samples < 2:
            raise ValueError(f"need at least 2 samples for a bandwidth, got m={self.samples}")


def _config_from(doc: dict, names=None, **defaults) -> ApproxConfig:
    """``defaults`` updated by ``doc``, as a config.

    A key of ``doc`` outside ``names`` (default: every field) raises ValueError.
    """
    names = names or [f.name for f in fields(ApproxConfig)]
    _check_keys(doc, names)
    return ApproxConfig(**{**defaults, **doc})


def _check_keys(doc: dict, names) -> None:
    """Raise ValueError naming the first key of the config ``doc`` outside ``names``."""
    unknown = [key for key in doc if key not in names]
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}; options: {', '.join(names)}")


def _config_echo(config: ApproxConfig) -> dict:
    # every field but the report-only diagnostics switch
    return {f.name: getattr(config, f.name) for f in fields(config) if f.name != "diagnostics"}


@dataclass(eq=False)
class ApproxReport:
    """Per-size probabilities and counts plus the arbitrary-precision total.

    Stored columnar (``ks`` aligned with ``probabilities``, ``counts``,
    ``methods``, and each array of ``diagnostics``) so million-row reports
    stay cheap; ``rows()`` yields the per-k records. ``to_json_dict``
    finds the rows it keeps with numpy masks, so its Python work grows
    with the nonzero strata, not with n. ``meta`` echoes the full
    invocation for reproducibility.
    """

    ks: np.ndarray
    probabilities: np.ndarray
    counts: list
    methods: list
    total: int
    meta: dict = field(default_factory=dict)
    diagnostics: Optional[BerryEsseenTerms] = None

    def rows(self) -> Iterator[dict]:
        for i in range(self.ks.size):
            yield {
                "k": int(self.ks[i]),
                "probability": float(self.probabilities[i]),
                "count": self.counts[i],
                "method_used": self.methods[i],
            }

    def counts_by_k(self) -> dict:
        return {int(k): c for k, c in zip(self.ks, self.counts)}

    def to_json_dict(self) -> dict:
        """Stable JSON shape; counts as decimal strings, zero rows elided.

        Any k inside [k_min, k_max] that is absent from ``per_k.k`` has
        probability 0 and count 0.
        """
        keep = self.probabilities > 0.0
        # a count can be nonzero where the probability underflowed to 0.0
        keep[list(compress(range(len(self.counts)), self.counts))] = True
        kept = np.flatnonzero(keep).tolist()
        doc = dict(self.meta)
        doc["total"] = str(self.total)
        doc["per_k"] = {
            "k": self.ks[keep].tolist(),
            "probability": self.probabilities[keep].tolist(),
            "count": [str(self.counts[i]) for i in kept],
            "method_used": [self.methods[i] for i in kept],
        }
        terms = self.diagnostics
        if terms is not None:
            doc["diagnostics"] = {
                "k": self.ks.tolist(),
                "p": terms.p.tolist(),
                "q": terms.q.tolist(),
                "b": terms.b.tolist(),
                "delta1": _json_reals(terms.delta1),
                "delta2": _json_reals(terms.delta2),
                "bound_over_c": _json_reals(terms.bound_over_c),
            }
        return doc


def _json_reals(a: np.ndarray) -> list:
    # strict JSON has no Infinity/NaN literals
    out = a.tolist()
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        out[i] = repr(out[i])
    return out


def auto_granularity(values) -> float:
    """Sum-lattice spacing: gcd of pairwise differences for integer sets, else 0.

    A constant integer set has no spacing information and falls back to 1.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    ints = exact_mod._integer_valued(arr)
    if arr.size == 0 or ints is None:
        return 0.0
    g = int(np.gcd.reduce(np.abs(ints - ints[0])))
    return float(g) if g > 0 else 1.0


def _round_half_even(p: float, c: int) -> int:
    """round-half-even(p * c) with the float p expanded exactly."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return c
    # p = m / d with d a power of two; no gcd normalisation of the product
    m, d = p.as_integer_ratio()
    q, r = divmod(m * c, d)
    twice = 2 * r
    if twice > d or (twice == d and q % 2 == 1):
        return q + 1
    return q


def _build_distribution(values, stats: SetStatistics, k, config: ApproxConfig):
    """Model of the size-k sum; k is one size or, for a parametric family, an array of sizes."""
    if np.ndim(k) == 0 and k == stats.n:
        # only one subset: the set itself
        return DegenerateSum(atom=np.sum(values))
    if config.method == "normal":
        return normal_sum_approx(stats, k)
    if config.method == "irwin_hall":
        return irwin_hall_sum(k, config.low, config.high)
    if config.method == "chi_square":
        return chi_square_sum(k, config.df)
    # kde for one stratum alone (the divergence experiment): a per-k seed
    # derived from (master seed, k), so each stratum's sample is the same
    # whichever other strata are asked for
    sums = sample_subset_sums(values, k, config.samples, per_k_seed(config.seed, k))
    return KdeModel(sums=sums, bandwidth=fit_bandwidth(sums))


def per_k_seed(master_seed: int, k: int) -> int:
    """Deterministic per-stratum sampling seed derived from (master seed, k)."""
    return int(np.random.SeedSequence((master_seed, k)).generate_state(1, np.uint64)[0])


def approximate_perfect_sum(values, target: float, config: ApproxConfig) -> ApproxReport:
    """Approximate, for every subset size, how many subsets satisfy the sum relation.

    Runs one distribution evaluation per k. The per-k count is
    round-half-even of probability * C(n, k), computed exactly from the
    float probability; the total is the exact big-integer sum of the
    per-k counts. A parametric family models all strata with one
    distribution over the array of sizes and answers them with one
    ``probability_query``. k = n, for every method, is the one subset
    holding the whole set: its sum is compared to the target exactly, as
    an atom.

    The KDE method draws its samples once for all strata:
    ``kde.shared_subset_sums`` reads every stratum's m sums off the
    running sums of the same m seeded random permutations, in O(m * n)
    rather than O(m * n^2) for m fresh subsets per stratum. Each stratum's
    sample is exactly uniform, but the strata's samples are correlated,
    which widens the spread of the total's error. A k window does not
    change any stratum's sample. Single-stratum callers (the divergence
    experiment, ``fit_kde``) keep the per-k sampler ``sample_subset_sums``.
    """
    exact_mod._check_query(target, config.relation)
    arr = as_finite_array(values)
    stats = set_statistics(arr)
    n = stats.n
    k_min = 1 if config.k_min is None else config.k_min
    k_max = n if config.k_max is None else config.k_max
    if not 1 <= k_min <= k_max <= n:
        raise ValueError(f"invalid k range [{k_min}, {k_max}] for n={n}")
    if config.exact_small_k > k_max:
        raise ValueError("exact_small_k must be <= k_max")
    g = auto_granularity(arr) if config.granularity is None else float(config.granularity)
    if g < 0:
        raise ValueError(f"granularity must be >= 0, got {g}")

    ks = np.arange(k_min, k_max + 1, dtype=np.int64)
    methods = [config.method] * ks.size

    if config.method == "kde":
        probs = np.empty(ks.size, dtype=np.float64)
        last = min(k_max, n - 1)
        samples = shared_subset_sums(arr, k_min, last, config.samples, config.seed)
        for i, sums in enumerate(samples):
            dist = KdeModel(sums=sums, bandwidth=fit_bandwidth(sums))
            probs[i] = probability_query(dist, target, config.relation, g)
    elif k_min < n:
        # one query for every stratum, k = n replaced below; the sizes
        # become float64 once here rather than in each step of the moment
        # formulas
        dist = _build_distribution(arr, stats, ks.astype(np.float64), config)
        probs = probability_query(dist, target, config.relation, g)
    else:
        probs = np.empty(1)
    if k_max == n:
        probs[-1] = _relation_mask(arr.sum(), target, config.relation, g)

    # hybrid mode: small strata take the exact share of their subsets. With
    # C = C(n, k) <= EXACT_STRATUM_BUDGET = 10^6, fl(count / C) * C is within
    # 10^6 * 2^-53 < 0.5 of the count, so the count loop rounds it back exactly
    for k in range(k_min, config.exact_small_k + 1):
        c = binomial(n, k)
        if c > EXACT_STRATUM_BUDGET:
            continue
        sums = exact_mod._sums_of_size(arr, k)
        probs[k - k_min] = int(_relation_mask(sums, target, config.relation, g).sum()) / c
        methods[k - k_min] = "exact"

    # Python work only for the strata that get a count: the binomial
    # recurrence steps from one such k to the next
    counts: list = [0] * ks.size
    idx = np.flatnonzero(probs > 0.0).tolist()
    at = k_min + idx[0] if idx else 0
    c = math.comb(n, at)
    for i, p in zip(idx, probs[idx].tolist()):
        for j in range(at, k_min + i):
            c = c * (n - j) // (j + 1)
        at = k_min + i
        counts[i] = _round_half_even(p, c)
    total = sum(counts[i] for i in idx)

    diagnostics = berry_esseen_terms(arr, ks) if config.diagnostics else None

    meta = {
        "command": "approx",
        "n": n,
        "target": float(target),
        **_config_echo(replace(config, granularity=g, k_min=k_min, k_max=k_max)),
    }
    if config.method != "kde":
        meta.update(samples=None, seed=None)
    return ApproxReport(
        ks=ks,
        probabilities=probs,
        counts=counts,
        methods=methods,
        total=total,
        meta=meta,
        diagnostics=diagnostics,
    )


def exact_perfect_sum(
    values,
    target: float,
    relation: str,
    tolerance: float = 0.0,
    *,
    engine: str = "auto",
) -> ApproxReport:
    """Ground-truth counts in the same report shape as the approximation.

    ``engine`` picks the oracle: ``enumerate`` (any values, n capped at
    ``exact.DEFAULT_ENUMERATION_CAP``), ``dp`` (integer values, bounded
    sum range, exact sums only, so ``tolerance`` must be 0), or ``auto``
    (dp when it applies, else enumeration). The probability column is
    count / C(n, k).

    Raises
    ------
    InfeasibleError
        When the instance exceeds the chosen engine's budget; the
        approximate mode has no such cap.
    ValueError
        On a negative tolerance, a nonzero one with the dp engine, or a NaN target.
    """
    if engine not in ("auto", "enumerate", "dp"):
        raise ValueError(f"engine must be auto, enumerate or dp, got {engine!r}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if engine == "dp" and tolerance != 0.0:
        raise ValueError(f"the dp engine counts exact sums; tolerance must be 0, got {tolerance}")
    arr = as_finite_array(values)
    n = arr.size

    chosen = engine
    if engine == "auto":
        integral = exact_mod._integer_valued(arr) is not None
        chosen = "dp" if integral and tolerance == 0.0 else "enumerate"

    if chosen == "dp":
        result = exact_mod.dp_counts(arr, target, relation)
    else:
        result = exact_mod.enumerate_counts(arr, target, relation, tolerance)

    ks = np.arange(1, n + 1, dtype=np.int64)
    counts = [result.counts[k] for k in range(1, n + 1)]
    probs = np.array(
        [cnt / math.comb(n, k) for k, cnt in zip(range(1, n + 1), counts)],
        dtype=np.float64,
    )
    meta = {
        "command": "exact",
        "n": n,
        "target": float(target),
        "relation": relation,
        "method": chosen,
        "granularity": None,
        "k_min": 1,
        "k_max": n,
        "tolerance": tolerance,
    }
    return ApproxReport(
        ks=ks,
        probabilities=probs,
        counts=counts,
        methods=[chosen] * n,
        total=result.total,
        meta=meta,
    )
