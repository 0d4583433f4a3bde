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

import decimal
import functools
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import exact as exact_mod
from .approx import (
    BerryEsseenTerms,
    ChiSquareSum,
    IrwinHallSum,
    NormalSum,
    _holds,
    _unsaturated_sizes,
    berry_esseen_terms,
    normal_sum_approx,
    probability_query,
)
from .exact import _lattice_offset, _sum_interval, binomial
from .kde import (
    DEFAULT_KDE_SAMPLES,
    KdeModel,
    _check_samples,
    fit_bandwidth,
    sample_subset_sums,
    shared_subset_sums,
)
from .moments import _CHUNK, SetStatistics, _check_number, _integral, as_finite_array
from .moments import set_statistics

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

# Decimal arithmetic on integers that cannot round: a step that is not
# exact raises instead
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation],
)


@dataclass(frozen=True)
class ApproxConfig:
    """Configuration of the approximation.

    ``granularity=None`` means auto: the gcd g of pairwise differences
    for integer-valued sets, 0 for real-valued sets. Under it the size-k
    sums of an integer set lie on the lattice k * x0 + g * Z (x0 any of
    its values), each stratum's relation is read there, and ``eq`` means
    sum = target. An explicit granularity g is a window of width g
    centred on the target: ``eq`` counts (target - g/2, target + g/2],
    ``ge`` and ``le`` count from target - g/2 and up to target + g/2, in
    the exact strata as in the model. ``exact_small_k`` switches strata k <= that bound to exact
    enumeration when C(n, k) stays within the stratum budget; the normal
    family is weakest at small k, where few large strata dominate.
    Irwin-Hall needs ``low`` and ``high``, chi-square ``df``, KDE at least
    2 ``samples``. A number that is set must be finite, a granularity also
    >= 0, a count field an integer, ``diagnostics`` a bool, and a bool is
    no number. The field order is the key order of the report's ``meta`` echo.
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
        for name in ("low", "high", "df"):
            _check_number(name, getattr(self, name), optional=True)
        for name in ("k_min", "k_max", "samples", "seed"):
            _check_number(name, getattr(self, name), numbers.Integral, name.startswith("k_"))
        _check_number("exact_small_k", self.exact_small_k, numbers.Integral, low=0)
        _check_number("granularity", self.granularity, optional=True, low=0)
        if not isinstance(self.diagnostics, bool):
            raise ValueError(f"diagnostics must be a bool, got {self.diagnostics!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        exact_mod._check_relation(self.relation)
        if self.method == "irwin_hall" and (self.low is None or self.high is None):
            raise ValueError("irwin_hall method needs low and high bounds")
        if self.method == "chi_square" and self.df is None:
            raise ValueError("chi_square method needs df")
        if self.method == "kde":
            _check_samples(self.samples)


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

    The report holds the rows it emits: ``ks`` ascends, aligned with
    ``probabilities``, ``counts`` and ``methods``, one row per stratum of
    positive probability or nonzero count. Every other k of
    [``meta["k_min"]``, ``meta["k_max"]``] has probability 0 and count 0;
    ``counts_by_k`` fills those in. ``diagnostics``, when asked for, covers
    every k of that window. ``meta`` echoes the full invocation for
    reproducibility.
    """

    ks: np.ndarray
    probabilities: np.ndarray
    counts: list
    methods: list
    total: int
    meta: dict = field(default_factory=dict)
    diagnostics: Optional[BerryEsseenTerms] = None

    def counts_by_k(self) -> dict:
        by_k = dict.fromkeys(range(self.meta["k_min"], self.meta["k_max"] + 1), 0)
        by_k.update(zip(self.ks.tolist(), self.counts))
        return by_k

    def to_json_dict(self) -> dict:
        """Stable JSON shape: the rows as ``per_k`` columns, counts as decimal strings.

        The total's digits come from ``str(int)``, first, so a total past the
        interpreter's integer-to-string digit limit raises ValueError before
        any count is converted. An exact report's counts come from
        ``str(int)`` too. An approx report's counts are computed again from
        its own ``ks`` and ``probabilities``, by the same ``_counts`` ladder
        that made ``counts``, in exact ``decimal`` arithmetic: libmpdec
        steps and prints a count in time linear in its digits, where
        CPython 3.11's ``str(int)`` is quadratic.
        """
        doc = dict(self.meta)
        doc["total"] = str(self.total)
        ks, probs = self.ks.tolist(), self.probabilities.tolist()
        if self.meta["command"] == "approx":
            with decimal.localcontext(_EXACT):
                counts = [str(c) for c in _counts(self.meta["n"], ks, probs, decimal.Decimal)]
        else:
            counts = [str(c) for c in self.counts]
        doc["per_k"] = {
            "k": ks,
            "probability": probs,
            "count": counts,
            "method_used": list(self.methods),
        }
        terms = self.diagnostics
        if terms is not None:
            doc["diagnostics"] = {
                "k": list(range(self.meta["k_min"], self.meta["k_max"] + 1)),
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
    The differences are taken in chunks of ``moments._CHUNK`` values and
    stop being reduced once their gcd is 1: the whole set's gcd divides
    each chunk's, so it is 1 too. A chunk is reduced in int64 while its
    values and the first one lie below 2^62 in magnitude, so every
    difference fits; a chunk past that bound is reduced in Python ints.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if not _integral(arr):
        return 0.0
    first = int(arr[0])
    g = 0
    for i in range(0, arr.size, _CHUNK):
        c = arr[i : i + _CHUNK]
        if max(-c.min(), c.max(), abs(first)) < 2.0**62:
            g = math.gcd(g, int(np.gcd.reduce(np.abs(c.astype(np.int64) - first))))
        else:
            g = math.gcd(g, *(int(v) - first for v in c.tolist()))
        if g == 1:
            break
    return float(g) if g > 0 else 1.0


def _round_half_even(p: float, c):
    """round-half-even(p * c) with the float p expanded exactly.

    ``c`` is an int, or an integral ``decimal.Decimal`` under ``_EXACT``;
    the result is of the same type (0 for p <= 0), with the same digits.
    """
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
        return NormalSum(np.sum(values), 0.0)
    if config.method == "normal":
        return normal_sum_approx(stats, k)
    if config.method == "irwin_hall":
        return IrwinHallSum(k, config.low, config.high)
    if config.method == "chi_square":
        return ChiSquareSum(k, config.df)
    # kde for one stratum alone (the divergence experiment): a per-k seed
    # derived from (master seed, k), so each stratum's sample is the same
    # whichever other strata are asked for
    sums = sample_subset_sums(values, k, config.samples, per_k_seed(config.seed, k))
    return KdeModel(sums=sums, bandwidth=fit_bandwidth(sums))


@functools.lru_cache(maxsize=1)
def _ladder_start(n: int, k: int) -> int:
    # an approx op runs the ladder twice from the same C(n, k): for the
    # report's int counts and again for to_json_dict's decimal ones
    return math.comb(n, k)


def _counts(n: int, ks: list, probs: list, kind):
    """Yield round-half-even(p * C(n, k)) for each ascending k and its p, as ``kind``.

    The binomial recurrence steps C from one k to the next. ``kind`` is
    ``int`` or ``decimal.Decimal``; a Decimal ladder must run under
    ``_EXACT``, where it yields the same integers.
    """
    at = ks[0] if ks else 0
    c = kind(_ladder_start(n, at))
    for k, p in zip(ks, probs):
        for j in range(at, k):
            c = c * (n - j) // (j + 1)
        at = k
        yield _round_half_even(p, c)


def per_k_seed(master_seed: int, k: int) -> int:
    """Deterministic per-stratum sampling seed derived from (master seed, k)."""
    return int(np.random.SeedSequence((master_seed, k)).generate_state(1, np.uint64)[0])


def approximate_perfect_sum(values, target: float, config: ApproxConfig) -> ApproxReport:
    """Approximate, for every subset size, how many subsets satisfy the sum relation.

    Runs at most one distribution evaluation per k. The per-k count is
    round-half-even of probability * C(n, k), computed exactly from the
    float probability; the total is the exact big-integer sum of the
    per-k counts. A parametric family models its strata with one
    distribution over an array of sizes and answers them with one
    ``probability_query``. The normal family's array holds only the sizes
    that ``approx._unsaturated_sizes`` cannot rule out, plus one size for
    each run of strata around them whose cdf is exactly 0.0 or 1.0; the
    run takes that size's probability, the one a query over every size
    gives each of its strata. k = n, for every method, is the one subset
    holding the whole set: its sum is an atom, counted exactly in the
    event the model reads (see ``probability_query``). The report's rows
    are the strata of positive probability, the only ones whose count can
    be nonzero; ``counts_by_k`` covers every k of the window.

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
    # set_statistics validates the values
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    stats = set_statistics(arr)
    n = stats.n
    k_min = 1 if config.k_min is None else config.k_min
    k_max = n if config.k_max is None else config.k_max
    if not 1 <= k_min <= k_max <= n:
        raise ValueError(f"invalid k range [{k_min}, {k_max}] for n={n}")
    if config.exact_small_k > k_max:
        raise ValueError("exact_small_k must be <= k_max")
    g = auto_granularity(arr) if config.granularity is None else float(config.granularity)
    lattice = config.granularity is None and g > 0

    def offset(k):
        # under the auto granularity the size-k sums of an integer set lie on
        # offset + g * Z; an explicit granularity keeps the window on the target
        return _lattice_offset(float(arr[0]), k, g) if lattice else None

    def holds(sums, k):
        # which exact size-k sums lie in the event the model reads
        return _holds(sums, *_sum_interval(target, config.relation, g, offset(k)), g)

    # the models cover k_min..last, reading the strata [start, stop) one by
    # one. The normal family narrows that window to the sizes it may not
    # saturate; each run of strata around it, whose cdf is exactly 0.0 or
    # 1.0, is read at one size whose value the run repeats
    last = min(k_max, n - 1)
    start, stop = k_min, last + 1
    if config.method == "normal" and last >= k_min:
        unsaturated = _unsaturated_sizes(stats, target, config.relation, g)
        if unsaturated is not None:
            start, stop = (min(max(k, k_min), last + 1) for k in unsaturated)
    below, above = start - k_min, last + 1 - stop
    if config.method == "kde":
        head = np.empty(stop - start, dtype=np.float64)
        samples = shared_subset_sums(arr, k_min, last, config.samples, config.seed)
        for i, sums in enumerate(samples):
            dist = KdeModel(sums=sums, bandwidth=fit_bandwidth(sums))
            head[i] = probability_query(dist, target, config.relation, g, offset(k_min + i))
    else:
        # one query for the modelled strata; the sizes are float64 once here
        # rather than in each step of the moment formulas
        sizes = np.arange(start - (below > 0), stop + (above > 0), dtype=np.float64)
        if below:
            sizes[0] = k_min
        if above:
            sizes[-1] = last
        head = probability_query(
            _build_distribution(arr, stats, sizes, config),
            target,
            config.relation,
            g,
            offset(sizes),
        )
        # a query whose ends are both infinite answers every size with one float
        head = np.broadcast_to(head, sizes.shape)
    window = head[int(below > 0) : head.size - int(above > 0)]

    # the report keeps the strata of positive probability, the only ones whose
    # count can be nonzero, and only they cost Python work: the run below the
    # window, the window's positive strata, the run above it and k = n, each
    # a range of sizes with their probabilities
    rows = [(np.arange(k_min, start), head[0])] if below and head[0] > 0.0 else []
    idx = np.flatnonzero(window > 0.0)
    rows.append((start + idx, window[idx]))
    if above and head[-1] > 0.0:
        rows.append((np.arange(stop, last + 1), head[-1]))
    if k_max == n and holds(arr.sum(), n):
        rows.append(([n], 1.0))
    ks = np.concatenate([k for k, _ in rows]).astype(np.int64, copy=False)
    probs = np.concatenate([np.broadcast_to(p, len(k)) for k, p in rows])

    # hybrid mode: small strata take the exact share of their subsets. With
    # C = C(n, k) <= EXACT_STRATUM_BUDGET = 10^6, fl(count / C) * C is within
    # 10^6 * 2^-53 < 0.5 of the count, so the count loop rounds it back exactly
    exact = {}
    for k in range(k_min, config.exact_small_k + 1):
        c = binomial(n, k)
        if c <= EXACT_STRATUM_BUDGET:
            exact[k] = int(np.count_nonzero(holds(exact_mod._sums_of_size(arr, k), k))) / c
    if exact:
        # an exact share replaces its stratum's model row; one of 0 has no row
        model = ~np.isin(ks, list(exact))
        shares = [(k, p) for k, p in exact.items() if p > 0.0]
        ks = np.concatenate([ks[model], [k for k, _ in shares]]).astype(np.int64)
        probs = np.concatenate([probs[model], [p for _, p in shares]])
        order = np.argsort(ks)
        ks, probs = ks[order], probs[order]
    kept = ks.tolist()
    counts = list(_counts(n, kept, probs.tolist(), int))

    diagnostics = None
    if config.diagnostics:
        diagnostics = berry_esseen_terms(arr, np.arange(k_min, k_max + 1, dtype=np.int64))

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
        methods=["exact" if k in exact else config.method for k in kept],
        total=sum(counts),
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
    (dp when it applies, else enumeration). The rows are the k of nonzero
    count, and the probability column is count / C(n, k).

    Raises
    ------
    InfeasibleError
        When the instance exceeds the chosen engine's budget; the
        approximate mode has no such cap.
    ValueError
        On a tolerance that is negative or not finite, a nonzero one with
        the dp engine, or a NaN target.
    """
    if engine not in ("auto", "enumerate", "dp"):
        raise ValueError(f"engine must be auto, enumerate or dp, got {engine!r}")
    _check_number("tolerance", tolerance, low=0)
    if engine == "dp" and tolerance != 0.0:
        raise ValueError(f"the dp engine counts exact sums; tolerance must be 0, got {tolerance}")
    arr = as_finite_array(values)
    n = arr.size

    chosen = engine
    if engine == "auto":
        chosen = "dp" if _integral(arr) and tolerance == 0.0 else "enumerate"

    if chosen == "dp":
        result = exact_mod.dp_counts(arr, target, relation)
    else:
        result = exact_mod.enumerate_counts(arr, target, relation, tolerance)

    # a row's probability may underflow to 0.0 below its count
    kept = [k for k in range(1, n + 1) if result.counts[k]]
    counts = [result.counts[k] for k in kept]
    probs = [cnt / math.comb(n, k) for k, cnt in zip(kept, counts)]
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
        ks=np.array(kept, dtype=np.int64),
        probabilities=np.array(probs, dtype=np.float64),
        counts=counts,
        methods=[chosen] * len(kept),
        total=result.total,
        meta=meta,
    )
