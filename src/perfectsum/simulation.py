"""Experiment harness: set generation, error-vs-n curves, per-k divergence tables.

Every experiment is fully determined by its config and seeds; results
carry the config echo and per-row seeds so any aggregate can be traced
back to its points. Output is plot-ready rows (CSV or JSON), not plots.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .evaluation import DiscretePmf, discretize, js_divergence
from .exact import binomial, exact_sum_pmf
from .inputs import read_input
from .kde import sample_subset_sums
from .moments import _check_k, _check_number, _integral, set_statistics
from .pipeline import (
    _MODEL_FIELDS,
    ApproxConfig,
    _build_distribution,
    _config_echo,
    _config_from,
    approximate_perfect_sum,
    auto_granularity,
    exact_perfect_sum,
)

__all__ = [
    "SetSpec",
    "ExperimentResult",
    "generate_set",
    "error_experiment",
    "divergence_experiment",
]

FAMILIES = ("discrete_uniform", "uniform", "chi_square", "custom_file")

# Reference pmfs for divergence tables: exact enumeration up to this many
# subsets (integer-valued sets use the DP and ignore it), else a seeded
# empirical reference of `ref_samples` subset sums.
MAX_EXACT_REFERENCE_SUBSETS = 2_000_000
DEFAULT_REFERENCE_SAMPLES = 200_000

_GRID_LIMIT = 200_000


@dataclass(frozen=True)
class SetSpec:
    """Recipe for one generated value set; checks its fields, as they may come from JSON."""

    family: str
    n: int
    seed: int = 0
    low: float = 0.0
    high: float = 1.0
    df: float = 1.0
    path: Optional[str] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; options: {FAMILIES}")
        _check_number("n", self.n, numbers.Integral, low=1)
        for name, kind in (("seed", numbers.Integral), ("low", numbers.Real),
                           ("high", numbers.Real), ("df", numbers.Real)):
            _check_number(name, getattr(self, name), kind)
        if self.family == "discrete_uniform":
            # the draw is on the integers of [low, high]; a fractional bound
            # would be truncated past the range it names
            for name in ("low", "high"):
                value = getattr(self, name)
                if value != int(value):
                    raise ValueError(
                        f"a discrete_uniform set needs an integer {name}, got {value!r}"
                    )
        need, met = {"uniform": ("low < high", self.low < self.high),
                     "discrete_uniform": ("low <= high", self.low <= self.high),
                     "chi_square": ("df > 0", self.df > 0),
                     "custom_file": ("a path", self.path is not None)}[self.family]
        if not met:
            raise ValueError(f"a {self.family} set needs {need}; got {self.describe()}")

    def describe(self) -> dict:
        doc = {"family": self.family, "n": self.n, "seed": self.seed}
        if self.family in ("discrete_uniform", "uniform"):
            doc.update(low=self.low, high=self.high)
        elif self.family == "chi_square":
            doc.update(df=self.df)
        else:
            doc.update(path=self.path)
        return doc


def generate_set(spec: SetSpec) -> np.ndarray:
    """n i.i.d. draws from the family, deterministic per seed.

    ``discrete_uniform`` yields integers on [low, high] inclusive (as
    float64, like every other family). ``custom_file`` reads the file at
    ``path`` with ``inputs.read_input`` (text, CSV or JSON); a file that
    does not hold exactly ``n`` values raises ValueError.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.family == "discrete_uniform":
        return rng.integers(int(spec.low), int(spec.high) + 1, spec.n).astype(np.float64)
    if spec.family == "uniform":
        return rng.uniform(spec.low, spec.high, spec.n)
    if spec.family == "chi_square":
        return rng.chisquare(spec.df, spec.n)
    values = read_input(spec.path)
    if values.size != spec.n:
        raise ValueError(f"{spec.path} holds {values.size} values; its set spec says n = {spec.n}")
    return values


_ROW_KEYS = ("n", "k", "method", "metric", "value", "seed")


@dataclass(eq=False)
class ExperimentResult:
    """Plot-ready observation rows plus the config echo."""

    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rows = sorted(self.rows, key=_row_sort_key)

    def values(self, **match) -> list:
        return [r["value"] for r in self.rows if all(r.get(k) == v for k, v in match.items())]

    def write_csv(self, fh) -> None:
        """Write the header and the rows as CSV to an open text stream."""
        writer = csv.writer(fh)
        writer.writerow(_ROW_KEYS)
        for row in self.rows:
            writer.writerow(["" if row.get(key) is None else row.get(key) for key in _ROW_KEYS])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def to_json(self, path) -> None:
        doc = {"metadata": self.metadata, "rows": self.rows}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _row_sort_key(row: dict):
    return (
        row.get("metric") or "",
        row.get("n") if row.get("n") is not None else -1,
        row.get("k") if row.get("k") is not None else -1,
        row.get("method") or "",
        row.get("seed") if row.get("seed") is not None else -1,
    )


def _half_total_target(values: np.ndarray) -> float:
    total = float(values.sum())
    if _integral(values):
        return float(round(0.5 * total))
    return 0.5 * total


def error_experiment(
    family: SetSpec,
    n_values: Sequence[int],
    config: ApproxConfig,
    seeds: Sequence[int],
) -> ExperimentResult:
    """Absolute relative error of the approximate total versus ground truth.

    For each (n, seed) a set is generated from ``family``, the target is
    half its total sum (rounded for integer sets), and
    ``|approx - exact| / max(exact, 1)`` is recorded. Per-n mean and
    standard deviation rows accompany the points. The ground truth is
    ``exact_perfect_sum``'s: the DP for integer families, at any n whose
    table fits its cell budget, and enumeration for real ones, up to
    ``exact.DEFAULT_ENUMERATION_CAP``. Past either limit it raises
    ``InfeasibleError``.
    """
    n_values = list(n_values)
    rows = []
    for n in n_values:
        errors = []
        for seed in seeds:
            spec = replace(family, n=n, seed=seed)
            values = generate_set(spec)
            target = _half_total_target(values)
            exact_total = exact_perfect_sum(values, target, config.relation).total
            approx_total = approximate_perfect_sum(values, target, config).total
            err = abs(approx_total - exact_total) / max(exact_total, 1)
            errors.append(err)
            rows.append(
                {"n": n, "k": None, "method": config.method, "metric": "abs_rel_error",
                 "value": float(err), "seed": seed}
            )
        if errors:
            rows.append(
                {"n": n, "k": None, "method": config.method,
                 "metric": "mean_abs_rel_error", "value": float(np.mean(errors)), "seed": None}
            )
            rows.append(
                {"n": n, "k": None, "method": config.method,
                 "metric": "sd_abs_rel_error", "value": float(np.std(errors)), "seed": None}
            )
    metadata = {
        "experiment": "error",
        "family": family.describe(),
        "n_values": n_values,
        "seeds": list(seeds),
        "config": _config_echo(config),
        "target_rule": "half_total_sum",
    }
    return ExperimentResult(rows=rows, metadata=metadata)


def _bin_pmf(sums: np.ndarray, weights: np.ndarray, g: float, anchor: float) -> DiscretePmf:
    idx = np.floor((sums - anchor) / g + 0.5).astype(np.int64)
    uniq, inverse = np.unique(idx, return_inverse=True)
    mass = np.bincount(inverse, weights=weights)
    mass = mass / mass.sum()
    return DiscretePmf(support=anchor + uniq.astype(np.float64) * g, mass=mass)


def _raw_reference(
    arr: np.ndarray, k: int, seed: int, ref_samples: int
) -> tuple[np.ndarray, np.ndarray, str]:
    """(points, weights, kind) of the reference size-k sum distribution.

    Exact whenever computable (integer-valued sets via the DP, real sets
    while C(n, k) is within budget); otherwise a seeded empirical
    reference of ``ref_samples`` sampled sums, which is what large-n
    divergence tables compare against. Its draws come from a child of
    ``SeedSequence((seed, k))``, whose own state seeds a KDE method on the
    experiment seed (``pipeline.per_k_seed``), so the two share no draws.
    """
    n = arr.size
    if _integral(arr) or binomial(n, k) <= MAX_EXACT_REFERENCE_SUBSETS:
        pmf = exact_sum_pmf(arr, k)
        return pmf.support, pmf.mass, "exact"
    child = np.random.SeedSequence((seed, k)).spawn(1)[0]
    sums = sample_subset_sums(arr, k, ref_samples, int(child.generate_state(1, np.uint64)[0]))
    return sums, np.full(sums.size, 1.0 / sums.size), "sampled"


def _method_spec(method) -> dict:
    spec = {"method": method} if isinstance(method, str) else dict(method)
    if "method" not in spec:
        raise ValueError(f"method spec {spec} has no 'method' key")
    return spec


def _approx_grid(ref: DiscretePmf, dist, g: float, anchor: float) -> np.ndarray:
    """Grid ``anchor + g * Z`` covering both the reference support and the approximation."""
    lo = float(ref.support[0])
    hi = float(ref.support[-1])
    if hasattr(dist, "bandwidth"):
        lo = min(lo, float(dist.sums.min()) - dist.bandwidth)
        hi = max(hi, float(dist.sums.max()) + dist.bandwidth)
    else:
        spread = 8.0 * math.sqrt(dist.variance)
        lo = min(lo, dist.mean - spread)
        hi = max(hi, dist.mean + spread)
    i_lo = int(math.floor((lo - anchor) / g + 0.5))
    i_hi = int(math.floor((hi - anchor) / g + 0.5))
    if i_hi - i_lo + 1 > _GRID_LIMIT:
        raise ValueError(
            f"divergence grid of {i_hi - i_lo + 1} points exceeds {_GRID_LIMIT}; "
            f"use a coarser granularity"
        )
    return anchor + np.arange(i_lo, i_hi + 1, dtype=np.float64) * g


def divergence_experiment(
    values,
    k_values: Sequence[int],
    methods: Sequence,
    *,
    granularity: Optional[float] = None,
    bins: int = 60,
    seed: int = 0,
    ref_samples: int = DEFAULT_REFERENCE_SAMPLES,
) -> ExperimentResult:
    """Jensen-Shannon divergence of each method against the reference, per k.

    ``granularity=None`` resolves per set: the sum-lattice gcd for
    integer-valued sets, else each k's reference range divided into
    ``bins`` windows. The size-k sums of an integer-valued set lie on
    k * min(values) + g * Z, so both grids anchor at fmod(k * min, g),
    other sets' at 0. Methods are names or dicts of a ``method`` and the
    model's ``ApproxConfig`` fields (``low``, ``high``, ``df``,
    ``samples``, ``seed``), e.g. ``{"method": "chi_square", "df": 3}``;
    the experiment ``seed`` is the default of each method's ``seed``. Any
    other key, or a family without its parameters, raises ValueError
    before any reference is built, as do sizes in ``k_values``, ``bins``
    or ``ref_samples`` that are not integers >= 1 (a bool is no integer
    here), a size above n, and a granularity that is negative or not
    finite.
    """
    for k in k_values:
        _check_number("k", k, numbers.Integral, low=1)
    _check_number("bins", bins, numbers.Integral, low=1)
    _check_number("ref_samples", ref_samples, numbers.Integral, low=1)
    _check_number("granularity", granularity, optional=True, low=0)
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    stats = set_statistics(arr)
    n = stats.n
    _check_k(k_values, n)

    specs = [_method_spec(m) for m in methods]
    configs = [_config_from(spec, ("method", *_MODEL_FIELDS), seed=seed) for spec in specs]
    rows = []
    grans: dict[str, float] = {}
    ref_kinds: dict[str, str] = {}
    base_g = auto_granularity(arr) if granularity is None else float(granularity)
    lattice_base = float(arr.min()) if _integral(arr) else None

    for k in k_values:
        points, weights, kind = _raw_reference(arr, k, seed, ref_samples)
        if base_g > 0:
            g = base_g
        else:
            g = max((float(points.max()) - float(points.min())) / bins, 1e-12)
        anchor = 0.0 if lattice_base is None else math.fmod(k * lattice_base, g)
        ref = _bin_pmf(points, weights, g, anchor)
        grans[str(k)] = g
        ref_kinds[str(k)] = kind
        for config in configs:
            dist = _build_distribution(arr, stats, k, config)
            grid = _approx_grid(ref, dist, g, anchor)
            approx_pmf = discretize(dist, grid, g)
            rows.append(
                {"n": n, "k": int(k), "method": config.method, "metric": "jsd",
                 "value": js_divergence(ref, approx_pmf), "seed": seed}
            )

    metadata = {
        "experiment": "divergence",
        "n": n,
        "k_values": [int(k) for k in k_values],
        "methods": specs,
        "granularity": grans,
        "reference": {"kind": ref_kinds, "samples": ref_samples,
                      "max_exact_subsets": MAX_EXACT_REFERENCE_SUBSETS},
        "seed": seed,
        "bins": bins,
    }
    return ExperimentResult(rows=rows, metadata=metadata)