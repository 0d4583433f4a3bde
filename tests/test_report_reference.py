"""`perfectsum approx` reports against plain whole-array reference layers.

Each case writes a seeded value set and runs the CLI in process. It then
builds the same report again with the pipeline's granularity, normal
model, probability query and emit replaced by the straightforward forms
kept below: the gcd of every difference, the one-line moment formulas,
an out-of-place query with ``np.where`` for atoms over every size, not
only the ones the normal model may not saturate, and a walk over every
count for the rows to emit. The two outputs must be equal byte for byte.
Both runs use the same numpy and scipy, so the check holds on any of
their releases; a faster layer that moves one bit of a report fails it.
"""

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import ndtr

from perfectsum import cli, pipeline
from perfectsum.approx import NormalSum


def reference_granularity(values):
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    rounded = np.rint(arr)
    if arr.size == 0 or not np.array_equal(arr, rounded):
        return 0.0
    ints = rounded.astype(np.int64)
    g = int(np.gcd.reduce(np.abs(ints - ints[0])))
    return float(g) if g > 0 else 1.0


@dataclass(frozen=True)
class ReferenceNormal:
    mean: np.ndarray
    variance: np.ndarray

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=np.float64) - self.mean) / np.sqrt(self.variance))


def reference_normal(stats, k):
    mean = k * stats.mean
    var = k * stats.variance * (1.0 - (k - 1) / max(stats.n - 1, 1))
    if np.ndim(var) == 0 and var <= 0.0:
        return NormalSum(mean, 0.0)
    return ReferenceNormal(mean=mean, variance=var)


def reference_query(dist, target, relation, g, offset=None):
    # the sums that satisfy the relation are [a, b]: on the lattice
    # offset + g * Z under the auto granularity, else ends at the target
    a = b = target
    if offset is not None and g > 0:
        a = offset + g * np.ceil((target - offset) / g)
        b = offset + g * np.floor((target - offset) / g)
    atom = np.asarray(getattr(dist, "variance", 1.0)) <= 0.0
    prob = 0.0
    if not atom.all():
        with np.errstate(divide="ignore", invalid="ignore"):
            if relation == "eq":
                prob = dist.cdf(b + g / 2) - dist.cdf(a - g / 2)
            elif relation == "ge":
                prob = 1.0 - dist.cdf(a - g / 2)
            else:
                prob = dist.cdf(b + g / 2)
    if atom.any():
        mean = dist.mean
        low = mean > a - g / 2 if g > 0 else mean >= a
        high = mean <= b + g / 2
        exact = {"ge": low, "le": high, "eq": low & high}[relation]
        prob = np.where(atom, exact, prob)
    prob = np.clip(prob, 0.0, 1.0)
    return float(prob) if np.ndim(prob) == 0 else prob


def reference_doc(report, emit=pipeline.ApproxReport.to_json_dict):
    """``to_json_dict`` with the emitted rows found by a walk over every count."""
    doc = emit(report)
    kept = [i for i, (p, c) in enumerate(zip(report.probabilities.tolist(), report.counts))
            if p > 0.0 or c != 0]
    doc["per_k"] = {
        "k": [int(report.ks[i]) for i in kept],
        "probability": [float(report.probabilities[i]) for i in kept],
        "count": [str(report.counts[i]) for i in kept],
        "method_used": [report.methods[i] for i in kept],
    }
    return doc


def _ints(n, seed):
    return lambda: np.random.default_rng(seed).integers(0, 21, n)


def _upper_tail(values):
    return float(values.sum() - 5 * values.mean())


def _lower_tail(values):
    return float(5 * values.mean())


def _share(q):
    return lambda values: q * float(values.sum())


def _even_with_late_odd():
    # the differences' gcd is 2 over the first 2^14 values and 1 over the set
    values = 2 * np.random.default_rng(18).integers(0, 11, 40_000)
    values[30_000] += 1
    return values


TAIL_INTS = _ints(100_000, 11)

# name -> (value set, its target, approx options after the target)
CASES = {
    "normal_ge_tail": (TAIL_INTS, _upper_tail, ["--relation", "ge", "--method", "normal"]),
    "normal_le_tail": (TAIL_INTS, _lower_tail, ["--relation", "le", "--method", "normal"]),
    "normal_eq_g1": (TAIL_INTS, _upper_tail,
                     ["--relation", "eq", "--method", "normal", "--granularity", "1"]),
    # eq off the lattice counts nothing, so this case's target is a lattice point
    "even_with_late_odd": (_even_with_late_odd, lambda values: round(_upper_tail(values)),
                           ["--relation", "eq", "--method", "normal"]),
    "normal_reals": (lambda: np.random.default_rng(17).normal(3, 2, 5000), _share(0.55),
                     ["--relation", "ge", "--method", "normal"]),
    "irwin_hall": (lambda: np.random.default_rng(12).uniform(0, 1, 2000), _upper_tail,
                   ["--relation", "ge", "--method", "irwin-hall", "--low", "0", "--high", "1"]),
    "chi_square": (lambda: np.random.default_rng(13).chisquare(3, 2000), _upper_tail,
                   ["--relation", "ge", "--method", "chi-square", "--df", "3"]),
    "kde_seeded": (_ints(200, 14), _share(0.75),
                   ["--relation", "ge", "--method", "kde", "--samples", "500", "--seed", "7"]),
    "exact_small_k": (_ints(60, 15), _share(0.6),
                      ["--relation", "ge", "--method", "normal", "--exact-small-k", "3"]),
    "k_window": (TAIL_INTS, _upper_tail, ["--relation", "ge", "--method", "normal",
                                          "--k-min", "99990", "--k-max", "99999"]),
    "diagnostics": (_ints(500, 16), _share(0.6),
                    ["--relation", "ge", "--method", "normal", "--diagnostics"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_equals_reference_layers(name, tmp_path, monkeypatch):
    make, target_of, options = CASES[name]
    values = make()
    path = tmp_path / f"{name}.txt"
    path.write_text("\n".join(map(repr, values.tolist())) + "\n")
    argv = ["approx", str(path), "--target", repr(target_of(values)), *options]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0

    reports = []
    monkeypatch.setattr(pipeline, "auto_granularity", reference_granularity)
    monkeypatch.setattr(pipeline, "normal_sum_approx", reference_normal)
    monkeypatch.setattr(pipeline, "probability_query", reference_query)
    monkeypatch.setattr(pipeline, "_unsaturated_sizes", lambda *args: None)
    monkeypatch.setattr(pipeline.ApproxReport, "to_json_dict",
                        lambda report: reports.append(report) or reference_doc(report))
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        assert cli.main(argv) == 0
    assert len(reports) == 1
    assert out.getvalue() == expected.getvalue()
    assert json.loads(out.getvalue())["per_k"]["k"]
