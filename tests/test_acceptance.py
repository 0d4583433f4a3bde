"""Acceptance suite: every release criterion, one test each, PASS/FAIL printed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each test pins its tolerance inline; the runtime bounds are asserted,
not just reported.
"""

import io
import itertools
import json
import math
import time
import contextlib

import numpy as np
import pytest

from perfectsum import (
    ApproxConfig,
    ChiSquareSum,
    DiscretePmf,
    IrwinHallSum,
    NormalSum,
    SetSpec,
    approximate_perfect_sum,
    binomial,
    divergence_experiment,
    dp_counts,
    enumerate_counts,
    error_experiment,
    fit_kde,
    generate_set,
    js_divergence,
    normal_sum_approx,
    probability_query,
    set_statistics,
    subset_sum_mean,
    subset_sum_variance,
)
from perfectsum.cli import main

from conftest import pascal_triangle


def _report(num: int, name: str, elapsed: float = None) -> None:
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\n[criterion {num}] {name}: PASS{suffix}")


def test_criterion_1_moment_exactness():
    """Brute-force subset-sum mean/variance match the closed forms, rel 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    for trial in range(200):
        n = int(rng.integers(2, 13))
        if trial % 2 == 0:
            values = rng.integers(-50, 51, n).astype(float)
        else:
            values = rng.uniform(-20, 20, n)
        stats = set_statistics(values)
        scale = max(1.0, float(np.abs(values).max()) ** 2 * n)
        for k in range(1, n + 1):
            sums = np.array(
                [s for s in map(sum, itertools.combinations(values.tolist(), k))]
            )
            assert math.isclose(
                subset_sum_mean(stats, k), float(sums.mean()),
                rel_tol=1e-12, abs_tol=1e-12 * scale,
            )
            assert math.isclose(
                subset_sum_variance(stats, k), float(sums.var()),
                rel_tol=1e-12, abs_tol=1e-12 * scale,
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, "moment exactness on 200 random sets", elapsed)


def test_criterion_2_oracle_agreement():
    """dp_counts equals enumerate_counts exactly on 100 seeded integer instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        values = rng.integers(0, 51, n).tolist()
        target = float(rng.integers(0, int(sum(values)) + 2))
        for relation in ("eq", "ge", "le"):
            dp = dp_counts(values, target, relation)
            en = enumerate_counts(values, target, relation)
            assert dp.counts == en.counts
            assert dp.total == en.total
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, "dp/enumeration agreement on 100 instances x 3 relations", elapsed)


def test_criterion_3_binomial():
    """C(100,5) pins to 75,287,520; Pascal's rule holds exhaustively to n=60."""
    assert binomial(100, 5) == 75_287_520
    rows = pascal_triangle(60)
    for n in range(1, 61):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
            assert binomial(n, k) == rows[n][k]
    _report(3, "binomial pins and Pascal's rule n<=60")


def test_criterion_4_end_to_end_accuracy():
    """Normal-method relative error shrinks from n=14 to n=26 (Figure-4 trend)."""
    t0 = time.perf_counter()
    family = SetSpec(family="discrete_uniform", n=1, seed=0, low=0, high=20)
    config = ApproxConfig(method="normal", relation="ge")
    result = error_experiment(family, [14, 18, 22, 26], config, seeds=list(range(20)))
    means = {
        n: result.values(metric="mean_abs_rel_error", n=n)[0] for n in (14, 18, 22, 26)
    }
    assert all(math.isfinite(v) for v in means.values())
    assert means[26] < means[14]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        4,
        f"error trend mean|rel err| n=14: {means[14]:.2e} -> n=26: {means[26]:.2e}",
        elapsed,
    )


def test_criterion_5a_uniform_jsd_ordering():
    """JSD(normal) at k=4 below k=1 on at least 16 of 20 uniform sets."""
    t0 = time.perf_counter()
    wins = 0
    for seed in range(20):
        values = generate_set(
            SetSpec(family="discrete_uniform", n=26, seed=seed, low=0, high=20)
        )
        res = divergence_experiment(values, [1, 4], ["normal"], seed=seed)
        wins += res.values(k=4, method="normal")[0] < res.values(k=1, method="normal")[0]
    assert wins >= 16
    _report(5, f"(a) uniform sets: k=4 beats k=1 on {wins}/20 seeds", time.perf_counter() - t0)


def test_criterion_5b_chi_square_jsd_ordering():
    """Chi-square approximation wins uniformly only at the large set size."""
    t0 = time.perf_counter()
    k_grid = [3, 10, 25]
    methods = ["normal", {"method": "chi_square", "df": 3}]

    def uniform_wins(n: int) -> int:
        count = 0
        for seed in range(10):
            values = generate_set(SetSpec(family="chi_square", n=n, seed=seed, df=3))
            res = divergence_experiment(values, k_grid, methods, seed=seed)
            count += all(
                res.values(k=k, method="chi_square")[0]
                < res.values(k=k, method="normal")[0]
                for k in k_grid
            )
        return count

    wins_large = uniform_wins(5000)
    wins_small = uniform_wins(200)
    # majority of seeds: chi beats normal across all tested k at n=5000,
    # while at n=200 that uniform win must fail on a majority of seeds
    assert wins_large >= 6
    assert wins_small <= 4
    _report(
        5,
        f"(b) chi-square sets: uniform wins {wins_large}/10 at n=5000, "
        f"{wins_small}/10 at n=200",
        time.perf_counter() - t0,
    )


def test_criterion_5c_gapped_jsd_ordering():
    """KDE beats the normal on gapped two-cluster sets, 9+ of 10 seeds."""
    t0 = time.perf_counter()
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [rng.uniform(0, 10, 10), rng.uniform(1000, 1010, 10)]
        )
        res = divergence_experiment(
            values, [2], ["normal", {"method": "kde", "samples": 4000}], seed=seed
        )
        wins += res.values(k=2, method="kde")[0] < res.values(k=2, method="normal")[0]
    assert wins >= 9
    _report(5, f"(c) gapped sets: KDE beats normal on {wins}/10 seeds", time.perf_counter() - t0)


def test_criterion_6_property_suites():
    """JSD, complement, monotone CDFs, KDE normalization, count bounds, degenerate k=n."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6006)

    # JSD symmetry / bounds / zero-iff-equal
    for _ in range(30):
        size = int(rng.integers(1, 9))
        support = np.sort(rng.choice(np.arange(-30.0, 30.0), size, replace=False))
        pm = rng.random(size) + 1e-12
        qm = rng.random(size) + 1e-12
        p = DiscretePmf(support, pm / pm.sum())
        q = DiscretePmf(support, qm / qm.sum())
        d = js_divergence(p, q)
        assert abs(d - js_divergence(q, p)) <= 1e-12
        assert 0.0 <= d <= math.log(2)
        assert js_divergence(p, p) == 0.0
    disjoint = js_divergence(
        DiscretePmf(np.array([0.0]), np.array([1.0])),
        DiscretePmf(np.array([9.0]), np.array([1.0])),
    )
    assert disjoint == pytest.approx(math.log(2), rel=1e-12)

    # complement identity ge + le - eq = 1 within 1e-9
    dists = [
        NormalSum(3.0, 2.5),
        IrwinHallSum(5, 0, 4),
        ChiSquareSum(3, 2),
        NormalSum(6.0, 0.0),
        fit_kde([1, 4, 2, 8, 5], 2, m=400, seed=1),
    ]
    for dist in dists:
        for target in np.linspace(-5, 25, 13):
            ge = probability_query(dist, target, "ge", 1.0)
            le = probability_query(dist, target, "le", 1.0)
            eq = probability_query(dist, target, "eq", 1.0)
            assert abs(ge + le - eq - 1.0) <= 1e-9

    # CDF monotonicity on grids
    grid = np.linspace(-10, 40, 300)
    for dist in dists:
        vals = np.asarray(dist.cdf(grid))
        assert np.all(np.diff(vals) >= -1e-15)

    # KDE normalization is exact
    model = fit_kde(list(range(12)), 4, m=800, seed=2)
    lo = model.sums.min() - model.bandwidth - 1
    hi = model.sums.max() + model.bandwidth + 1
    assert model.cdf(hi) - model.cdf(lo) == 1.0

    # pipeline count bounds
    values = rng.integers(0, 21, 13).tolist()
    for relation in ("eq", "ge", "le"):
        report = approximate_perfect_sum(values, 40.0, ApproxConfig(relation=relation))
        for k, c in report.counts_by_k().items():
            assert 0 <= c <= binomial(13, k)
        assert report.total <= 2**13 - 1

    # k = n handling: zero variance, a point mass at the mean
    stats = set_statistics(values)
    dist = normal_sum_approx(stats, 13)
    assert dist.variance == 0.0
    assert dist.mean == subset_sum_mean(stats, 13)
    assert subset_sum_variance(stats, 13) == 0.0
    _report(6, "property suites", time.perf_counter() - t0)


def test_criterion_7_linear_scaling(tmp_path):
    """Normal-method CLI run: < 5 s at n=1e6; doubling n at most ~doubles time.

    The target sits in the upper tail (total - 5*mean) so per-k counts stay
    machine-scale. With a mid-range target the exact binomial coefficients
    themselves have ~n*H(k/n) bits, and no implementation that honors exact
    arbitrary-precision counts can emit them in linear time.
    """
    times = {}
    for n in (250_000, 500_000, 1_000_000):
        rng = np.random.default_rng(7007)
        values = rng.integers(0, 21, n)
        path = tmp_path / f"perf_{n}.txt"
        np.savetxt(path, values, fmt="%d")
        total = int(values.sum())
        target = total - 5 * (total / n)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = main(
                ["approx", str(path), "--target", str(target),
                 "--relation", "ge", "--method", "normal"]
            )
        times[n] = time.perf_counter() - t0
        assert code == 0
        doc = json.loads(buf.getvalue())
        assert int(doc["total"]) > 0
        assert len(doc["per_k"]["k"]) > 20  # genuinely multi-stratum output
    assert times[1_000_000] < 5.0
    # "at most ~doubles": factor 2 with headroom for timer noise
    assert times[500_000] <= 2.5 * times[250_000] + 0.2
    assert times[1_000_000] <= 2.5 * times[500_000] + 0.2
    _report(
        7,
        "wall times "
        + ", ".join(f"n={n}: {t:.2f}s" for n, t in times.items()),
    )


def test_criterion_8_determinism(tmp_path):
    """Seeded KDE and simulation commands are byte-identical across reruns."""
    t0 = time.perf_counter()
    vals = tmp_path / "vals.txt"
    vals.write_text("".join(f"{x}\n" for x in [3, 1, 4, 1, 5, 9, 2, 6]))

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(
                ["approx", str(vals), "--target", "15", "--relation", "ge",
                 "--method", "kde", "--seed", "7", "--samples", "2000"]
            )
        assert code == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]

    config = {
        "experiment": "divergence",
        "name": "det",
        "set": {"family": "discrete_uniform", "n": 18, "seed": 4, "low": 0, "high": 20},
        "k_values": [1, 3],
        "methods": ["normal", {"method": "kde", "samples": 500}],
        "seed": 11,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    blobs = []
    for tag in ("one", "two"):
        out_dir = tmp_path / tag
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        blobs.append(
            (
                (out_dir / "det.csv").read_bytes(),
                (out_dir / "det.json").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]
    _report(8, "byte-identical seeded reruns (approx kde + simulate)", time.perf_counter() - t0)
