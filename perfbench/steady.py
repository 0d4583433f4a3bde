"""Steadiness check: repeat each workload over seeds and compare the spread with the bounds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b,...]

Run from the root of a source checkout. Each run is ``run.py`` with the
next seed and ``run_seconds`` from BENCHMARK.json. For every end-to-end
metric and workload it prints the median, the quartiles of the runs (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and the metric's bound. A spread at or below a
third of the bound is steady; above the bound (set-up time aside, whose
bound limits only its median) the exit code is 1. Each run's report is
printed too, so ``--runs 1`` is one checked run of every workload with
every metric and figure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> tuple[dict, float]:
    """Print one untraced run's report; return its result line and wall time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1]), perf_counter() - start


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    worst = 0.0
    summary = {}
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}; options: {', '.join(names)}")
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(workload, seed)
            results.append(result)
            line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {line}", flush=True)
        summary[workload] = {}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            verdict = ("steady" if spread <= metric["bound"] / 3
                       else "within bound" if spread <= metric["bound"] else "OVER BOUND")
            summary[workload][metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                                 "spread": spread, "bound": metric["bound"]}
            print(f"  {workload:<12} {metric['name']:<12} median {median:10.5g} {metric['unit']:<3}"
                  f" q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:7.2%}"
                  f" bound {metric['bound']:.0%}  {verdict}", flush=True)
    print(json.dumps(summary))
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
