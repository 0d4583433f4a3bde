"""perfectsum benchmark: one workload, one closed-loop process, every output checked.

    python3 perfbench/run.py --workload approx-tail|approx-mid|referee
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports perfectsum
from its ``src`` directory. The workload process is also started for set-up
only, twice before and twice after the run: ``setup_s`` is the median over
those five processes of the time from process start until the first op is
ready. The last line of stdout is the result object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run
that alternates untraced and traced ops. The lines above it are the same
run for people: metrics with units, accuracy figures, failed ops and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("approx-tail", "approx-mid", "referee")
REQUIRED = (Path("src/perfectsum/__init__.py"), Path("docs/schemas/report.schema.json"))
SETUP_SAMPLES = 5
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({var: nproc for var in THREAD_VARS})
    return env


def start_worker(args, workdir: Path, setup_only: bool):
    """Start a workload process; return it and its seconds from start to ready."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: workload process did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: workload process overran {TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: workload process exited {proc.returncode}")
    return out


def setup_time(args, workdir: Path) -> float:
    proc, ready = start_worker(args, workdir, setup_only=True)
    finish(proc)
    return ready


def measure(args, root: Path) -> tuple[dict, list]:
    # set-up samples come from before and after the run, so the median spans
    # the run's window rather than one moment of the machine's load
    extra = SETUP_SAMPLES - 1
    setups = [setup_time(args, root / f"setup{i}") for i in range(extra // 2)]
    proc, ready = start_worker(args, root / "run", setup_only=False)
    setups.append(ready)
    lines = finish(proc).strip().splitlines()
    setups += [setup_time(args, root / f"setup{i}") for i in range(extra // 2, extra)]
    return json.loads(lines[-1]), setups


def report(args, result: dict, setups: list) -> dict:
    """Print the run for people; return the metrics of the result line."""
    env, timing = result["env"], result["timing"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"ops: {result['attempted']} ({timing['ops']} untraced), {result['failed']} failed, "
          f"{result['check_failed']} of them by their output check")
    failures = {}
    for rec in result["records"]:
        if "error" in rec:
            failures.setdefault(rec["error"], []).append(rec["input"])
    for error, inputs in failures.items():
        sizes = sorted(set(inputs), key=str)
        print(f"failed x{len(inputs)} on inputs {sizes}: {error}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (timing["op_p50_s"], "s"),
        "op_tail_s": (timing["op_tail_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} process starts",
        "op_p50_s": f"{timing['ops']} ops",
        "op_tail_s": f"p{timing['tail_percentile']:.1f}, "
                     f"{timing['tail_ops_beyond']} ops beyond, {timing['ops']} ops",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:12.6g} {unit:<7} {notes.get(name, '')}")
    print(f"  {'failed_ratio':<18} {result['failed'] / result['attempted']:12.6g} ratio")
    for name, figure in result["accuracy"].items():
        shown = "—" if figure["value"] is None else f"{figure['value']:.6g}"
        print(f"  {name:<18} {shown:>12} {figure['unit']:<7} median over checked ops")
    if not args.trace:
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(f"trace: {result['trace_file']}")
    for name, layer in result["layers"].items():
        print(f"  {name:<36} {layer['value']:12.6g} {layer['unit']}")
    return result["layers"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: run from a perfectsum checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    root = Path(".perfbench") / f"run-{os.getpid()}"
    try:
        result, setups = measure(args, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    metrics = report(args, result, setups)
    print(json.dumps({
        "correct": result["check_failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
