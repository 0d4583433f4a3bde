"""One workload process of the perfectsum benchmark.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
                                  --workdir DIR [--setup-only]

``run.py`` starts this with the checkout's ``src`` on ``PYTHONPATH`` and the
BLAS/OpenMP thread caps in the environment. The process imports perfectsum,
makes the workload's inputs from its own seeded RNG, prints ``ready`` and
then runs a single-client closed loop: the next op starts when the previous
one has finished and its output has been checked. The op is timed alone;
the checks and the accuracy figures run outside the timed region. The last
line of stdout is one JSON object with the metrics and the op records.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import perfectsum
from perfectsum import cli, exact, pipeline, simulation
from perfectsum.pipeline import ApproxConfig

from tracing import UNITS, Tracer

SCHEMA_PATH = Path("docs/schemas/report.schema.json")

# approx-mid size classes. A block holds each class `share` times, shuffled
# per block. The counts of the 20,000 class pass CPython's 4,300-digit
# str(int) limit, on which the CLI fails; that class is capped below ten ops
# per run, so the median and the tail rank land on classes that succeed.
MID_SHARES = {6_000: 3, 10_000: 3, 14_000: 3, 20_000: 1}
MID_CAPPED, MID_CAP = 20_000, 9

# op_tail_s is the highest percentile with this many ops above it.
TAIL_OPS_BEYOND = 10

# Input values are integers in 0..20, written through this table: six times
# faster than str() per value, so set-up time is mostly the imports.
DECIMAL = np.array([str(v) for v in range(21)], dtype=object)


class CheckError(Exception):
    """An op's output is wrong."""


class CliExit(Exception):
    """The CLI returned a non-zero exit code; it reports the cause on stderr only."""


def parse_decimal(text: str) -> int:
    """int(text) for any length, without raising the interpreter's digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or len(text)
    if len(text) <= limit:
        return int(text)
    low = len(text) // 2
    return parse_decimal(text[:-low]) * 10**low + parse_decimal(text[-low:])


def check_counts(n: int, ks, counts, total: int) -> None:
    """Each count lies in [0, C(n, k)] and the total is their sum."""
    if list(ks) != sorted(set(ks)) or (len(ks) and not 1 <= ks[0] <= ks[-1] <= n):
        raise CheckError(f"per_k.k is not strictly increasing within 1..{n}")
    if ks:
        comb = math.comb(n, ks[0])
        at = ks[0]
        for k, count in zip(ks, counts):
            while at < k:
                comb = comb * (n - at) // (at + 1)
                at += 1
            if not 0 <= count <= comb:
                raise CheckError(f"count for k={k} is outside [0, C({n}, {k})]")
    if sum(counts) != total:
        raise CheckError("total is not the sum of the per-k counts")


def ge_support_mismatch(values: np.ndarray, target: float, nonzero_ks) -> int:
    """Strata whose zero/nonzero status disagrees with exact `ge` reachability.

    A k-subset can reach the target iff the k largest values do, so the
    reachable strata come from the prefix sums of the values sorted down.
    """
    reachable = np.cumsum(np.sort(values)[::-1]) >= target
    nonzero = np.zeros(values.size, dtype=bool)
    nonzero[np.asarray(nonzero_ks, dtype=np.int64) - 1] = True
    return int(np.count_nonzero(reachable != nonzero))


class ApproxCli:
    """Ops of `perfectsum approx --relation ge --method normal`, run in process."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.schema = json.loads(SCHEMA_PATH.read_text())
        self.inputs = {}  # label -> (path, values, target)
        self.checked = {}  # output digest -> accuracy figures

    def add_input(self, label, values: np.ndarray, target: float) -> None:
        path = self.workdir / f"{label}.txt"
        path.write_text("\n".join(DECIMAL[values].tolist()) + "\n")
        self.inputs[label] = (path, values.astype(np.float64), target)

    def op(self, label):
        path, _, target = self.inputs[label]
        argv = ["approx", str(path), "--target", repr(target),
                "--relation", "ge", "--method", "normal"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            lines = err.getvalue().strip().splitlines()
            raise CliExit(f"exit {code}: {lines[-1] if lines else ''}")
        return out.getvalue()

    def op_counts(self, text) -> dict:
        return {"cli.output_bytes": len(text.encode())}

    def check(self, label, text) -> dict:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self.checked:
            self.checked[digest] = self._check_new(label, text)
        return self.checked[digest]

    def _check_new(self, label, text) -> dict:
        import jsonschema  # a checking tool, kept out of the set-up time

        _, values, target = self.inputs[label]
        doc = json.loads(text)
        try:
            jsonschema.validate(doc, self.schema)
        except jsonschema.ValidationError as err:
            raise CheckError(f"schema: {err.message}") from None
        per_k = doc["per_k"]
        counts = [parse_decimal(c) for c in per_k["count"]]
        check_counts(values.size, per_k["k"], counts, parse_decimal(doc["total"]))
        nonzero = [k for k, c in zip(per_k["k"], counts) if c]
        return {"support_mismatch": ge_support_mismatch(values, target, nonzero)}


class ApproxTail(ApproxCli):
    """n = 1e6 integers in 0..20, target total - 5 * mean: small counts, many strata."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        values = np.random.default_rng(seed).integers(0, 21, 1_000_000)
        total = int(values.sum())
        self.add_input("tail", values, total - 5 * (total / values.size))

    def blocks(self):
        while True:
            yield ["tail"]


class ApproxMid(ApproxCli):
    """Mid-range target round(sum / 2) at sizes on both sides of the 4,300-digit limit."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        self.rng = np.random.default_rng(seed)
        for n in MID_SHARES:
            values = self.rng.integers(0, 21, n)
            self.add_input(n, values, float(round(int(values.sum()) / 2)))

    def blocks(self):
        done = 0
        while True:
            block = [n for n, share in MID_SHARES.items() for _ in range(share)]
            if done >= MID_CAP:
                block = [n for n in block if n != MID_CAPPED]
            done += block.count(MID_CAPPED)
            yield [int(n) for n in self.rng.permutation(block)]


REFEREE_DIVERGENCE_METHODS = ("normal", {"method": "chi_square", "df": 3}, "kde")


class Referee:
    """A fresh seeded validation round per op: the exact oracles, the sampler, evaluation."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def blocks(self):
        i = 0
        while True:
            yield [i]
            i += 1

    def prepare(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        sets = {
            "dp": rng.integers(0, 21, 200).astype(np.float64),
            "enum": rng.integers(0, 21, 26).astype(np.float64),
            "kde": rng.integers(0, 21, 60).astype(np.float64),
        }
        inst = {name: (v, 0.75 * float(v.sum())) for name, v in sets.items()}
        inst["chi"] = rng.chisquare(3, 200)
        inst["seed"] = int(rng.integers(2**31))
        return inst

    def op(self, inst):
        values, target = inst["dp"]
        out = {
            "dp": exact.dp_counts(values, target, "ge"),
            "normal": pipeline.approximate_perfect_sum(
                values, target, ApproxConfig(method="normal", relation="ge")),
        }
        values, target = inst["enum"]
        out["enum"] = exact.enumerate_counts(values, target, "ge")
        out["enum_dp"] = exact.dp_counts(values, target, "ge")
        out["divergence"] = simulation.divergence_experiment(
            inst["chi"], [3, 25], REFEREE_DIVERGENCE_METHODS, seed=inst["seed"])
        values, target = inst["kde"]
        out["kde"] = pipeline.approximate_perfect_sum(
            values, target, ApproxConfig(method="kde", relation="ge", seed=inst["seed"]))
        return out

    def op_counts(self, out) -> dict:
        return {}

    def check(self, inst, out) -> dict:
        if out["enum"].counts != out["enum_dp"].counts:
            raise CheckError("enumerate_counts and dp_counts disagree at n = 26")
        for name in ("normal", "kde"):
            report = out[name]
            check_counts(report.meta["n"], report.ks.tolist(), report.counts, report.total)
        dp, approx = out["dp"], out["normal"].counts_by_k()
        both = [k for k in dp.counts if dp.counts[k] and approx[k]]
        rows = out["divergence"].rows
        return {
            "support_mismatch": sum((dp.counts[k] > 0) != (approx[k] > 0) for k in dp.counts),
            "total_rel_err": abs(out["normal"].total - dp.total) / dp.total,
            "log_rel_err_max": max(
                (abs(math.log(approx[k]) - math.log(dp.counts[k])) for k in both), default=0.0),
            "jsd_mean": statistics.fmean(r["value"] for r in rows),
        }


WORKLOADS = {"approx-tail": ApproxTail, "approx-mid": ApproxMid, "referee": Referee}
ACCURACY = {
    "support_mismatch": "strata",
    "total_rel_err": "ratio",
    "log_rel_err_max": "ln",
    "jsd_mean": "nats",
}


def timing_metrics(records: list) -> dict:
    ok = sorted(r["s"] for r in records if "error" not in r)
    slowest = max(r["s"] for r in records)

    def at(rank: int) -> float:
        # failed ops rank above every success; a rank on one reads as the slowest op
        return ok[rank] if rank < len(ok) else slowest

    n = len(records)
    p50 = at(n // 2) if n % 2 else (at(n // 2 - 1) + at(n // 2)) / 2
    # a run of TAIL_OPS_BEYOND ops or fewer has no such percentile; it reports
    # its fastest op, the rank with the most ops above it
    beyond = min(TAIL_OPS_BEYOND, n - 1)
    return {
        "op_p50_s": p50,
        "op_tail_s": at(n - 1 - beyond),
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_ops_beyond": beyond,
        "ops": n,
        "failed": n - len(ok),
    }


def closed_loop(workload, seconds: float, tracer) -> list:
    """Run whole blocks of ops until `seconds` of op time have been measured.

    With a tracer each op runs twice in a row, untraced and then traced, so
    the two timings share their inputs and the machine's state.
    """
    records = []
    measured = 0.0
    prepare = getattr(workload, "prepare", lambda param: param)
    for block in workload.blocks():
        for param in block:
            for traced in (False, True) if tracer else (False,):
                inst = prepare(param)
                gc.collect()  # every op starts from the same collector state
                rec = {"op": len(records), "input": param, "traced": traced}
                patches = tracer.patched() if traced else contextlib.nullcontext()
                with patches:
                    span_cm = tracer.op(rec["op"]) if traced else contextlib.nullcontext()
                    start = perf_counter()
                    try:
                        with span_cm as op_span:
                            out = workload.op(inst)
                    except Exception as err:  # an op failure is recorded, not fatal
                        rec["error"] = f"{type(err).__name__}: {err}"
                    rec["s"] = perf_counter() - start
                measured += rec["s"]
                if traced:
                    tracer.finish_op(op_span, {} if "error" in rec else workload.op_counts(out))
                if "error" not in rec:
                    try:
                        rec.update(workload.check(inst, out))
                    except Exception as err:  # any check failure fails the op
                        rec["error"] = f"check failed: {type(err).__name__}: {err}"
                        rec["check_failed"] = True
                    del out
                records.append(rec)
        if measured >= seconds:
            return records


def environment(args) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if Path(perfectsum.__file__).resolve().parent.parent != src:
        print(f"perfectsum was imported from {perfectsum.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    records = closed_loop(workload, args.seconds, tracer)
    result = {"env": environment(args), "records": records}
    untraced = [r for r in records if not r["traced"]]
    result["timing"] = timing_metrics(untraced)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = len(records)
    result["failed"] = sum(1 for r in records if "error" in r)
    result["check_failed"] = sum(1 for r in records if r.get("check_failed"))
    result["accuracy"] = {
        name: {"value": statistics.median(values) if values else None, "unit": unit}
        for name, unit in ACCURACY.items()
        for values in [[r[name] for r in records if name in r]]
    }
    if tracer:
        traced = timing_metrics([r for r in records if r["traced"]])
        layers = tracer.layer_metrics()
        layers["trace.overhead"] = traced["op_p50_s"] / result["timing"]["op_p50_s"] - 1
        result["layers"] = {name: {"value": layers[name], "unit": unit}
                            for name, unit in UNITS.items()}
        trace_path = Path(".perfbench") / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
