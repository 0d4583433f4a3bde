"""Spans around calls into perfectsum's public functions, recorded from outside the program.

A traced op patches the module attributes through which the program and the
benchmark call each layer, so a call made inside ``approximate_perfect_sum``
or ``divergence_experiment`` is recorded with its caller as parent. Spans
stay in memory; ``Tracer.write`` saves them when the benchmark ends.
Untraced ops run with every attribute restored, so they time the program
unchanged.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from time import perf_counter

from perfectsum import cli, exact, pipeline, simulation


def _report_counts(args, kwargs, report) -> dict:
    counts = report.counts
    return {
        "pipeline.strata": len(counts),
        "pipeline.nonzero_strata": sum(1 for c in counts if c),
        "pipeline.count_bits": sum(c.bit_length() for c in counts),
    }


def _dp_cells(args, kwargs, result) -> dict:
    # the benchmark only asks dp_counts for `ge` on non-negative integers,
    # whose table is (n + 1) sizes by ceil(target) partial sums
    values, target = args[0], args[1]
    return {"exact.dp_cells": (len(values) + 1) * math.ceil(target)}


# (owner, attribute, layer, counter): the owner is the namespace the caller
# looks the function up in, so each layer may appear once per calling module.
PATCHES = (
    (cli, "read_input", "inputs.read_input",
     lambda a, k, r: {"inputs.bytes": os.path.getsize(a[0])}),
    (cli, "approximate_perfect_sum", "pipeline.approximate_perfect_sum", _report_counts),
    (cli, "_emit", "cli.json_dump", None),
    (pipeline, "approximate_perfect_sum", "pipeline.approximate_perfect_sum", _report_counts),
    (pipeline, "set_statistics", "moments.set_statistics", None),
    (pipeline, "auto_granularity", "pipeline.auto_granularity", None),
    (pipeline, "sample_subset_sums", "kde.sample_subset_sums",
     lambda a, k, r: {"kde.sampled_sums": r.size}),
    (pipeline, "fit_bandwidth", "kde.fit_bandwidth", None),
    (pipeline, "probability_query", "approx.probability_query", None),
    (pipeline.ApproxReport, "to_json_dict", "pipeline.to_json_dict", None),
    (exact, "dp_counts", "exact.dp_counts", _dp_cells),
    (exact, "enumerate_counts", "exact.enumerate_counts", None),
    (simulation, "divergence_experiment", "simulation.divergence_experiment", None),
    (simulation, "set_statistics", "moments.set_statistics", None),
    (simulation, "auto_granularity", "pipeline.auto_granularity", None),
    (simulation, "exact_sum_pmf", "exact.exact_sum_pmf", None),
    (simulation, "sample_subset_sums", "kde.sample_subset_sums",
     lambda a, k, r: {"kde.sampled_sums": r.size}),
    (simulation, "discretize", "evaluation.discretize",
     lambda a, k, r: {"evaluation.grid_points": len(a[1])}),
    (simulation, "js_divergence", "evaluation.js_divergence", None),
)

# in the order of a run: input, statistics, counting loop, emit; then the referee's layers
LAYERS = (
    "inputs.read_input",
    "moments.set_statistics",
    "pipeline.auto_granularity",
    "pipeline.approximate_perfect_sum",
    "pipeline.to_json_dict",
    "cli.json_dump",
    "exact.dp_counts",
    "exact.enumerate_counts",
    "exact.exact_sum_pmf",
    "kde.sample_subset_sums",
    "kde.fit_bandwidth",
    "approx.probability_query",
    "evaluation.discretize",
    "evaluation.js_divergence",
    "simulation.divergence_experiment",
)
COUNTS = {
    "inputs.bytes": "bytes",
    "pipeline.strata": "count",
    "pipeline.nonzero_strata": "count",
    "pipeline.count_bits": "bits",
    "cli.output_bytes": "bytes",
    "exact.dp_cells": "count",
    "kde.sampled_sums": "count",
    "evaluation.grid_points": "count",
}
# unit of every per-layer metric, in the order they are reported
UNITS = {f"{layer}.s": "s" for layer in LAYERS} | COUNTS | {
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class Tracer:
    """Span recorder: name, start, end, parent span and op id per span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pending: list = []
        self._op = None

    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "op": self._op,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: str, counter):
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span["error"] = f"{type(err).__name__}: {err}"
                raise
            finally:
                self._close(span)
            if counter is not None:
                # evaluated after the op's timer stops, in finish_op
                self._pending.append((span, counter, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every layer call through a span for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        try:
            for (owner, attr, layer, counter), (_, _, fn) in zip(PATCHES, saved):
                setattr(owner, attr, self._wrap(fn, layer, counter))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    @contextmanager
    def op(self, op_id: int):
        """The root span of one op; layer spans opened inside it are its descendants."""
        self._op = op_id
        span = self._open("op")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def finish_op(self, op_span: dict, counts: dict) -> None:
        """Attach the op's deferred counters; call outside the timed region."""
        for span, counter, args, kwargs, result in self._pending:
            span.update(counter(args, kwargs, result))
        self._pending.clear()
        op_span.update(counts)

    def layer_metrics(self) -> dict:
        """Per traced op means of each layer's self time and of each count."""
        ops = [s for s in self.spans if s["name"] == "op"]
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        metrics = {f"{layer}.s": 0.0 for layer in LAYERS}
        metrics.update({name: 0 for name in COUNTS})
        for i, span in enumerate(self.spans):
            if span["name"] != "op":
                metrics[f"{span['name']}.s"] += span["end"] - span["start"] - child_time[i]
            for name in COUNTS:
                metrics[name] += span.get(name, 0)
        op_time = sum(s["end"] - s["start"] for s in ops)
        covered = sum(child_time[i] for i, s in enumerate(self.spans) if s["name"] == "op")
        out = {name: value / max(len(ops), 1) for name, value in metrics.items()}
        out["trace.coverage"] = covered / op_time if op_time > 0 else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")
