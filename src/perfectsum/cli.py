"""Command-line front end.

Subcommands: ``exact`` (ground-truth counting), ``approx`` (the O(n)
approximation), ``evaluate`` (per-k divergence tables), and
``simulate`` (config-driven experiments writing CSV/JSON files).

stdout carries only the report; messages go to stderr. Exit codes:
0 success, 1 input error, 2 infeasible instance, 3 internal error.
Counts are serialized as decimal strings so arbitrary precision
survives JSON consumers; the schemas are documented in docs/schemas/.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from .exact import InfeasibleError, RELATIONS
from .inputs import InputError, read_input
from .pipeline import (
    _MODEL_FIELDS,
    METHODS,
    ApproxConfig,
    _check_keys,
    _config_from,
    approximate_perfect_sum,
    exact_perfect_sum,
)
from .simulation import (
    DEFAULT_REFERENCE_SAMPLES,
    SetSpec,
    divergence_experiment,
    error_experiment,
    generate_set,
)

__all__ = ["main"]

_CLI_METHODS = tuple(m.replace("_", "-") for m in METHODS)

# approx's options, and the model options evaluate shares, are stored
# under the ApproxConfig field names and default to the fields' defaults
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(ApproxConfig)}

# type and help of each parameter of one stratum's model; the options are
# added, and evaluate echoes them in each method spec, in the order of
# pipeline._MODEL_FIELDS
_MODEL_OPTIONS = {
    "low": (float, "irwin-hall lower bound"),
    "high": (float, "irwin-hall upper bound"),
    "df": (float, "chi-square degrees of freedom"),
    "samples": (int, "KDE sample count per stratum"),
    "seed": (int, "KDE master seed"),
}


# a simulate config's keys besides experiment and name: (required, optional)
_SIM_KEYS = {
    "error": (("family", "n_values", "seeds"), ("config",)),
    "divergence": (("set", "k_values", "methods"), ("granularity", "bins", "seed", "ref_samples")),
}
# the simulate config keys that hold a JSON object, and those that hold an
# array with the JSON types of its elements
_SIM_OBJECTS = ("family", "set", "config")
_SIM_ARRAYS = {
    "n_values": ((int,), "integers"), "seeds": ((int,), "integers"),
    "k_values": ((int,), "integers"), "methods": ((str, dict), "method names or objects"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; reserve 2 for infeasible sizes
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _granularity(text: str):
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"granularity must be 'auto' or a number, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("granularity must be >= 0")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_model_options(parser) -> None:
    for name in _MODEL_FIELDS:
        kind, text = _MODEL_OPTIONS[name]
        parser.add_argument(f"--{name}", type=kind, default=_CONFIG_DEFAULTS[name], help=text)


def build_parser() -> _Parser:
    parser = _Parser(prog="perfectsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact subset counting (enumeration or DP)")
    p_exact.add_argument("input", help="value file: text, CSV, or JSON")
    p_exact.add_argument("--target", type=finite, required=True)
    p_exact.add_argument("--relation", choices=RELATIONS, required=True)
    p_exact.add_argument("--tolerance", type=float, default=0.0,
                         help="|sum - target| <= tolerance for eq on real data")
    p_exact.add_argument("--engine", choices=("auto", "enumerate", "dp"), default="auto")
    p_exact.set_defaults(func=_cmd_exact)

    p_approx = sub.add_parser("approx", help="probabilistic approximation of the counts")
    p_approx.add_argument("input")
    p_approx.add_argument("--target", type=finite, required=True)
    p_approx.add_argument("--relation", choices=RELATIONS)
    p_approx.add_argument("--method", choices=_CLI_METHODS)
    p_approx.add_argument("--granularity", type=_granularity,
                          help="'auto' (default) or the value spacing, e.g. 1 for integers")
    _add_model_options(p_approx)
    p_approx.add_argument("--exact-small-k", type=int,
                          help="exact enumeration for strata k <= this bound")
    p_approx.add_argument("--k-min", type=int)
    p_approx.add_argument("--k-max", type=int)
    p_approx.add_argument("--diagnostics", action="store_true",
                          help="attach Berry-Esseen terms per k")
    p_approx.set_defaults(func=_cmd_approx, **_CONFIG_DEFAULTS)

    p_eval = sub.add_parser("evaluate", help="JSD of approximations vs the reference, per k")
    p_eval.add_argument("input")
    p_eval.add_argument("--k", type=_int_list, required=True,
                        help="comma-separated subset sizes")
    p_eval.add_argument("--methods", default="normal",
                        help="comma-separated: normal,irwin-hall,chi-square,kde")
    _add_model_options(p_eval)
    p_eval.add_argument("--granularity", type=_granularity, default=None)
    p_eval.add_argument("--bins", type=int, default=60)
    p_eval.add_argument("--ref-samples", type=int, default=DEFAULT_REFERENCE_SAMPLES)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="run a config-driven experiment")
    p_sim.add_argument("--config", required=True, help="JSON experiment config")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, allow_nan=False)
    sys.stdout.write("\n")


def _cmd_exact(args) -> int:
    values = read_input(args.input)
    report = exact_perfect_sum(
        values, args.target, args.relation, args.tolerance, engine=args.engine
    )
    _emit(report.to_json_dict())
    return 0


def _approx_config(args) -> ApproxConfig:
    # the approx options' dests are the config's field names
    options = {f.name: getattr(args, f.name) for f in fields(ApproxConfig)}
    return ApproxConfig(**{**options, "method": args.method.replace("-", "_")})


def _cmd_approx(args) -> int:
    values = read_input(args.input)
    report = approximate_perfect_sum(values, args.target, _approx_config(args))
    _emit(report.to_json_dict())
    return 0


def _cmd_evaluate(args) -> int:
    values = read_input(args.input)
    model = {name: getattr(args, name) for name in _MODEL_FIELDS}
    methods = []
    for name in (tok.strip() for tok in args.methods.split(",")):
        if not name:
            continue
        if name not in _CLI_METHODS:
            raise InputError(f"unknown method {name!r}; options: {', '.join(_CLI_METHODS)}")
        methods.append({"method": name.replace("-", "_"), **model})
    result = divergence_experiment(
        values,
        args.k,
        methods,
        granularity=args.granularity,
        bins=args.bins,
        seed=args.seed,
        ref_samples=args.ref_samples,
    )
    if args.format == "csv":
        result.write_csv(sys.stdout)
    else:
        _emit({"metadata": result.metadata, "rows": result.rows})
    return 0


def _load_sim_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise InputError(f"cannot read config {path}: {err}") from err
    try:
        config = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(config, dict):
        raise InputError(f"{path}: a config must be a JSON object")
    return config


def _set_spec(doc: dict) -> SetSpec:
    try:
        return SetSpec(**doc)
    except TypeError as err:
        raise InputError(f"bad set spec {doc}: {err}") from err


def _cmd_simulate(args) -> int:
    config = _load_sim_config(args.config)
    kind = config.get("experiment")
    if kind not in _SIM_KEYS:
        raise InputError(f"config 'experiment' must be 'error' or 'divergence', got {kind!r}")
    required, optional = _SIM_KEYS[kind]
    _check_keys(config, ("experiment", "name", *required, *optional))
    missing = [key for key in required if key not in config]
    if missing:
        raise InputError(f"missing config key {missing[0]!r}")
    for key in _SIM_OBJECTS:
        if not isinstance(config.get(key, {}), dict):
            raise InputError(f"config {key!r} must be a JSON object")
    for key, (types, what) in _SIM_ARRAYS.items():
        items = config.get(key, [])
        # type(), not isinstance(): a bool, JSON true or false, is no integer here
        if not isinstance(items, list) or any(type(item) not in types for item in items):
            raise InputError(f"config {key!r} must be a JSON array of {what}")
    name = config.get("name", kind)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if kind == "error":
        result = error_experiment(
            _set_spec({"n": 1, **config["family"]}),
            config["n_values"],
            _config_from(config.get("config", {})),
            config["seeds"],
        )
    else:
        # the optional keys are the experiment's keyword arguments
        options = {key: config[key] for key in optional if key in config}
        values = generate_set(_set_spec(config["set"]))
        result = divergence_experiment(values, config["k_values"], config["methods"], **options)

    result.metadata["config_file"] = config
    csv_path = out / f"{name}.csv"
    json_path = out / f"{name}.json"
    result.to_csv(csv_path)
    result.to_json(json_path)
    _emit({"written": [str(csv_path), str(json_path)]})
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleError as err:
        print(f"perfectsum: infeasible: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # InputError included
        print(f"perfectsum: input error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # pragma: no cover - defensive
        print(f"perfectsum: internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
