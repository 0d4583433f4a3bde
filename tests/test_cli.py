"""CLI surface tests: formats, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfectsum import (
    ApproxConfig,
    SetSpec,
    approximate_perfect_sum,
    cli,
    divergence_experiment,
    error_experiment,
    exact_perfect_sum,
    read_input,
)
from perfectsum.cli import main


@pytest.fixture
def vals4(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("1\n2\n3\n4\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExactCommand:
    def test_eq_total(self, capsys, vals4):
        code, out, err = run_cli(capsys, "exact", vals4, "--target", "5", "--relation", "eq")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == "2"

    def test_ge_total(self, capsys, vals4):
        code, out, _ = run_cli(capsys, "exact", vals4, "--target", "5", "--relation", "ge")
        assert code == 0
        assert json.loads(out)["total"] == "9"

    def test_empty_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, err = run_cli(capsys, "exact", str(path), "--target", "1", "--relation", "eq")
        assert code == 1
        assert out == ""
        assert "empty" in err

    def test_malformed_line_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\nouch\n")
        code, _, err = run_cli(capsys, "exact", str(path), "--target", "1", "--relation", "eq")
        assert code == 1
        assert "line 3" in err

    def test_oversize_json_integer_is_input_error(self, capsys, tmp_path):
        # as the same literal in a CSV file: exit 1, not an internal error
        for name, text in (("big.json", "[1, {}]"), ("big.csv", "1\n{}\n")):
            path = tmp_path / name
            path.write_text(text.format("9" * 400))
            code, out, err = run_cli(
                capsys, "approx", str(path), "--target", "1", "--relation", "ge"
            )
            assert code == 1 and out == "", name
            assert "position 2" in err, name

    def test_infeasible_size_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{x}.5\n" for x in range(30)))
        code, _, err = run_cli(capsys, "exact", str(path), "--target", "3", "--relation", "ge")
        assert code == 2
        assert "26" in err

    def test_csv_and_json_inputs(self, capsys, tmp_path):
        csv_path = tmp_path / "vals.csv"
        csv_path.write_text("value\n1\n2\n3\n4\n")
        code, out, _ = run_cli(capsys, "exact", str(csv_path), "--target", "5", "--relation", "eq")
        assert code == 0 and json.loads(out)["total"] == "2"
        json_path = tmp_path / "vals.json"
        json_path.write_text('{"values": [1, 2, 3, 4], "name": "toy"}')
        code, out, _ = run_cli(capsys, "exact", str(json_path), "--target", "5", "--relation", "eq")
        assert code == 0 and json.loads(out)["total"] == "2"

    def test_dp_engine_on_reals_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "reals.txt"
        path.write_text("1.5\n2.5\n")
        code, _, err = run_cli(
            capsys, "exact", str(path), "--target", "4", "--relation", "ge", "--engine", "dp"
        )
        assert code == 1
        assert "integer" in err

    def test_value_past_int64_is_counted_exactly(self, capsys, tmp_path):
        # 1e19 wrapped in the int64 cast of the auto engine's DP: total 0
        path = tmp_path / "big.txt"
        path.write_text("1e19\n1\n2\n")
        code, out, _ = run_cli(capsys, "exact", str(path), "--target", "5", "--relation", "ge")
        assert code == 0
        doc = json.loads(out)
        assert (doc["method"], doc["total"]) == ("dp", "4")
        # float sums of 1e19 with 1, 2 or 3 all round to 1e19; the DP's do not
        code, out, _ = run_cli(capsys, "exact", str(path), "--target", "1e19", "--relation", "eq")
        assert code == 0 and json.loads(out)["total"] == "1"

    def test_dp_engine_rejects_tolerance(self, capsys, vals4):
        code, out, err = run_cli(
            capsys, "exact", vals4, "--target", "5", "--relation", "eq",
            "--engine", "dp", "--tolerance", "0.5",
        )
        assert code == 1
        assert out == ""
        assert "tolerance must be 0" in err


class TestApproxCommand:
    def test_normal_close_to_exact(self, capsys, vals4):
        code, out, _ = run_cli(
            capsys, "approx", vals4, "--target", "5", "--relation", "ge", "--method", "normal"
        )
        assert code == 0
        assert abs(int(json.loads(out)["total"]) - 9) <= 2

    def test_counts_are_strings(self, capsys, vals4):
        _, out, _ = run_cli(capsys, "approx", vals4, "--target", "5", "--relation", "ge")
        doc = json.loads(out)
        assert all(isinstance(c, str) for c in doc["per_k"]["count"])

    def test_kde_rerun_byte_identical(self, capsys, vals4):
        args = ("approx", vals4, "--target", "5", "--relation", "ge",
                "--method", "kde", "--seed", "7", "--samples", "500")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_diagnostics_flag(self, capsys, vals4):
        _, out, _ = run_cli(
            capsys, "approx", vals4, "--target", "5", "--relation", "ge", "--diagnostics"
        )
        doc = json.loads(out)
        assert "diagnostics" in doc
        assert len(doc["diagnostics"]["k"]) == 4

    def test_bad_method_usage_error(self, capsys, vals4):
        code, _, err = run_cli(capsys, "approx", vals4, "--target", "5", "--method", "gamma")
        assert code == 1
        assert "invalid choice" in err

    def test_irwin_hall_without_bounds(self, capsys, vals4):
        code, _, err = run_cli(
            capsys, "approx", vals4, "--target", "5", "--relation", "ge",
            "--method", "irwin-hall",
        )
        assert code == 1
        assert "low and high" in err

    @pytest.mark.parametrize("text, echoed", [("auto", 1.0), ("0.5", 0.5)])
    def test_granularity_option(self, capsys, vals4, text, echoed):
        code, out, _ = run_cli(
            capsys, "approx", vals4, "--target", "5", "--relation", "eq", "--granularity", text
        )
        assert code == 0
        assert json.loads(out)["granularity"] == echoed

    @pytest.mark.parametrize(
        "text, message", [("-1", "granularity must be >= 0"), ("abc", "'auto' or a number")]
    )
    def test_bad_granularity_is_input_error(self, capsys, vals4, text, message):
        code, out, err = run_cli(
            capsys, "approx", vals4, "--target", "5", f"--granularity={text}"
        )
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("model, family", [
        (["--method", "irwin-hall", "--low", "0", "--high", "1e155"], "Irwin-Hall"),
        (["--method", "chi-square", "--df", "1e308"], "chi-square"),
    ])
    def test_family_variance_past_the_float_range(self, capsys, tmp_path, model, family):
        # irwin-hall exited 3 on an OverflowError; chi-square reported 31 of the 22 subsets
        path = tmp_path / "five.txt"
        path.write_text("1\n2\n3\n4\n5\n")
        code, out, err = run_cli(
            capsys, "approx", str(path), "--target", "6", "--relation", "ge", *model
        )
        assert code == 1
        assert out == ""
        assert f"input error: the {family} variance at k = 4 must be >= 0 and finite" in err

    def test_eq_on_integers_past_2_62_has_a_lattice(self, capsys, tmp_path):
        # the differences 2^62 - 1 fit int64, so the default granularity is their gcd
        path = tmp_path / "big.txt"
        path.write_text("4611686018427387904\n1\n1\n")
        code, out, _ = run_cli(
            capsys, "approx", str(path), "--target", "4611686018427387904", "--relation", "eq"
        )
        assert code == 0 and json.loads(out)["granularity"] > 0


class TestEvaluateCommand:
    def test_json_format(self, capsys, vals4):
        code, out, _ = run_cli(capsys, "evaluate", vals4, "--k", "1,2", "--methods", "normal")
        assert code == 0
        doc = json.loads(out)
        assert {r["k"] for r in doc["rows"]} == {1, 2}
        assert doc["metadata"]["experiment"] == "divergence"

    def test_csv_format_schema(self, capsys, vals4):
        code, out, _ = run_cli(
            capsys, "evaluate", vals4, "--k", "1", "--methods", "normal,kde",
            "--format", "csv", "--samples", "300",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,method,metric,value,seed"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "4" and cells[1] == "1" and cells[3] == "jsd"

    def test_csv_format_matches_experiment_csv_file(self, capsys, vals4, tmp_path):
        code, out, _ = run_cli(
            capsys, "evaluate", vals4, "--k", "1,3", "--methods", "normal,kde",
            "--format", "csv", "--samples", "300",
        )
        assert code == 0
        methods = [{"method": m, "samples": 300} for m in ("normal", "kde")]
        path = tmp_path / "div.csv"
        divergence_experiment(read_input(vals4), [1, 3], methods).to_csv(path)
        assert out == path.read_bytes().decode()

    @pytest.mark.parametrize("option", ["--bins", "--ref-samples"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_count_options_checked(self, capsys, tmp_path, option, value):
        # a real set bins its reference: --bins 0 divided by zero, -3 gave g = 1e-12
        path = tmp_path / "reals.txt"
        path.write_text("0.5\n1.25\n2.0\n3.5\n")
        code, out, err = run_cli(capsys, "evaluate", str(path), "--k", "2", f"{option}={value}")
        assert code == 1
        assert out == ""
        name = option[2:].replace("-", "_")
        assert f"input error: {name} must be an integer >= 1, got {value}" in err

    def test_unknown_method_rejected(self, capsys, vals4):
        code, _, err = run_cli(capsys, "evaluate", vals4, "--k", "1", "--methods", "pareto")
        assert code == 1
        assert "unknown method" in err


class TestSimulateCommand:
    def test_error_experiment_config(self, capsys, tmp_path):
        config = {
            "experiment": "error",
            "name": "trend",
            "family": {"family": "discrete_uniform", "low": 0, "high": 20},
            "n_values": [10, 12],
            "seeds": [0, 1],
            "config": {"method": "normal", "relation": "ge"},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        written = json.loads(out)["written"]
        assert len(written) == 2
        result = json.loads((out_dir / "trend.json").read_text())
        assert result["metadata"]["config_file"] == config
        csv_text = (out_dir / "trend.csv").read_text()
        assert csv_text.splitlines()[0] == "n,k,method,metric,value,seed"

    def test_rerun_reproducible(self, capsys, tmp_path):
        config = {
            "experiment": "divergence",
            "name": "div",
            "set": {"family": "discrete_uniform", "n": 16, "seed": 3, "low": 0, "high": 20},
            "k_values": [1, 2],
            "methods": ["normal", {"method": "kde", "samples": 400}],
            "seed": 5,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        blobs = []
        for tag in ("r1", "r2"):
            out_dir = tmp_path / tag
            code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
            assert code == 0
            blobs.append(
                ((out_dir / "div.csv").read_bytes(), (out_dir / "div.json").read_bytes())
            )
        assert blobs[0] == blobs[1]

    def test_unknown_config_key_is_input_error(self, capsys, tmp_path):
        config = {
            "experiment": "error",
            "family": {"family": "discrete_uniform", "low": 0, "high": 20},
            "n_values": [6],
            "seeds": [0],
            "config": {"methd": "normal"},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert "unknown config key 'methd'" in err

    def test_bad_experiment_kind(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"experiment": "nope"}')
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "error' or 'divergence" in err

    @pytest.mark.parametrize(
        "kind, extra, message",
        [
            ("error", {"bns": 5}, "unknown config key 'bns'; options: experiment, name,"),
            ("divergence", {"sead": 9}, "unknown config key 'sead'; options: experiment, name,"),
            ("error", {"n_values": None}, "missing config key 'n_values'"),
            ("divergence", {"set": None}, "missing config key 'set'"),
            ("error", {"family": [1]}, "config 'family' must be a JSON object"),
            ("divergence", {"k_values": 3}, "config 'k_values' must be a JSON array"),
        ],
        ids=["unknown-error", "unknown-divergence", "missing-error", "missing-divergence",
             "family-not-object", "k-values-not-array"],
    )
    def test_top_level_keys_checked(self, capsys, tmp_path, kind, extra, message):
        configs = {
            "error": {"family": {"family": "discrete_uniform", "low": 0, "high": 20},
                      "n_values": [6], "seeds": [0]},
            "divergence": {"set": {"family": "discrete_uniform", "n": 6}, "k_values": [1],
                           "methods": ["normal"]},
        }
        # a key set to None is left out
        config = {"experiment": kind, **configs[kind], **extra}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "kind, extra, message",
        [
            ("divergence", {"methods": [5]}, "'methods' must be a JSON array of method names"),
            ("divergence", {"k_values": ["a"]}, "'k_values' must be a JSON array of integers"),
            ("error", {"n_values": ["a"]}, "'n_values' must be a JSON array of integers"),
            ("error", {"seeds": ["x"]}, "'seeds' must be a JSON array of integers"),
        ],
        ids=["methods", "k-values", "n-values", "seeds"],
    )
    def test_array_elements_checked(self, capsys, tmp_path, kind, extra, message):
        configs = {
            "error": {"family": {"family": "discrete_uniform", "low": 0, "high": 20},
                      "n_values": [6], "seeds": [0]},
            "divergence": {"set": {"family": "discrete_uniform", "n": 6}, "k_values": [1],
                           "methods": ["normal"]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": kind, **configs[kind], **extra}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert f"input error: config {message}" in err

    @pytest.mark.parametrize("family", ["uniform", "discrete_uniform"])
    @pytest.mark.parametrize("key", ["bins", "ref_samples"])
    @pytest.mark.parametrize("value", ["x", True, 0, 2.5], ids=["str", "bool", "zero", "real"])
    def test_count_keys_checked(self, capsys, tmp_path, family, key, value):
        # integer sets ignore both keys, and a real set failed inside the experiment
        config = {"experiment": "divergence", "set": {"family": family, "n": 6},
                  "k_values": [2], "methods": ["normal"], key: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert f"input error: {key} must be an integer >= 1, got {value!r}" in err

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"family": "uniform", "high": float("inf")}, "high"),
            ({"family": "discrete_uniform", "high": float("inf")}, "high"),
            ({"family": "uniform", "high": 10**400}, "high"),
            ({"family": "uniform", "low": "0"}, "low"),
            ({"family": "chi_square", "df": float("nan")}, "df"),
            ({"family": "chi_square", "df": 0}, "df"),
            ({"family": "uniform", "n": 6.0}, "n"),
            ({"family": "uniform", "n": True}, "n"),
            ({"family": "uniform", "seed": 1.5}, "seed"),
            ({"family": "uniform", "low": 2, "high": 2}, "low < high"),
            ({"family": "discrete_uniform", "low": 3, "high": 2}, "low <= high"),
            ({"family": "custom_file"}, "path"),
            ({"family": "discrete_uniform", "low": 0.5, "high": 2.5}, "integer low"),
            ({"family": "discrete_uniform", "high": 2.5}, "integer high"),
        ],
    )
    def test_set_spec_fields_checked(self, capsys, tmp_path, fields, name):
        config = {"experiment": "divergence", "set": {"n": 6, **fields}, "k_values": [2],
                  "methods": ["normal"]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert "input error: " in err and name in err

    @pytest.mark.parametrize(
        "fields",
        [{"low": "0"}, {"high": -(10**400)}, {"granularity": "1"}, {"df": True}, {"k_min": "2"},
         {"k_max": 3.0},
         {"exact_small_k": 1.0}, {"method": "kde", "samples": 2.5}, {"seed": True},
         {"diagnostics": "yes"}, {"diagnostics": 1}],
    )
    def test_config_field_types_checked(self, capsys, tmp_path, fields):
        config = {"experiment": "error",
                  "family": {"family": "discrete_uniform", "low": 0, "high": 20},
                  "n_values": [6], "seeds": [0], "config": fields}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        (name,) = [key for key in fields if key != "method"]
        assert f"input error: {name} must be " in err

    def test_config_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert "a config must be a JSON object" in err

    def test_custom_file_set_read_like_any_input(self, capsys, tmp_path):
        config = {
            "experiment": "divergence",
            "set": {"family": "custom_file", "n": 4, "path": str(tmp_path / "vals.csv")},
            "k_values": [2],
            "methods": ["normal"],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "cannot read" in err
        (tmp_path / "vals.csv").write_text("value\n1\n2\n3\n5\n")
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "exact", "/nonexistent", "--target", "1", "--relation", "eq")
        assert code == 1

    @pytest.mark.parametrize("command", ["approx", "evaluate", "simulate"])
    def test_overflowing_set_statistics_are_input_errors(self, capsys, tmp_path, command):
        # the sum passes the float range: approx counted 1 of the 7 subsets
        path = tmp_path / "huge.txt"
        path.write_text("1e308\n1e308\n5\n")
        cfg = tmp_path / "cfg.json"
        config = {"experiment": "divergence", "k_values": [2], "methods": ["normal"],
                  "set": {"family": "custom_file", "n": 3, "path": str(path)}}
        cfg.write_text(json.dumps(config))
        argv = {"approx": [str(path), "--target", "0", "--relation", "ge"],
                "evaluate": [str(path), "--k", "2"],
                "simulate": ["--config", str(cfg), "--out", str(tmp_path / "out")]}[command]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert out == ""
        assert "input error: set mean must be finite" in err

    @pytest.mark.parametrize("command", ["exact", "approx"])
    @pytest.mark.parametrize("target", ["nan", "inf", "-inf", "1e400"])
    def test_target_must_be_finite(self, capsys, vals4, command, target):
        code, out, err = run_cli(capsys, command, vals4, f"--target={target}", "--relation", "ge")
        assert code == 1
        assert out == ""
        assert f"argument --target: must be finite, got '{target}'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--target", "5", "--granularity", "nan"],
            ["approx", "--target", "5", "--granularity", "inf"],
            ["approx", "--target", "5", "--method", "normal", "--df", "inf"],
            ["approx", "--target", "5", "--low=-inf"],
            ["exact", "--target", "5", "--relation", "eq", "--tolerance", "nan"],
            ["exact", "--target", "5", "--relation", "eq", "--tolerance", "inf"],
            ["evaluate", "--k", "2", "--granularity", "nan"],
        ],
    )
    def test_non_finite_float_options_fail_before_any_output(self, capsys, vals4, argv):
        # meta echoes every option, so these used to cut a JSON document short
        code, out, err = run_cli(capsys, argv[0], vals4, *argv[1:])
        assert code == 1
        assert out == ""
        assert "input error" in err

    def test_closed_stdout_is_no_error(self, tmp_path):
        # the report holds about 1.2 MB of counts, so the writer fills the pipe
        # and meets its closed end; this exited 3 with "internal error:
        # [Errno 32] Broken pipe"
        values = np.random.default_rng(0).integers(0, 21, 3000)
        path = tmp_path / "mid.txt"
        path.write_text("".join(f"{v}\n" for v in values.tolist()))
        argv = [sys.executable, "-m", "perfectsum", "approx", str(path),
                "--target", str(int(values.sum()) // 2), "--relation", "ge"]
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.Popen(argv, cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert len(head) == 100
        assert (proc.wait(timeout=120), err) == (0, b"")

    def test_internal_key_error_is_exit_3(self, capsys, vals4, monkeypatch):
        def broken(*args):
            raise KeyError("stratum")

        monkeypatch.setattr(cli, "approximate_perfect_sum", broken)
        code, out, err = run_cli(capsys, "approx", vals4, "--target", "5")
        assert code == 3
        assert out == ""
        assert "internal error" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0


def _dumped(doc, stream):
    json.dump(doc, stream, indent=2, allow_nan=False)
    stream.write("\n")


def _emitted(doc, stream):
    with contextlib.redirect_stdout(stream):
        cli._emit(doc)


def _outcome(write, doc):
    """The text ``write`` puts on a stream, and the type and message of what it raises."""
    stream = io.StringIO()
    try:
        write(doc, stream)
    except (TypeError, ValueError) as err:
        return stream.getvalue(), type(err), str(err)
    return stream.getvalue(), None, None


class _Chunks(io.StringIO):
    """A stream that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


def _mid_report(n):
    values = np.random.default_rng(1).integers(0, 21, n)
    target = float(round(int(values.sum()) / 2))
    return approximate_perfect_sum(values, target, ApproxConfig(relation="ge", method="normal"))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text() | st.from_regex(r"[0-9]+", fullmatch=True),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestEmit:
    """``cli._emit`` writes what ``json.dump(doc, indent=2, allow_nan=False)`` writes."""

    def test_reports_and_documents(self, tmp_path):
        values = [1, 2, 3, 4, 5]
        approx = approximate_perfect_sum(
            values, 7, ApproxConfig(relation="ge", diagnostics=True)
        ).to_json_dict()
        assert "inf" in approx["diagnostics"]["delta1"]
        evaluate = divergence_experiment(values, [1, 2], ["normal"])
        simulate = error_experiment(
            SetSpec(family="discrete_uniform", n=1, low=0, high=20),
            [8, 10], ApproxConfig(relation="ge"), [0, 1],
        )
        docs = [
            approx,
            _mid_report(300).to_json_dict(),
            exact_perfect_sum(values, 7, "ge").to_json_dict(),
            {"metadata": evaluate.metadata, "rows": evaluate.rows},
            {"metadata": simulate.metadata, "rows": simulate.rows},
            {"written": [str(tmp_path / "é" / "div.csv"), str(tmp_path / "é" / "div.json")]},
        ]
        for doc in docs:
            want = _outcome(_dumped, doc)
            assert want[1:] == (None, None)
            assert _outcome(_emitted, doc) == want

    def test_strings_keys_and_scalars(self):
        strings = ["", "٣", "12\n", '"', "é", "\x01", "0", "007", "inf", "nan", "1e5", " 1"]
        docs = [
            strings,
            {s: s for s in strings},
            {"a": {}, "b": [], "c": [[], {}, [{}]], "d": {"e": {"f": []}}},
            {},
            [],
            (1, ("2", [True, False, None])),
            {"x": -0.0, "y": 10**30, "z": -(10**30), "w": 1e300, "v": 5e-324},
            "12",
            7,
            None,
        ]
        for doc in docs:
            want = _outcome(_dumped, doc)
            assert want[1:] == (None, None)
            assert _outcome(_emitted, doc) == want

    def test_errors_match_json(self):
        circular = []
        circular.append(circular)
        docs = [
            {"p": [0.5, float("nan")]},
            {"p": float("inf")},
            [float("-inf")],
            {"count": {1, 2}},
            [object()],
            {(1, 2): "tuple key"},
            circular,
        ]
        for doc in docs:
            want = _outcome(_dumped, doc)
            assert want[1] is not None
            assert _outcome(_emitted, doc) == want

    @given(_JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value(self, doc):
        assert _outcome(_emitted, doc) == _outcome(_dumped, doc)

    def test_one_write_per_chunk(self):
        # a writer that joins a column of counts before writing raises the
        # approx CLI's peak memory; every count is written as its own chunk
        doc = _mid_report(6000).to_json_dict()
        stream = _Chunks()
        _emitted(doc, stream)
        assert stream.getvalue() == json.dumps(doc, indent=2) + "\n"
        counts = doc["per_k"]["count"]
        assert len(stream.lengths) > len(counts) > 1000
        longest = max(len(s) for s in [doc["total"], *counts])
        # ",\n" and the indent of a list inside per_k, then the quoted digits
        assert max(stream.lengths) <= len(",\n" + " " * 6) + longest + 2
