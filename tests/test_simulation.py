"""Experiment-harness tests: generation, error curves, divergence tables."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from perfectsum import (
    ApproxConfig,
    InfeasibleError,
    InputError,
    SetSpec,
    approximate_perfect_sum,
    divergence_experiment,
    error_experiment,
    exact_perfect_sum,
    generate_set,
)
from perfectsum import pipeline, simulation


class TestGenerateSet:
    def test_discrete_uniform_range_and_integrality(self):
        spec = SetSpec(family="discrete_uniform", n=26, seed=7, low=0, high=20)
        values = generate_set(spec)
        assert values.size == 26
        assert np.array_equal(values, np.rint(values))
        assert values.min() >= 0 and values.max() <= 20

    def test_discrete_uniform_bounds_must_be_integers(self):
        for low, high, name in ((0.5, 2.5, "low"), (0, 2.5, "high"), (-1, 1e-9, "high")):
            with pytest.raises(ValueError, match=f"needs an integer {name}, got"):
                SetSpec(family="discrete_uniform", n=1000, low=low, high=high)
        # an integral float is the integer it equals
        floats = generate_set(SetSpec(family="discrete_uniform", n=500, seed=4, low=0.0, high=20.0))
        ints = generate_set(SetSpec(family="discrete_uniform", n=500, seed=4, low=0, high=20))
        assert np.array_equal(floats, ints)
        assert floats.min() == 0 and floats.max() == 20

    def test_chi_square_sample_mean(self):
        spec = SetSpec(family="chi_square", n=20_000, seed=3, df=3)
        values = generate_set(spec)
        # mean df, variance 2*df; CLT tolerance on the sample mean
        assert abs(values.mean() - 3) <= 3 * math.sqrt(2 * 3 / 20_000) * 1.5

    def test_uniform_bounds(self):
        values = generate_set(SetSpec(family="uniform", n=500, seed=1, low=-2, high=5))
        assert values.min() >= -2 and values.max() <= 5

    def test_custom_file_verbatim(self, tmp_path):
        path = tmp_path / "vals.txt"
        path.write_text("1.5\n-2\n42\n")
        values = generate_set(SetSpec(family="custom_file", n=3, path=str(path)))
        assert values.tolist() == [1.5, -2.0, 42.0]

    def test_custom_file_takes_every_input_format(self, tmp_path):
        docs = {"vals.csv": "value\n1.5\n-2\n42\n", "vals.json": '{"values": [1.5, -2, 42]}'}
        for name, text in docs.items():
            path = tmp_path / name
            path.write_text(text)
            values = generate_set(SetSpec(family="custom_file", n=3, path=str(path)))
            assert values.tolist() == [1.5, -2.0, 42.0]
        with pytest.raises(InputError, match="cannot read"):
            generate_set(SetSpec(family="custom_file", n=3, path=str(tmp_path / "absent.txt")))

    def test_custom_file_must_hold_n_values(self, tmp_path):
        # rows labelled n = 3 and n = 20 were both computed on the file's 8 values
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{v}\n" for v in range(1, 9)))
        family = SetSpec(family="custom_file", n=1, path=str(path))
        for n in (3, 20):
            with pytest.raises(ValueError, match=f"holds 8 values; its set spec says n = {n}"):
                generate_set(replace(family, n=n))
            with pytest.raises(ValueError, match="holds 8 values"):
                error_experiment(family, [8, n], ApproxConfig(relation="ge"), seeds=[0])
        assert generate_set(replace(family, n=8)).tolist() == list(range(1, 9))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            SetSpec(family="zipf", n=5)

    def test_deterministic(self):
        spec = SetSpec(family="uniform", n=50, seed=11, low=0, high=1)
        assert np.array_equal(generate_set(spec), generate_set(spec))


class TestErrorExperiment:
    FAMILY = SetSpec(family="discrete_uniform", n=1, seed=0, low=0, high=20)

    def test_exact_hybrid_has_zero_error(self):
        config = ApproxConfig(relation="ge", exact_small_k=12)
        result = error_experiment(self.FAMILY, [12], config, seeds=[4])
        (value,) = result.values(metric="abs_rel_error")
        assert value == 0.0

    def test_real_valued_target_is_half_the_total(self):
        # an integer-valued set rounds the half total; a real-valued one keeps it
        family = SetSpec(family="uniform", n=1, low=0.0, high=1.0)
        config = ApproxConfig(relation="ge")
        result = error_experiment(family, [10], config, seeds=[3])
        values = generate_set(replace(family, n=10, seed=3))
        target = 0.5 * values.sum()
        exact = exact_perfect_sum(values, target, "ge").total
        approx = approximate_perfect_sum(values, target, config).total
        (value,) = result.values(metric="abs_rel_error")
        assert value == abs(approx - exact) / max(exact, 1)

    def test_empty_seeds_empty_result(self):
        result = error_experiment(self.FAMILY, [10], ApproxConfig(), seeds=[])
        assert result.rows == []

    def test_infeasible_n_fails_before_work(self):
        # a real family's ground truth is enumerated, and the enumerator names its cap
        uniform = SetSpec(family="uniform", n=1, low=0.0, high=1.0)
        with pytest.raises(InfeasibleError, match="cap"):
            error_experiment(uniform, [40], ApproxConfig(relation="ge"), seeds=[0])

    def test_integer_family_past_the_enumeration_cap(self):
        # the DP referees integer families at any n whose table fits its budget
        result = error_experiment(self.FAMILY, [40], ApproxConfig(relation="ge"), seeds=[0])
        values = generate_set(replace(self.FAMILY, n=40, seed=0))
        target = float(round(0.5 * values.sum()))
        exact = exact_perfect_sum(values, target, "ge")
        assert exact.meta["method"] == "dp"
        approx = approximate_perfect_sum(values, target, ApproxConfig(relation="ge")).total
        (value,) = result.values(metric="abs_rel_error")
        assert value == abs(approx - exact.total) / max(exact.total, 1)

    def test_rows_and_aggregates(self):
        config = ApproxConfig(relation="ge")
        result = error_experiment(self.FAMILY, [10, 12], config, seeds=[0, 1, 2])
        points = [r for r in result.rows if r["metric"] == "abs_rel_error"]
        assert len(points) == 6
        assert all(r["seed"] is not None for r in points)
        means = [r for r in result.rows if r["metric"] == "mean_abs_rel_error"]
        sds = [r for r in result.rows if r["metric"] == "sd_abs_rel_error"]
        assert len(means) == 2 and len(sds) == 2
        for n in (10, 12):
            vals = result.values(metric="abs_rel_error", n=n)
            (mean_row,) = result.values(metric="mean_abs_rel_error", n=n)
            assert mean_row == pytest.approx(np.mean(vals))

    def test_metadata_echo(self):
        result = error_experiment(self.FAMILY, [8], ApproxConfig(), seeds=[0])
        assert result.metadata["experiment"] == "error"
        assert result.metadata["family"]["family"] == "discrete_uniform"
        assert result.metadata["target_rule"] == "half_total_sum"
        assert result.metadata["config"]["method"] == "normal"
        assert "cap" not in result.metadata


class TestDivergenceExperiment:
    def test_uniform_set_k4_beats_k1(self):
        values = generate_set(SetSpec(family="discrete_uniform", n=26, seed=5, low=0, high=20))
        result = divergence_experiment(values, [1, 4], ["normal"])
        (jsd1,) = result.values(k=1, method="normal")
        (jsd4,) = result.values(k=4, method="normal")
        assert jsd4 < jsd1

    def test_infeasible_k_listed(self):
        with pytest.raises(ValueError, match=r"subset size k=9 out of range 1\.\.3"):
            divergence_experiment([1, 2, 3], [1, 9], ["normal"])

    @pytest.mark.parametrize("k", [2.5, True, "2", 0])
    def test_subset_sizes_must_be_integers(self, k):
        with pytest.raises(ValueError, match=f"k must be an integer >= 1, got {k!r}"):
            divergence_experiment([1, 2, 3], [1, k], ["normal"])

    def test_method_dicts(self):
        values = generate_set(SetSpec(family="chi_square", n=100, seed=2, df=3))
        result = divergence_experiment(
            values, [2], [{"method": "chi_square", "df": 3}, "normal"], seed=1
        )
        assert {r["method"] for r in result.rows} == {"chi_square", "normal"}
        assert result.metadata["reference"]["kind"]["2"] == "exact"

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'dff'"):
            divergence_experiment([1, 2, 3], [2], [{"method": "chi_square", "dff": 3}])

    def test_spec_keys_outside_the_model_rejected(self):
        # granularity and k_min are config fields, but not a stratum model's
        for key, value in (("granularity", -5), ("k_min", 99), ("diagnostics", True)):
            spec = {"method": "normal", key: value}
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                divergence_experiment([1, 2, 3, 4, 5, 6], [2], [spec])

    def test_kde_spec_with_one_sample_fails_before_any_reference(self, monkeypatch):
        def no_reference(*args, **kwargs):
            raise AssertionError("reference pmf built for an invalid spec")

        monkeypatch.setattr(simulation, "exact_sum_pmf", no_reference)
        with pytest.raises(ValueError, match="need at least 2 samples for a bandwidth, got m=1"):
            divergence_experiment([1, 2, 3], [2], [{"method": "kde", "samples": 1}])

    def test_spec_without_family_params_fails_before_any_reference(self, monkeypatch):
        def no_reference(*args, **kwargs):
            raise AssertionError("reference pmf built for an invalid spec")

        monkeypatch.setattr(simulation, "exact_sum_pmf", no_reference)
        with pytest.raises(ValueError, match="irwin_hall method needs low and high bounds"):
            divergence_experiment([1, 2, 3], [1, 2], ["normal", {"method": "irwin_hall"}])

    @pytest.mark.parametrize("granularity", [math.nan, math.inf, -1.0])
    def test_bad_granularity_fails_before_any_reference(self, monkeypatch, granularity):
        # NaN and -1 used to fall through to the bins rule, inf crashed
        def no_reference(*args, **kwargs):
            raise AssertionError("reference pmf built for an invalid granularity")

        monkeypatch.setattr(simulation, "exact_sum_pmf", no_reference)
        with pytest.raises(ValueError, match="granularity must be >= 0 and finite"):
            divergence_experiment([1, 2, 3], [2], ["normal"], granularity=granularity)

    def test_point_mass_strata_match_the_reference(self):
        # k = n, and every size of a constant set, is one sum: each method's
        # model puts all its mass in the reference's one bin
        methods = ["normal", {"method": "irwin_hall", "low": 0, "high": 20},
                   {"method": "chi_square", "df": 3}, {"method": "kde", "samples": 50}]
        ints = generate_set(SetSpec(family="discrete_uniform", n=12, seed=3, low=0, high=20))
        reals = generate_set(SetSpec(family="chi_square", n=12, seed=3, df=3))
        # k = 3 of {1, 3, 5} sums to 9, off the even grid that anchors at 0
        cases = [(ints, [12], methods), (reals, [12], methods),
                 (np.full(6, 2.5), [1, 3, 5], ["normal"]), (np.array([1, 3, 5]), [3], methods)]
        for values, ks, specs in cases:
            result = divergence_experiment(values, ks, specs, seed=1)
            assert len(result.rows) == len(ks) * len(specs)
            assert all(row["value"] == 0.0 for row in result.rows)
            assert set(result.metadata["reference"]["kind"].values()) == {"exact"}

    def test_shifted_integer_sets_have_equal_divergences(self):
        # the size-k sums of an odd set lie on k + 2Z; both grids follow them
        odd = list(range(1, 16, 2))
        expected = divergence_experiment(odd, [1, 3], ["normal", "kde"]).rows
        for shift in (-4, -1, 2):
            shifted = divergence_experiment([x + shift for x in odd], [1, 3], ["normal", "kde"])
            assert [r["value"] for r in shifted.rows] == [r["value"] for r in expected]

    def test_sampled_reference_for_large_real_sets(self):
        values = generate_set(SetSpec(family="chi_square", n=3000, seed=2, df=3))
        result = divergence_experiment(
            values, [3], ["normal"], seed=1, ref_samples=20_000
        )
        assert result.metadata["reference"]["kind"]["3"] == "sampled"
        (jsd,) = result.values(k=3, method="normal")
        assert 0 <= jsd <= math.log(2)

    def test_sampled_reference_shares_no_draws_with_the_kde(self, monkeypatch):
        # the KDE spec sets no seed of its own, so it samples under the experiment's
        values = generate_set(SetSpec(family="chi_square", n=60, seed=2, df=3))
        drawn = {}
        for module in (pipeline, simulation):
            def keep(*args, _module=module, _draw=module.sample_subset_sums):
                drawn[_module.__name__] = _draw(*args)
                return drawn[_module.__name__]

            monkeypatch.setattr(module, "sample_subset_sums", keep)
        result = divergence_experiment(
            values, [10], [{"method": "kde", "samples": 500}], seed=5, ref_samples=2000
        )
        assert result.metadata["reference"]["kind"]["10"] == "sampled"
        kde, reference = drawn["perfectsum.pipeline"], drawn["perfectsum.simulation"]
        assert (kde.size, reference.size) == (500, 2000)
        assert np.intersect1d(kde, reference).size == 0

    def test_gapped_set_kde_beats_normal(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.uniform(0, 10, 10), rng.uniform(1000, 1010, 10)])
        result = divergence_experiment(
            values, [2], ["normal", {"method": "kde", "samples": 4000}], seed=3
        )
        (jsd_n,) = result.values(k=2, method="normal")
        (jsd_k,) = result.values(k=2, method="kde")
        assert jsd_k < jsd_n

    def test_determinism_byte_identical_files(self, tmp_path):
        values = generate_set(SetSpec(family="discrete_uniform", n=20, seed=9, low=0, high=20))
        paths = []
        for tag in ("a", "b"):
            result = divergence_experiment(values, [1, 3], ["normal", "kde"], seed=4)
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            result.to_csv(csv_path)
            result.to_json(json_path)
            paths.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_rows_sorted_canonically(self):
        values = generate_set(SetSpec(family="discrete_uniform", n=15, seed=1, low=0, high=20))
        result = divergence_experiment(values, [3, 1, 2], ["normal"])
        ks = [r["k"] for r in result.rows]
        assert ks == sorted(ks)
