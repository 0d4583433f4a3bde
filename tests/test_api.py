"""The package's public names: one list per module, re-exported as one set."""

import subprocess
import sys
from pathlib import Path

import perfectsum
from perfectsum import approx, evaluation, exact, inputs, kde, moments, pipeline, simulation

MODULES = (moments, exact, approx, kde, evaluation, pipeline, simulation, inputs)

PUBLIC = {
    # moments
    "SetStatistics", "set_statistics", "membership_probability", "subset_sum_mean",
    "subset_sum_variance", "pair_covariance", "pair_product_expectation",
    # exact
    "InfeasibleError", "CountBySize", "binomial", "enumerate_counts", "dp_counts",
    "exact_sum_pmf",
    # approx
    "NormalSum", "IrwinHallSum", "ChiSquareSum", "BerryEsseenTerms", "normal_sum_approx",
    "berry_esseen_terms", "probability_query",
    # kde
    "KdeModel", "sample_subset_sums", "fit_bandwidth", "fit_kde",
    # evaluation
    "DiscretePmf", "discretize", "js_divergence",
    # pipeline
    "ApproxConfig", "ApproxReport", "approximate_perfect_sum", "exact_perfect_sum",
    "auto_granularity",
    # simulation
    "SetSpec", "ExperimentResult", "generate_set", "error_experiment",
    "divergence_experiment",
    # inputs
    "InputError", "read_input",
}


def test_package_exports_the_expected_names():
    assert len(PUBLIC) == 39
    assert sorted(perfectsum.__all__) == sorted(PUBLIC)


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(perfectsum, name) is getattr(module, name), name


def test_module_export_lists_are_disjoint():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_import_does_not_load_the_cli():
    src = Path(perfectsum.__file__).resolve().parent.parent
    code = "import sys, perfectsum; sys.exit('perfectsum.cli' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
