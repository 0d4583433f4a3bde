"""perfectsum: probabilistic approximation of subset-sum counting.

Given a numeric set, a target, and a relation (=, >=, <=), this package
estimates how many subsets of each size satisfy the sum condition, in
O(n) distribution evaluations, and ships the exact oracles (full
enumeration and dynamic programming) used to validate the estimates.
"""

from .moments import (
    SetStatistics,
    set_statistics,
    membership_probability,
    subset_sum_mean,
    subset_sum_variance,
    pair_covariance,
    pair_product_expectation,
)
from .exact import (
    CountBySize,
    ExactSumPmf,
    InfeasibleError,
    binomial,
    enumerate_counts,
    dp_counts,
    exact_sum_pmf,
)
from .approx import (
    SumDistribution,
    NormalSum,
    IrwinHallSum,
    ChiSquareSum,
    DegenerateSum,
    BerryEsseenTerms,
    normal_sum_approx,
    irwin_hall_sum,
    chi_square_sum,
    berry_esseen_terms,
    probability_query,
)
from .kde import (
    KdeModel,
    sample_subset_sums,
    fit_bandwidth,
    fit_kde,
    kde_density,
    kde_cdf,
)
from .evaluation import DiscretePmf, discretize, js_divergence
from .pipeline import (
    ApproxConfig,
    ApproxReport,
    approximate_perfect_sum,
    exact_perfect_sum,
    auto_granularity,
)
from .simulation import (
    SetSpec,
    ExperimentResult,
    generate_set,
    error_experiment,
    divergence_experiment,
)
from .inputs import InputDocument, InputError, read_input

__version__ = "0.1.0"

__all__ = [
    "SetStatistics",
    "set_statistics",
    "membership_probability",
    "subset_sum_mean",
    "subset_sum_variance",
    "pair_covariance",
    "pair_product_expectation",
    "CountBySize",
    "ExactSumPmf",
    "InfeasibleError",
    "binomial",
    "enumerate_counts",
    "dp_counts",
    "exact_sum_pmf",
    "SumDistribution",
    "NormalSum",
    "IrwinHallSum",
    "ChiSquareSum",
    "DegenerateSum",
    "BerryEsseenTerms",
    "normal_sum_approx",
    "irwin_hall_sum",
    "chi_square_sum",
    "berry_esseen_terms",
    "probability_query",
    "KdeModel",
    "sample_subset_sums",
    "fit_bandwidth",
    "fit_kde",
    "kde_density",
    "kde_cdf",
    "DiscretePmf",
    "discretize",
    "js_divergence",
    "ApproxConfig",
    "ApproxReport",
    "approximate_perfect_sum",
    "exact_perfect_sum",
    "auto_granularity",
    "SetSpec",
    "ExperimentResult",
    "generate_set",
    "error_experiment",
    "divergence_experiment",
    "InputDocument",
    "InputError",
    "read_input",
]
