"""Accuracy grows with set size at the half-sum target: the error-vs-n experiment.

For each n, twenty seeded U(0,20) integer sets are generated, the target
is half the total sum, and the normal-method total is compared to the
exact ground truth, which the (k, sum) DP supplies for integer sets at
any n here, past the n = 26 enumeration cap. At the half-sum target the
answer sits in the big central strata, where the normal approximation
is sharp, so the relative error falls as n grows. That is the paper's
regime, not a general law: at a target a fixed fraction of the sum away
from the mean (0.6 or 0.7 of the sum, a large deviation) the error grows
with n instead (see ROADMAP item 8). The result rows are written as
plot-ready CSV/JSON.
"""

import tempfile
from pathlib import Path

from perfectsum import ApproxConfig, SetSpec, error_experiment

SIZES = (14, 26, 50, 100)

family = SetSpec(family="discrete_uniform", n=1, seed=0, low=0, high=20)
config = ApproxConfig(method="normal", relation="ge")
result = error_experiment(family, SIZES, config, seeds=list(range(20)))

print("n    mean |rel error|   1 SD")
for n in SIZES:
    mean = result.values(metric="mean_abs_rel_error", n=n)[0]
    sd = result.values(metric="sd_abs_rel_error", n=n)[0]
    print(f"{n:<4} {mean:21.2e} {sd:.2e}")

# a throwaway directory: the demo removes what it writes
with tempfile.TemporaryDirectory(prefix="perfectsum_") as tmp:
    out = Path(tmp)
    result.to_csv(out / "error_trend.csv")
    result.to_json(out / "error_trend.json")
    lines = (out / "error_trend.csv").read_text().splitlines()
print(f"\n{len(lines) - 1} rows written as CSV and JSON; the CSV starts:")
print("\n".join(lines[:3]))
print("every row carries its seed; the metadata block echoes the full config")
