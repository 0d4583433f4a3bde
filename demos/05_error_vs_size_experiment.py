"""Accuracy grows with set size: the error-vs-n experiment.

For each n, twenty seeded U(0,20) sets are generated, the target is half
the total sum, and the normal-method total is compared to the exact
ground truth. Larger sets put more of the answer into big strata, where
the normal approximation is sharp, so the relative error falls. The
result rows are written as plot-ready CSV/JSON.
"""

import tempfile
from pathlib import Path

from perfectsum import ApproxConfig, SetSpec, error_experiment

family = SetSpec(family="discrete_uniform", n=1, seed=0, low=0, high=20)
config = ApproxConfig(method="normal", relation="ge")
result = error_experiment(family, [14, 18, 22, 26], config, seeds=list(range(20)))

print("n    mean |rel error|   1 SD")
for n in (14, 18, 22, 26):
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
