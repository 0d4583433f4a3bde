"""Which approximating family fits? Judge with Jensen-Shannon divergence.

When the set is an i.i.d. sample of a known continuous law, summing that
law (chi-square here) can beat the normal, but only at small subset
sizes k, where the normal is weakest. The family models draws with
replacement and has no finite-population correction, and it cannot
follow the sample's own deviations from the law, so as k grows the
normal overtakes it. A larger n pushes the crossover out: below, the
family wins only at k = 3 on n = 200 and up to k = 25 on n = 5000.
Near k = n/2 it loses by two to four orders of magnitude at both sizes
(ROADMAP item 9 has that table).
"""

from perfectsum import SetSpec, divergence_experiment, generate_set

METHODS = ["normal", {"method": "chi_square", "df": 3}]

for n in (200, 5000):
    values = generate_set(SetSpec(family="chi_square", n=n, seed=0, df=3))
    result = divergence_experiment(values, [3, 10, 25], METHODS, seed=0)
    print(f"\nchi-square(3) set, n = {n}  (JSD vs reference, lower is better)")
    print("k    normal   chi_square   winner")
    for k in (3, 10, 25):
        jn = result.values(k=k, method="normal")[0]
        jc = result.values(k=k, method="chi_square")[0]
        winner = "chi_square" if jc < jn else "normal"
        print(f"{k:<4} {jn:.5f}  {jc:.5f}      {winner}")
    kinds = result.metadata["reference"]["kind"]
    print(f"reference kinds per k: {kinds}")
