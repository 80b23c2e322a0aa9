"""Exact law of the particle count at the lowest disc level.

At level m = 0 the count N_r in a centred disc is distributed as an
independent Bernoulli sum with explicit success probabilities, so its
distribution is Poisson-binomial and everything about it is computable
exactly: pmf, generating function, binomial moments by Newton's
identities, and the variance series.  A seeded Monte Carlo run cross-checks
the pmf empirically and is bit-reproducible.

Run:  python demos/count_distribution.py
"""

import numpy as np

from dppstats import (binomial_moment, build_profile, distribution,
                      generating_function, sample_counts, variance_series)

nu, r = 1.5, 0.7
profile = build_profile(nu, r)
law = distribution(profile)
print(f"parameters nu={nu}, r={r}: truncated at J={profile.truncation} "
      f"(tail bound {profile.tail_bound:.1e})")
print(f"mean = {law.mean:.10f}, variance = {law.variance:.10f}")
print(f"variance series check: {variance_series(nu, r):.10f}")

print()
print("probability mass function and a seeded sample (100000 draws)")
n_draws = 100000
hist = sample_counts(profile, seed=0, n_samples=n_draws)
print(f"{'n':>3} {'pmf':>14} {'sampled freq':>14}")
for n in range(8):
    print(f"{n:>3} {law.pmf[n]:>14.8f} {hist[n] / n_draws:>14.8f}")

print()
print("generating product E (1+s)^N vs pmf expectation")
ns = np.arange(len(law.pmf))
for s in (-0.5, 0.25, 0.9):
    lhs = generating_function(profile, s)
    rhs = float((law.pmf * (1 + s) ** ns).sum())
    print(f"  s={s:>5}: product {lhs:.12f}   pmf sum {rhs:.12f}")

print()
print("binomial moments E C(N, k) by Newton's identities vs the pmf")
from scipy.special import comb
for k in range(1, 6):
    newton = binomial_moment(profile, k)
    ref = float((comb(ns, k) * law.pmf).sum())
    print(f"  k={k}: newton {newton:.12e}   pmf {ref:.12e}")

print()
print("the nu = 1 case collapses to p_j = r^{2j} and V = r^2/(1 - r^4)")
for rr in (0.3, 0.6, 0.9):
    v = variance_series(1.0, rr)
    print(f"  r={rr}: series {v:.10f}   closed form {rr ** 2 / (1 - rr ** 4):.10f}")
