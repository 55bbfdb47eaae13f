"""Finite-support offspring laws and the zero-truncated binomial transform.

Every quantity in the package is an exact finite sum over a pmf's support:
means, fractional moments, generating functions.  The key transform is the
law of "children that survive an independent thinning, given at least one
survives", which is a zero-truncated binomial with random trial count.
"""

import numpy as np

from gwising import OffspringPmf, ztb_mixture
from gwising.validate import zero_truncated_binomial

rng = np.random.default_rng(1)

# A supercritical law: one or three children, mean two.
mu = OffspringPmf.from_dict({1: 0.5, 3: 0.5})
print("support:", mu.degrees.tolist(), "masses:", mu.probs.tolist())
print("mean nu =", mu.mean())
print("second moment m_2 =", mu.q_moment(2.0))
print("q-variance at q=1.5:", mu.q_variance(1.5))

# The generating function G(s) = E[s^X] drives every survival computation.
s = np.linspace(0, 1, 6)
print("\nG on a grid:", np.round(mu.gf(s), 4))
print("G(1) = 1 always; G is convex and nondecreasing.")

# Sampling is cumulative inversion: one uniform per draw, reproducible.
draws = mu.sample_many(rng, 10**5)
print("\nempirical mean over 1e5 draws:", draws.mean(), "(exact 2.0)")

# Zero-truncated binomial: Bin(n, p) conditioned on being positive.
ztb = zero_truncated_binomial(2, 0.5)
print("\nBin(2, 1/2) | positive:", dict(zip(ztb.degrees.tolist(),
                                            np.round(ztb.probs, 6).tolist())))

# Thin each of X ~ mu children with survival probability p, condition on at
# least one survivor: the law below is computed two independent ways inside
# (explicit double sum and mixture form) and cross-checked to 1e-12.
for p in (0.25, 0.75):
    law = ztb_mixture(mu, p)
    closed_mean = mu.mean() * p / (1 - mu.gf(1 - p))
    print(f"thinned law at p={p}: mean {law.mean():.12f} "
          f"(closed form {closed_mean:.12f})")
