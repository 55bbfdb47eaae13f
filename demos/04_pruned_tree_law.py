"""The pruned tree is itself a branching process, with explicit laws.

Its offspring distribution at generation k is a zero-truncated binomial
mixture whose parameters come from the survival-probability profile gamma_k.
The profile has a sharp transition at k* = log_nu(p_n nu^n): below k* the
pruned tree looks like the original, above k* it thins to near-paths.
"""

import numpy as np

from gwising import OffspringPmf, PrunedLawSampler, gamma_profile, tv_profile
from gwising.validate import pruned_tree_probability, tilde_mu0

rng = np.random.default_rng(11)
mu = OffspringPmf.dirac(2)
n, p_n = 24, 2.0**-12

profile = gamma_profile(mu, p_n, n)
print(f"depth n = {n}, leaf mark probability p_n = 2^-12")
print(f"transition generation k* = {profile.k_star:.2f}")
print(f"root pruning probability gamma_0 = {profile.gamma[0]:.3e}")

print("\n  k   gamma_k      mean nu*_k   M*_0k")
for k in (0, 4, 8, 12, 16, 20, 23):
    print(f" {k:3d}  {profile.gamma[k]:.3e}  {profile.nu_star[k]:.6f}"
          f"   {profile.m_0k[k]:.4g}")
print("growth M*_0k rises like nu^k until k*, then flattens.")

# Offspring laws: close to mu below k*, close to a Dirac at 1 above.
to_mu, to_dirac = tv_profile(profile)
print("\n  k   d_TV(mu*_k, mu)   d_TV(mu*_k, dirac_1)")
for k in (2, 8, 12, 14, 18, 22):
    print(f" {k:3d}   {to_mu[k]:.4e}       {to_dirac[k]:.4e}")

# The root law carries the empty-tree atom gamma_0; the law of any single
# pruned shape is an explicit product over its vertex degrees.
small = gamma_profile(mu, 0.5, 1)
print("\nroot law at (n=1, p=1/2):",
      dict(zip(tilde_mu0(small).degrees.tolist(),
               np.round(tilde_mu0(small).probs, 4).tolist())))
print("P(empty) =", pruned_tree_probability(None, mu, 0.5, 1))

# Direct sampling draws the pruned tree conditioned on survival, without ever
# building the big tree; generation k has the law mu*_k.
sampler = PrunedLawSampler(profile)
sizes = [sampler.sample(rng).num_vertices for _ in range(200)]
print("\ndirect-sampled surviving pruned sizes: mean", np.mean(sizes),
      "(the unpruned tree would have", 2 ** (n + 1) - 1, "vertices)")
print("offspring law at k = 20:",
      dict(zip(profile.laws[20].degrees.tolist(),
               np.round(profile.laws[20].probs, 4).tolist())))
