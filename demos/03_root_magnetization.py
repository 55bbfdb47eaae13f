"""Exact root magnetization through the leaf-to-root ratio recursion.

The log-likelihood ratio r of the root spin obeys
r(u) = 2 beta h_u + sum_children g(r(child)) with the transfer map
g(x) = log((e^{2b} e^x + 1)/(e^{2b} + e^x)); magnetization is tanh(r/2).
On small trees the recursion is checked against exhaustive enumeration of
all spin configurations.
"""

import math

import numpy as np

from gwising import (FieldMode, OffspringPmf, lyons_field, lyons_plus, magnetization,
                     plus_boundary_field, sample_field, sample_gw)
from gwising.validate import gibbs_bruteforce

rng = np.random.default_rng(3)
mu = OffspringPmf.from_dict({1: 0.5, 2: 0.5})

tree = sample_gw(mu, 3, rng)
field = sample_field(tree, FieldMode.LEAVES_ONLY, 0.4, rng)
beta = 0.9

r = lyons_field(tree, field, beta)
m_enum, r_enum = gibbs_bruteforce(tree, field, beta)
print(f"tree with {tree.num_vertices} vertices, beta = {beta}")
print(f"recursion root ratio: {r[0]:.15f}")
print(f"enumeration ratio:    {r_enum:.15f}")
print(f"difference:           {abs(r[0] - r_enum):.2e}")
print(f"root magnetization:   {magnetization(r[0]):.6f}")

# Plus boundary condition dominates any {0,1} field (GKS ordering).
r_plus = lyons_plus(tree, beta)
r_pf = lyons_field(tree, plus_boundary_field(tree), beta)
print("\nGKS ordering at the root:",
      f"{r_plus[0]:.4f} >= {r_pf[0]:.4f} >= {r[0]:.4f} >= 0")

# Magnetization against temperature, plus boundary condition, fixed tree.
# The tree-recursion critical point sits at nu tanh(beta) = 1.
big = sample_gw(mu, 12, rng)
nu = mu.mean()
print("\n  beta   nu*tanh(beta)   root magnetization (depth 12)")
for beta in (0.3, 0.55, math.atanh(1 / nu), 0.9, 1.2):
    m = magnetization(lyons_plus(big, beta)[0])
    print(f"  {beta:.3f}  {nu * math.tanh(beta):13.3f}   {m:.6f}")
