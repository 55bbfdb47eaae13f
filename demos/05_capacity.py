"""Nonlinear p-capacity of a resistance-weighted tree, three ways.

The p-resistance is the Thomson variational value over unit flows; the
capacity is its inverse.  The exact recursion, the closed form on
spherically symmetric trees, and a duality certificate must all agree.  The
recursion returns phi, one value per vertex, and the tree's capacity is the
root's phi[0]; the certificate returns a lower and an upper bound on the
capacity, from a unit flow and a vertex potential, which phi[0] must lie
between.  With resistances tanh(beta)^{-depth} the 3/2-capacity is
comparable to the root ratio of the plus-boundary Ising model.
"""

import math

import numpy as np

from gwising import OffspringPmf, capacity_recursion, lyons_plus, sample_gw
from gwising.validate import capacity_certificate, capacity_spherical, flow_energy, uniform_flow

rng = np.random.default_rng(5)

# Binary tree, unit resistances: series/parallel gives 4/3 at p = 2.
from gwising import Tree
binary = Tree.from_offspring_counts([np.array([2]), np.array([2, 2])])
unit = 1.0  # resistance base: R_u = 1 at every depth
print("binary depth 2, p = 2:")
print("  recursion:  ", capacity_recursion(binary, unit, 2.0)[0])
print("  closed form:", capacity_spherical([2, 4], unit, 2.0))
print("  certificate:", capacity_certificate(binary, unit, 2.0))

# Thomson's principle: every unit flow upper-bounds the resistance; the
# uniform flow is optimal exactly on spherically symmetric trees.
estimate = flow_energy(binary, uniform_flow(binary), unit, 2.0)
print("  uniform-flow resistance estimate:", estimate, "= exact 3/4")

# A random weighted tree: recursion against the certificate for three orders.
mu = OffspringPmf.from_dict({1: 0.5, 2: 0.3, 3: 0.2})
tree = sample_gw(mu, 5, rng)
print(f"\nrandom tree ({tree.num_vertices} vertices), R_u = 0.8^-depth:")
print("   p     recursion        certificate bracket                 uniform-flow bound")
for p in (1.5, 2.0, 3.0):
    exact = capacity_recursion(tree, 0.8, p)[0]
    lower, upper = capacity_certificate(tree, 0.8, p)
    bound = 1.0 / flow_energy(tree, uniform_flow(tree), 0.8, p)
    print(f"  {p:.1f}   {exact:.12f}   [{lower:.14f}, {upper:.14f}]   {bound:.12f}")
print("capacity is nonincreasing in p; the uniform-flow bound sits below.")

# The magnetization/capacity comparison: r_root and capa_{3/2} with
# resistances tanh(beta)^{-depth} stay within a constant ratio.
print("\n  beta    r_root     capa_3/2   ratio")
for beta in (0.8, 1.0, 1.2):
    ratio_tree = sample_gw(OffspringPmf.dirac(2), 6, rng)
    r = lyons_plus(ratio_tree, beta)[0]
    capa = capacity_recursion(ratio_tree, math.tanh(beta), 1.5)[0]
    print(f"  {beta:.1f}   {r:8.4f}   {capa:8.4f}   {r / capa:.4f}")
