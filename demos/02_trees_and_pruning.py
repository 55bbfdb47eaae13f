"""Galton-Watson trees, Bernoulli leaf fields, and the pruning of dead
branches.

A branch is dead when no leaf below it carries the field.  Removing dead
branches leaves the subtree of "living" vertices: the pruned tree.  The
probability that the whole tree dies is gamma_0, computable exactly from the
generating-function iteration.
"""

import numpy as np

from gwising import (FieldMode, OffspringPmf, gamma_profile, prune,
                     sample_field, sample_gw, survival)
from gwising.fields import to_dot

rng = np.random.default_rng(7)
mu = OffspringPmf.from_dict({1: 0.5, 2: 0.5})
n, p = 8, 0.2

tree = sample_gw(mu, n, rng)
print("tree of depth", tree.n, "with", tree.num_vertices, "vertices")
print("generation sizes:", tree.generation_sizes().tolist())

field = sample_field(tree, FieldMode.LEAVES_ONLY, p, rng)
# the field is one read-only uint8 bit per vertex, in arena order; the
# bottom generation is the last slice of the arena
print("marked leaves:", int(field[tree.gen_offsets[n]:].sum()), "of",
      tree.generation_size(n))

surv = survival(tree, field)
outcome = prune(tree, field)
if outcome is None:
    print("the whole tree was pruned")
else:
    pruned, mapping = outcome
    print("pruned tree keeps", pruned.num_vertices, "vertices;",
          "generation sizes:", pruned.generation_sizes().tolist())
    # every internal vertex of the pruned tree still has a child, and all
    # leaves sit at the bottom generation
    print("leaves only at the bottom:", pruned.leaves_only_at_bottom)

# The root-pruning probability has a closed form: iterate the generating
# function from gamma_bar_0 = 1 - p.
profile = gamma_profile(mu, p, n)
print("\ngamma_0 (exact root-pruning probability):", float(profile.gamma[0]))
empties = sum(
    prune(t, sample_field(t, FieldMode.LEAVES_ONLY, p, rng)) is None
    for t in (sample_gw(mu, n, rng) for _ in range(2000)))
print("empirical over 2000 replicas:", empties / 2000)

# DOT rendering with field marks and dead branches, for graphviz:
dot = to_dot(tree, field, surv)
print("\nDOT overlay preview (first 3 lines):")
print("\n".join(dot.splitlines()[:3]))
