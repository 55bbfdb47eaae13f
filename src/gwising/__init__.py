"""Ising magnetization on Galton-Watson trees with sparse Bernoulli fields.

Library layout:

- ``distributions``: finite-support offspring laws, moments, generating
  functions, the zero-truncated binomial transform.
- ``tree``: breadth-first tree arenas, branching-process samplers,
  exhaustive enumeration of small trees.
- ``fields``: Bernoulli external fields, survival indicators, pruning.
- ``ising``: the leaf-to-root log-likelihood-ratio recursion, a brute-force
  Gibbs oracle, analytic mean bounds.
- ``pruned_law``: the explicit inhomogeneous branching law of the pruned
  tree (gamma profiles, offspring laws, moments, k*, samplers, exact tree
  probabilities, total-variation diagnostics, constant calibration).
- ``capacity``: nonlinear p-capacities of resistance-weighted trees
  (recursion, spherical closed form, Thomson flows, convex oracle).
- ``experiments``: deterministic Monte Carlo scans and validation suites.
- ``cli``: the ``gwising`` command.
"""

from .distributions import (ConsistencyError, OffspringPmf, PmfError,
                            zero_truncated_binomial, ztb_mixture)
from .fields import (FieldAssignment, FieldMode, plus_boundary_field, prune,
                     sample_field, survival)
from .ising import (g_beta, gibbs_bruteforce, lyons_field, lyons_plus,
                    magnetization, upper_bound_mean_r)
from .pruned_law import (GammaProfile, PrunedLawSampler, PrunedMoments,
                         calibrate_constants, gamma_profile, moments, mu_star,
                         pruned_tree_probability, tilde_mu0, tv_distance,
                         tv_profile)
from .capacity import (CapacityResult, alpha_n, capacity_bruteforce,
                       capacity_recursion, capacity_spherical,
                       expected_capacity_upper, flow_energy, uniform_flow)
from .tree import (PopulationCapError, Tree, enumerate_trees, gw_probability,
                   leaf_counts, sample_gw, sample_inhomogeneous_bp)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
