"""Ising magnetization on Galton-Watson trees with sparse Bernoulli fields.

Library layout:

- ``distributions``: finite-support offspring laws, moments, generating
  functions, the zero-truncated binomial mixture.
- ``tree``: breadth-first tree arenas, branching-process samplers.
- ``fields``: Bernoulli external fields, survival indicators, pruning.
- ``ising``: the leaf-to-root log-likelihood-ratio recursion, analytic mean
  bounds.
- ``pruned_law``: the explicit inhomogeneous branching law of the pruned
  tree (gamma profiles, offspring laws, moments, k*, samplers,
  total-variation diagnostics, constant calibration).
- ``capacity``: nonlinear p-capacities of resistance-weighted trees
  (recursion, mean bounds).
- ``experiments``: deterministic Monte Carlo scans and CSV rendering.
- ``validate``: the oracles that check the modules above (Gibbs
  enumeration, tree enumeration, exact pruned-tree probabilities, the
  spherical closed form, the capacity duality certificate, Thomson flows)
  and the ``gwising validate`` suites.
  Neither it nor ``experiments`` is imported here.
- ``cli``: the ``gwising`` command.
"""

from .distributions import ConsistencyError, OffspringPmf, PmfError, ztb_mixture
from .fields import FieldMode, plus_boundary_field, prune, sample_field, survival
from .ising import g_beta, lyons_field, lyons_plus, magnetization, upper_bound_mean_r
from .pruned_law import (GammaProfile, PrunedLawSampler, calibrate_constants,
                         gamma_profile, moments, mu_star, tv_profile)
from .capacity import alpha_n, capacity_recursion, expected_capacity_upper
from .tree import PopulationCapError, Tree, sample_gw, sample_inhomogeneous_bp

__all__ = [
    "ConsistencyError", "OffspringPmf", "PmfError", "ztb_mixture",
    "FieldMode", "plus_boundary_field", "prune", "sample_field", "survival",
    "g_beta", "lyons_field", "lyons_plus", "magnetization", "upper_bound_mean_r",
    "GammaProfile", "PrunedLawSampler", "calibrate_constants", "gamma_profile",
    "moments", "mu_star", "tv_profile",
    "alpha_n", "capacity_recursion", "expected_capacity_upper",
    "PopulationCapError", "Tree", "sample_gw", "sample_inhomogeneous_bp",
]
__version__ = "0.1.0"
