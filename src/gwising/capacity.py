"""Nonlinear p-capacity of trees with geometric resistances R_u = R^{-|u|}.

The p-resistance between root and leaves is the Thomson variational value
inf over unit flows of sum_u R_u^s theta(u)^q (u over non-root vertices,
s = 1/(p-1), q = p/(p-1)), raised to the power p-1; the p-capacity is its
inverse.  Every function takes the base R; as R_u / R_v = R on every edge,
the recursion is phi(u) = R sum_children contraction(phi(v)).  Three
independent routes are provided: that exact leaf-to-root recursion, the
closed form for spherically symmetric trees (generations in series), and a
direct convex minimization over flows used as an oracle.  The conjugate
exponent q is always derived from p, never passed separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ising import CRITICALITY_TOL
from .tree import Tree, leaf_counts, segment_sums

# capacity_bruteforce stops once the relative energy change stays below
# BRUTEFORCE_REL_TOL for BRUTEFORCE_PATIENCE iterations in a row, or after
# BRUTEFORCE_MAX_ITER iterations, unconverged
BRUTEFORCE_REL_TOL = 1e-12
BRUTEFORCE_PATIENCE = 50
BRUTEFORCE_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class CapacityResult:
    capacity: float
    phi: np.ndarray | None
    witness_flow: np.ndarray | None  # the oracle's read-only optimal theta
    converged: bool = True


def _checked_base(base: float) -> float:
    """The one check of a resistance base, which must be finite and positive."""
    if not 0.0 < base < math.inf:
        raise ValueError(f"resistance base must be finite and positive, got {base}")
    return float(base)


def _vertex_resistances(tree: Tree, base: float) -> np.ndarray:
    """R_u = base^{-|u|} per vertex (a root keeps R = 1), for the flow oracles."""
    r_gen = _checked_base(base) ** -np.arange(tree.n + 1, dtype=float)
    return np.repeat(r_gen, tree.generation_sizes())


def _contraction(phi: np.ndarray, s: float) -> np.ndarray:
    """x -> x / (1 + x^s)^{1/s}, evaluated as (1 + x^{-s})^{-1/s}.

    This form is exact at the boundary-contact value x = +inf (giving 1) and
    never overflows for large finite x.  Where x^{-s} overflows (small x, or
    a large s as p -> 1), x (1 + x^s)^{-1/s} is taken instead.
    """
    with np.errstate(divide="ignore", over="ignore"):
        out = phi ** -s
    small = out == math.inf
    out += 1.0
    out **= -1.0 / s
    if small.any():
        x = phi[small]
        out[small] = x * (1.0 + x ** s) ** (-1.0 / s)
    return out


def _series_capacity(sizes: np.ndarray, base: float, p: float) -> float:
    """(sum_k g_k^{-s})^{-1/s} over the conductances g_k = base^k |t_k| of
    generations k = 1..n in series, with |t_k| = ``sizes[k-1]``.

    Where the plain power sum overflows or underflows to 0, the smallest
    conductance m is factored out of it: sum_k g_k^{-s} = m^{-s} sum_k
    (g_k / m)^{-s}, so the result is m times the root of a sum between 1 and
    the term count (a ratio that overflows is a term of 0)."""
    s = 1.0 / (p - 1.0)
    g = _checked_base(base) ** np.arange(1, len(sizes) + 1, dtype=float) * sizes
    m = g.min()
    with np.errstate(over="ignore"):
        total = np.sum(g ** -s)
        if 0.0 < total < math.inf or not 0.0 < m < math.inf:
            return float(total ** (-1.0 / s))
        return float(m * np.sum((g / m) ** -s) ** (-1.0 / s))


def capacity_recursion(tree: Tree, base: float, p: float) -> CapacityResult:
    """Exact p-capacity by the leaf-to-root recursion
    phi(u) = R sum_children contraction(phi(v)), R = ``base``.

    R = R_u / R_v is the same on every edge, so each step is one product and
    phi stays in the double range at any depth.  Leaves are perfect boundary
    contacts: their contraction factor is exactly 1, which reproduces the
    Thomson value on every tree with at least one edge.  The degenerate
    single-vertex tree returns capacity 1 (root at unit resistance from the
    boundary, the same convention that sets R_root = 1).
    """
    if p <= 1:
        raise ValueError("capacity order p must exceed 1")
    s = 1.0 / (p - 1.0)
    base = _checked_base(base)
    if tree.num_vertices == 1:
        return CapacityResult(1.0, np.ones(1), None)
    phi = np.zeros(tree.num_vertices)
    phi[tree.num_children == 0] = math.inf

    def combine(sums: np.ndarray, cur: slice) -> np.ndarray:
        degree = tree.num_children[cur]
        # every contraction is at most 1
        if np.any(sums > degree * (1 + 1e-9)):
            raise FloatingPointError("phi exceeded the R * degree envelope")
        return np.where(degree > 0, base * sums, phi[cur])

    tree.sweep_up(phi, lambda child, nxt: _contraction(child, s), combine)
    return CapacityResult(float(phi[0]), phi, None)


def capacity_spherical(generation_sizes, base: float, p: float) -> float:
    """Closed form for spherically symmetric trees with resistances
    base^{-k}: generations k = 1..n in series,
    (sum_k (base^k |t_k|)^{-s})^{-1/s} with s = 1/(p-1)."""
    sizes = np.asarray(generation_sizes, dtype=float)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ValueError("need a list of generation sizes")
    if np.any(sizes[1:] % sizes[:-1]) or sizes[0] < 1:
        raise ValueError("generation sizes must be successively divisible")
    return _series_capacity(sizes, base, p)


def uniform_flow(tree: Tree) -> np.ndarray:
    """The read-only vertex flow theta of the unit flow that routes mass
    proportionally to bottom-leaf counts."""
    if not tree.leaves_only_at_bottom:
        raise ValueError("uniform flow needs all leaves at the bottom generation")
    counts = leaf_counts(tree)
    theta = counts / counts[0]
    theta.setflags(write=False)
    return theta


def flow_energy(tree: Tree, theta: np.ndarray, base: float, p: float) -> float:
    """Thomson resistance estimate (sum_{u != root} R_u^s theta(u)^q)^{p-1}
    of the vertex flow ``theta``.

    An upper bound on the exact p-resistance for every admissible unit flow,
    tight exactly at the optimizer.
    """
    r_vertex = _vertex_resistances(tree, base)
    degree = int(tree.num_children[0])  # the root's outflow is its strength
    strength = float(theta[1:1 + degree].sum()) if degree else float(theta[0])
    if abs(strength - 1.0) > 1e-9:
        raise ValueError("flow must have unit strength")
    s = 1.0 / (p - 1.0)
    q = p / (p - 1.0)
    energy = float(np.sum(r_vertex[1:] ** s * theta[1:] ** q))
    return energy ** (p - 1.0)


def _project_sibling_simplices(x: np.ndarray, block_ids: np.ndarray,
                               counts: np.ndarray) -> np.ndarray:
    """Simplex-project every contiguous sibling block of ``x`` at once.

    ``block_ids`` must be nondecreasing (children of consecutive parents are
    consecutive in the arena) and ``counts`` gives each block's length.
    """
    order = np.lexsort((-x, block_ids))
    xs = x[order]
    offsets = np.zeros(len(counts), dtype=np.int64)
    offsets[1:] = np.cumsum(counts[:-1])
    head = np.repeat(np.cumsum(xs)[offsets] - xs[offsets], counts)
    block_cumsum = np.cumsum(xs) - head
    pos = np.arange(len(x)) - np.repeat(offsets, counts) + 1
    cond = xs - (block_cumsum - 1.0) / pos > 0
    rho = segment_sums(cond.astype(np.int64), counts)
    tau_idx = offsets + rho - 1
    tau = (block_cumsum[tau_idx] - 1.0) / rho
    out = np.empty_like(x)
    out[order] = np.maximum(xs - np.repeat(tau, counts), 0.0)
    return out


def capacity_bruteforce(tree: Tree, base: float, p: float) -> CapacityResult:
    """Direct minimization of the Thomson energy over unit flows.

    The flow is parameterized by splitting fractions on each internal
    vertex's child simplex, which makes conservation structural; projected
    gradient descent with a backtracking (and adaptively grown) step then
    converges to the optimum of the underlying convex problem.  Stops when
    the relative objective change stays below ``BRUTEFORCE_REL_TOL`` for
    ``BRUTEFORCE_PATIENCE`` consecutive iterations; hitting
    ``BRUTEFORCE_MAX_ITER`` first returns the best value with
    ``converged=False``.
    """
    if p <= 1:
        raise ValueError("capacity order p must exceed 1")
    if tree.num_vertices > 200:
        raise ValueError("oracle is limited to 200 vertices")
    r_vertex = _vertex_resistances(tree, base)
    if tree.num_vertices == 1:
        return CapacityResult(1.0, None, None)
    s = 1.0 / (p - 1.0)
    q = p / (p - 1.0)
    cost = r_vertex ** s
    cost[0] = 0.0
    parent = tree.parent
    counts = tree.num_children
    internal = np.flatnonzero(counts > 0)
    block_counts = counts[internal]
    block_ids = parent[1:]

    theta0 = uniform_flow(tree) if tree.leaves_only_at_bottom else None
    a = np.ones(tree.num_vertices)
    if theta0 is not None:
        a[1:] = theta0[1:] / theta0[parent[1:]]
    else:
        a[1:] = 1.0 / counts[parent[1:]]

    def forward(a_vec: np.ndarray) -> np.ndarray:
        theta = np.ones(tree.num_vertices)
        for k in range(1, tree.n + 1):
            lo, hi = tree.gen_offsets[k], tree.gen_offsets[k + 1]
            theta[lo:hi] = theta[parent[lo:hi]] * a_vec[lo:hi]
        return theta

    def energy_of(theta: np.ndarray) -> float:
        return float(np.sum(cost[1:] * theta[1:] ** q))

    def gradient(a_vec: np.ndarray, theta: np.ndarray) -> np.ndarray:
        # h(v) = (subtree energy below v) / theta(v), via
        # h(v) = cost_v theta_v^{q-1} + sum_children a_w h(w); grad wrt a_v is
        # q * theta(parent) * h(v), finite even as theta -> 0 (q > 1).
        h = cost * theta ** (q - 1.0)
        tree.sweep_up(h, lambda child, nxt: a_vec[nxt] * child,
                      lambda sums, cur: h[cur] + sums)
        grad = np.zeros_like(a_vec)
        grad[1:] = q * theta[parent[1:]] * h[1:]
        return grad

    def project(vec: np.ndarray) -> np.ndarray:
        out = np.ones_like(vec)
        out[1:] = _project_sibling_simplices(vec[1:], block_ids, block_counts)
        return out

    theta = forward(a)
    energy = energy_of(theta)
    previous = None
    step = 1.0
    quiet = 0
    converged = False
    for _ in range(BRUTEFORCE_MAX_ITER):
        grad = gradient(a, theta)
        moved = False
        while step >= 1e-18:
            trial = project(a - step * grad)
            trial_theta = forward(trial)
            trial_energy = energy_of(trial_theta)
            if trial_energy <= energy:
                moved = True
                break
            step *= 0.5
        if not moved:
            # no step down to float resolution decreases the energy: for this
            # convex problem that is the optimum
            converged = True
            break
        # opportunistic monotone extrapolations: extend along the accepted
        # displacement, and heavy-ball along the previous iterate's secant;
        # both break the slow creep in the flat small-flow directions
        scale = 2.0
        while scale <= 4096.0:
            cand = project(a + scale * (trial - a))
            cand_theta = forward(cand)
            cand_energy = energy_of(cand_theta)
            if cand_energy < trial_energy:
                trial, trial_theta, trial_energy = cand, cand_theta, cand_energy
                scale *= 2.0
            else:
                break
        if previous is not None:
            cand = project(trial + 0.9 * (trial - previous))
            cand_theta = forward(cand)
            cand_energy = energy_of(cand_theta)
            if cand_energy < trial_energy:
                trial, trial_theta, trial_energy = cand, cand_theta, cand_energy
        change = energy - trial_energy
        previous = a
        a, theta, energy = trial, trial_theta, trial_energy
        step *= 1.25
        quiet = quiet + 1 if change <= BRUTEFORCE_REL_TOL * max(energy, 1e-300) else 0
        if quiet >= BRUTEFORCE_PATIENCE:
            converged = True
            break
    capacity = energy ** -(p - 1.0) if energy > 0 else math.inf
    theta.setflags(write=False)
    return CapacityResult(capacity, None, theta, converged)


def expected_capacity_upper(m_0k, resistance_base: float, p: float) -> float:
    """Mean-capacity upper bound (sum_{k=1}^n (R^k M_{0,k})^{-s})^{-1/s} for a
    branching process with mean generation sizes ``m_0k`` (k = 1..n) and
    geometric resistances R^{-k}: the series closed form on mean sizes."""
    m = np.asarray(m_0k, dtype=float)
    if np.any(m <= 0):
        raise ValueError("mean generation sizes must be positive")
    return _series_capacity(m, resistance_base, p)


def alpha_n(beta: float, nu: float, p_n: float, n: int, p: float) -> float:
    """Benchmark scale for capa_p of the pruned tree: p_n (nu tanh beta)^n off
    criticality, min(n^{-1/(q-1)}, p_n) at criticality."""
    q = p / (p - 1.0)
    t = nu * math.tanh(beta)
    if abs(t - 1.0) < CRITICALITY_TOL:
        return min(float(n) ** (-1.0 / (q - 1.0)), p_n)
    return p_n * t ** n

