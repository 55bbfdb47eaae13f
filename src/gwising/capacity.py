"""Nonlinear p-capacity of trees with geometric resistances R_u = R^{-|u|}.

The p-resistance between root and leaves is the Thomson variational value
inf over unit flows of sum_u R_u^s theta(u)^q (u over non-root vertices,
s = 1/(p-1), q = p/(p-1)), raised to the power p-1; the p-capacity is its
inverse.  Three independent routes are provided: the exact leaf-to-root
recursion, the closed form for spherically symmetric trees, and a direct
convex minimization over flows used as an oracle.  The conjugate exponent q
is always derived from p, never passed separately.
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


@dataclass(frozen=True)
class ResistanceProfile:
    """Geometric edge resistances R_u = base^{-depth(u)}, assigned to the
    child endpoint (the root keeps the conventional R = 1)."""

    base: float

    @classmethod
    def geometric(cls, base: float) -> "ResistanceProfile":
        if base <= 0:
            raise ValueError("geometric base must be positive")
        return cls(base)

    def generation_values(self, n: int) -> np.ndarray:
        """R at depths 0..n."""
        return float(self.base) ** -np.arange(n + 1, dtype=float)

    def vertex_resistances(self, tree: Tree) -> np.ndarray:
        return np.repeat(self.generation_values(tree.n), tree.generation_sizes())


@dataclass(frozen=True, eq=False)
class Flow:
    """Nonnegative vertex flow with conservation at internal vertices."""

    tree: Tree
    theta: np.ndarray

    def __post_init__(self):
        self.theta.setflags(write=False)

    @property
    def strength(self) -> float:
        """Total outflow from the root."""
        children = self.tree.children(0)
        return float(self.theta[children].sum()) if len(children) else float(self.theta[0])

    def conservation_residuals(self) -> np.ndarray:
        """theta(u) - sum_children theta(v) over internal vertices."""
        tree = self.tree
        child_sum = segment_sums(self.theta[tree.num_roots:], tree.num_children)
        return (self.theta - child_sum)[tree.num_children > 0]


@dataclass(frozen=True, eq=False)
class CapacityResult:
    capacity: float
    phi: np.ndarray | None
    witness_flow: Flow | None
    p: float
    converged: bool = True


def _contraction(phi: np.ndarray, s: float) -> np.ndarray:
    """x -> x / (1 + x^s)^{1/s}, evaluated as (1 + x^{-s})^{-1/s}.

    This form is exact at the boundary-contact value x = +inf (giving 1) and
    never overflows for large finite x.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return (1.0 + phi ** -s) ** (-1.0 / s)


def capacity_recursion(tree: Tree, res: ResistanceProfile, p: float) -> CapacityResult:
    """Exact p-capacity by the leaf-to-root recursion
    phi(u) = sum_children (R_u / R_v) phi(v) / (1 + phi(v)^s)^{1/s}.

    Leaves are perfect boundary contacts: their contraction factor is exactly
    1, which reproduces the Thomson value on every tree with at least one
    edge.  The degenerate single-vertex tree returns capacity 1 (root at unit
    resistance from the boundary, the same convention that sets R_root = 1).
    """
    if p <= 1:
        raise ValueError("capacity order p must exceed 1")
    s = 1.0 / (p - 1.0)
    if tree.num_vertices == 1:
        return CapacityResult(1.0, np.ones(1), None, p)
    r_vertex = res.vertex_resistances(tree)
    phi = np.zeros(tree.num_vertices)
    phi[tree.num_children == 0] = math.inf
    sentinel = res.base < 1.0

    def combine(sums: np.ndarray, cur: slice) -> np.ndarray:
        degree = tree.num_children[cur]
        vals = r_vertex[cur] * sums
        if sentinel and np.any(vals > res.base * degree * (1 + 1e-9)):
            raise FloatingPointError("phi exceeded the R * degree envelope")
        return np.where(degree > 0, vals, phi[cur])

    tree.sweep_up(phi, lambda child, nxt: _contraction(child, s) / r_vertex[nxt], combine)
    return CapacityResult(float(phi[0]), phi, None, p)


def capacity_spherical(generation_sizes, resistances, p: float) -> float:
    """Closed form for spherically symmetric trees:
    (sum_k (R_k / |t_k|)^{1/(p-1)})^{-(p-1)} over generations k = 1..n."""
    sizes = np.asarray(generation_sizes, dtype=float)
    r_k = np.asarray(resistances, dtype=float)
    if sizes.shape != r_k.shape or sizes.ndim != 1 or sizes.size == 0:
        raise ValueError("need matching per-generation sizes and resistances")
    if np.any(sizes[1:] % sizes[:-1]) or sizes[0] < 1:
        raise ValueError("generation sizes must be successively divisible")
    s = 1.0 / (p - 1.0)
    return float(np.sum((r_k / sizes) ** s) ** (-1.0 / s))


def uniform_flow(tree: Tree) -> Flow:
    """Unit flow routing mass proportionally to bottom-leaf counts."""
    if not tree.leaves_only_at_bottom:
        raise ValueError("uniform flow needs all leaves at the bottom generation")
    counts = leaf_counts(tree)
    return Flow(tree, counts / counts[0])


def flow_energy(tree: Tree, flow: Flow, res: ResistanceProfile, p: float) -> float:
    """Thomson resistance estimate (sum_{u != root} R_u^s theta(u)^q)^{p-1}.

    An upper bound on the exact p-resistance for every admissible unit flow,
    tight exactly at the optimizer.
    """
    if abs(flow.strength - 1.0) > 1e-9:
        raise ValueError("flow must have unit strength")
    s = 1.0 / (p - 1.0)
    q = p / (p - 1.0)
    r_vertex = res.vertex_resistances(tree)
    energy = float(np.sum(r_vertex[1:] ** s * flow.theta[1:] ** q))
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


def capacity_bruteforce(tree: Tree, res: ResistanceProfile, p: float) -> CapacityResult:
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
    if tree.num_vertices == 1:
        return CapacityResult(1.0, None, None, p)
    s = 1.0 / (p - 1.0)
    q = p / (p - 1.0)
    cost = res.vertex_resistances(tree) ** s
    cost[0] = 0.0
    parent = tree.parent
    counts = tree.num_children
    internal = np.flatnonzero(counts > 0)
    block_counts = counts[internal]
    block_ids = parent[1:]

    theta0 = uniform_flow(tree).theta if tree.leaves_only_at_bottom else None
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
    return CapacityResult(capacity, None, Flow(tree, theta), p, converged)


def expected_capacity_upper(m_0k, resistance_base: float, p: float) -> float:
    """Mean-capacity upper bound (sum_{k=1}^n (R^k M_{0,k})^{-s})^{-1/s} for a
    branching process with mean generation sizes ``m_0k`` (k = 1..n) and
    geometric resistances R^{-k}."""
    m = np.asarray(m_0k, dtype=float)
    if np.any(m <= 0):
        raise ValueError("mean generation sizes must be positive")
    s = 1.0 / (p - 1.0)
    k = np.arange(1, len(m) + 1, dtype=float)
    return float(np.sum((resistance_base ** k * m) ** -s) ** (-1.0 / s))


def alpha_n(beta: float, nu: float, p_n: float, n: int, p: float) -> float:
    """Benchmark scale for capa_p of the pruned tree: p_n (nu tanh beta)^n off
    criticality, min(n^{-1/(q-1)}, p_n) at criticality."""
    q = p / (p - 1.0)
    t = nu * math.tanh(beta)
    if abs(t - 1.0) < CRITICALITY_TOL:
        return min(float(n) ** (-1.0 / (q - 1.0)), p_n)
    return p_n * t ** n


def kn_sum(resistance_base: float, nu: float, k_star: float, n: int, p: float) -> float:
    """K_n = sum_{k=1}^n R^{-ks} nu^{-(k ^ k*) s}, the comparison series for
    the mean-capacity bound."""
    s = 1.0 / (p - 1.0)
    k = np.arange(1, n + 1, dtype=float)
    return float(np.sum(resistance_base ** (-k * s)
                        * nu ** (-np.minimum(k, k_star) * s)))
