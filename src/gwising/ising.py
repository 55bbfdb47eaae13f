"""Exact root magnetization on trees: the leaf-to-root log-likelihood-ratio
recursion, a brute-force Gibbs enumeration oracle, and the analytic mean
upper bounds.

Log-likelihood ratios r are extended reals: finite nonnegative values plus
``math.inf``, the ratio of a leaf pinned by the plus boundary condition.  g
maps the infinity to exactly 2*beta through an explicit branch, and the only
arithmetic on it is a childless vertex's inf + 0, so no NaN can occur.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import logsumexp
from .fields import FieldAssignment
from .tree import Tree

BRUTEFORCE_MAX_FREE_SPINS = 24
# nu tanh(beta) within this of 1 counts as critical
CRITICALITY_TOL = 1e-12


def g_beta(beta: float, x):
    """g(x) = log((e^{2b} e^x + 1) / (e^{2b} + e^x)), the edge transfer map,
    for x >= 0 (g(inf) = 2*beta exactly).

    Evaluated as 2 atanh(tanh(beta) tanh(x/2)) written over e = e^{-x}:
    g = log1p(2 tanh(beta) (1 - e) / ((1 - tanh(beta)) (1 + e) + 2 tanh(beta) e)),
    with 1 - e = -expm1(-x) and 1 - tanh(beta) = 2e^{-2b} / (1 + e^{-2b}).
    Every term is a product or a sum of positives, so g keeps full relative
    precision at small x, where a difference of logarithms would cancel, and
    at large beta and x, where atanh of a rounded tanh(beta) tanh(x/2) would
    lose digits.  Increasing, concave, g(0) = 0, slope tanh(beta) at 0.
    """
    if beta < 0:
        raise ValueError("inverse temperature must be nonnegative")
    x = np.asarray(x, dtype=float)
    tb = math.tanh(beta)
    eb = math.exp(-2.0 * beta)
    one_minus_tb = 2.0 * eb / (1.0 + eb)
    neg_x = -np.atleast_1d(x)
    den = np.exp(neg_x)
    num = np.expm1(neg_x, out=neg_x)
    den *= one_minus_tb + 2.0 * tb
    den += one_minus_tb
    num *= -2.0 * tb
    num /= den
    out = np.log1p(num, out=num)
    np.copyto(out, 2.0 * beta, where=x == math.inf)
    return float(out[0]) if x.ndim == 0 else out


def magnetization(r):
    """Root magnetization m = tanh(r/2); maps inf to exactly 1."""
    if np.ndim(r) == 0:
        return 1.0 if not math.isfinite(r) else math.tanh(float(r) / 2.0)
    return np.tanh(np.asarray(r, dtype=float) / 2.0)


def _backward_sweep(tree: Tree, r: np.ndarray, bias: np.ndarray, beta: float) -> np.ndarray:
    return tree.sweep_up(r, lambda child, _: g_beta(beta, child),
                         lambda sums, cur: bias[cur] + sums)


def lyons_plus(tree: Tree, beta: float) -> np.ndarray:
    """Per-vertex ratios with plus boundary condition: every leaf, at any
    depth, is +inf, and internal vertices accumulate
    r(u) = sum_children g(r(child))."""
    bias = np.where(tree.num_children == 0, math.inf, 0.0)
    return _backward_sweep(tree, bias.copy(), bias, beta)


def lyons_field(tree: Tree, fld: FieldAssignment, beta: float) -> np.ndarray:
    """Per-vertex ratios with a {0,1} external field:
    r(u) = 2 beta h_u + sum_children g(r(child)), leaves r = 2 beta h_u."""
    bias = 2.0 * beta * fld.h.astype(float)
    r = np.zeros(tree.num_vertices)
    leaves = tree.num_children == 0
    r[leaves] = bias[leaves]
    return _backward_sweep(tree, r, bias, beta)


def gibbs_bruteforce(tree: Tree, fld: FieldAssignment | None, beta: float,
                     plus_boundary_condition: bool = False,
                     chunk: int = 1 << 14) -> tuple[float, float]:
    """Exhaustive-enumeration oracle for the root magnetization.

    Enumerates all spin configurations of the Ising measure with coupling 1,
    accumulating the root-conditioned partition sums in log space (streamed
    log-sum-exp per chunk; direct products would overflow immediately).
    Returns ``(m, r)`` with r = log Z(+) - log Z(-) and m = tanh(r/2).

    ``plus_boundary_condition`` hard-fixes every leaf spin to +1, matching the
    +inf initialization of the recursion; a plus boundary *field* is instead
    passed as an ordinary all-ones-on-leaves field.
    """
    nv = tree.num_vertices
    h = np.zeros(nv) if fld is None else fld.h.astype(float)
    pinned = np.zeros(nv, dtype=bool)
    if plus_boundary_condition:
        pinned = tree.num_children == 0
    free = np.flatnonzero(~pinned)
    if pinned[0]:
        return 1.0, math.inf
    if len(free) > BRUTEFORCE_MAX_FREE_SPINS:
        raise ValueError(f"{len(free)} free spins exceed the 2^{BRUTEFORCE_MAX_FREE_SPINS} guard")

    edges_u = tree.parent[1:]
    edges_v = np.arange(1, nv)
    total = 1 << len(free)
    log_terms_plus, log_terms_minus = [], []
    spins = np.empty((min(chunk, total), nv))
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        s = spins[: len(idx)]
        s[:, pinned] = 1.0
        for slot, v in enumerate(free):
            s[:, v] = (((idx >> np.uint64(slot)) & np.uint64(1)).astype(float) * 2.0) - 1.0
        energy = beta * ((s[:, edges_u] * s[:, edges_v]).sum(axis=1) + s @ h)
        is_plus = s[:, 0] > 0
        log_terms_plus.append(logsumexp(energy[is_plus]))
        log_terms_minus.append(logsumexp(energy[~is_plus]))
    r = logsumexp(log_terms_plus) - logsumexp(log_terms_minus)
    return math.tanh(r / 2.0), r


def critical_fixed_point(beta: float, nu: float, p_n: float, tol: float = 1e-12) -> float:
    """Unique positive fixed point of f(x) = 2 beta p_n + nu g(x), by bisection.

    The bracket starts at [0, 1 + 2 beta p_n] and is widened until f(hi) < hi;
    since g <= 2 beta, hi = 2 beta (p_n + nu) + 1 always suffices.
    """
    def f(x: float) -> float:
        return 2.0 * beta * p_n + nu * g_beta(beta, x)

    lo, hi = 0.0, 1.0 + 2.0 * beta * p_n
    while f(hi) >= hi:
        hi = 2.0 * hi + 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def upper_bound_mean_r(beta: float, nu: float, p_n: float, n: int) -> float:
    """Analytic upper bound on the mean root ratio under a whole-tree
    Bernoulli(p_n) field.

    Off criticality this is the linearized sum 2 beta p_n sum_k (nu tanh b)^k;
    at criticality (nu tanh(beta) within ``CRITICALITY_TOL`` of 1) it is
    max(2 beta p_n, x_n) with x_n the critical fixed point.
    """
    if p_n == 0.0:
        return 0.0
    t = nu * math.tanh(beta)
    if abs(t - 1.0) < CRITICALITY_TOL:
        return max(2.0 * beta * p_n, critical_fixed_point(beta, nu, p_n))
    powers = t ** np.arange(n + 1)
    return 2.0 * beta * p_n * float(powers.sum())
