"""Exact root magnetization on trees: the leaf-to-root log-likelihood-ratio
recursion and the analytic mean upper bounds.

Log-likelihood ratios r are extended reals: finite nonnegative values plus
``math.inf``, the ratio of a leaf pinned by the plus boundary condition.  g
maps the infinity to exactly 2*beta through an explicit branch, and the only
arithmetic on it is a childless vertex's 0 + inf, so no NaN can occur.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import _checked_field, _marked_ids
from .tree import Tree

# nu tanh(beta) within this of 1 counts as critical
CRITICALITY_TOL = 1e-12
# critical_fixed_point bisects until its bracket is this narrow
FIXED_POINT_TOL = 1e-12


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


def _lift(beta: float):
    return lambda child, _: g_beta(beta, child)


def lyons_plus(tree: Tree, beta: float) -> np.ndarray:
    """Per-vertex ratios with plus boundary condition: every leaf, at any
    depth, is +inf, and internal vertices accumulate
    r(u) = sum_children g(r(child))."""
    childless = np.flatnonzero(tree.num_children == 0)
    r = np.zeros(tree.num_vertices)
    tree.sweep_up((childless, np.full(len(childless), math.inf)), _lift(beta),
                  lambda sums, _: sums, out=r)
    return r


def lyons_field(tree: Tree, h: np.ndarray, beta: float, *,
                roots_only: bool = False) -> np.ndarray:
    """Per-vertex ratios with the {0,1} external field ``h`` on ``tree``:
    r(u) = 2 beta h_u + sum_children g(r(child)), leaves r = 2 beta h_u;
    with ``roots_only``, the ratios of the roots alone.

    The marked vertices seed the sweep with 2 beta each.  They are found
    above the bottom generation and on it by two scans, since a scan of the
    field returns at once only over a run of zeros."""
    bottom = int(tree.gen_offsets[tree.n])
    above = _marked_ids(_checked_field(tree, h)[:bottom])
    marked = _marked_ids(h[bottom:]) + bottom
    marked = np.concatenate((above, marked)) if len(above) else marked
    r = None if roots_only else np.zeros(tree.num_vertices)
    roots = tree.sweep_up((marked, np.full(len(marked), 2.0 * beta)), _lift(beta),
                          lambda sums, _: sums, out=r)
    return roots if roots_only else r


def critical_fixed_point(beta: float, nu: float, p_n: float) -> float:
    """Unique positive fixed point of f(x) = 2 beta p_n + nu g(x), by bisection
    to a bracket of width ``FIXED_POINT_TOL``.

    The bracket starts at [0, 1 + 2 beta p_n] and is widened until f(hi) < hi;
    since g <= 2 beta, hi = 2 beta (p_n + nu) + 1 always suffices.
    """
    def f(x: float) -> float:
        return 2.0 * beta * p_n + nu * g_beta(beta, x)

    lo, hi = 0.0, 1.0 + 2.0 * beta * p_n
    while f(hi) >= hi:
        hi = 2.0 * hi + 1.0
    while hi - lo > FIXED_POINT_TOL:
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
