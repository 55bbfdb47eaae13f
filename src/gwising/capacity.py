"""Nonlinear p-capacity of trees with geometric resistances R_u = R^{-|u|}.

The p-resistance between root and leaves is the Thomson variational value
inf over unit flows of sum_u R_u^s theta(u)^q (u over non-root vertices,
s = 1/(p-1), q = p/(p-1)), raised to the power p-1; the p-capacity is its
inverse.  Every function takes the base R; as R_u / R_v = R on every edge,
the recursion is phi(u) = R sum_children contraction(phi(v)).  Here are that
leaf-to-root recursion and the mean bounds; the checks of the recursion, the
spherical closed form and the duality certificate, are in
``gwising.validate``.  The conjugate exponent q is always derived from p.
"""

from __future__ import annotations

import math

import numpy as np

from .ising import CRITICALITY_TOL
from .tree import Tree


def _checked_base(base: float) -> float:
    """The one check of a resistance base, which must be finite and positive."""
    if not 0.0 < base < math.inf:
        raise ValueError(f"resistance base must be finite and positive, got {base}")
    return float(base)


def _checked_order(p: float) -> float:
    """The one check of a capacity order p, which must be finite and exceed 1."""
    if not 1.0 < p < math.inf:
        raise ValueError(f"capacity order p must be finite and exceed 1, got {p}")
    return float(p)


def _contraction(phi: np.ndarray, s: float) -> np.ndarray:
    """x -> x / (1 + x^s)^{1/s}, evaluated as (1 + x^{-s})^{-1/s}.

    This form is exact at the boundary-contact value x = +inf (giving 1) and
    never overflows for large finite x.  Where x^{-s} overflows (small x, or
    a large s as p -> 1), x (1 + x^s)^{-1/s} is taken instead.
    """
    with np.errstate(divide="ignore", over="ignore"):
        out = phi ** -s
    small = out == math.inf if out.size and out.max() == math.inf else None
    out += 1.0
    out **= -1.0 / s
    if small is not None:
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
    s = 1.0 / (_checked_order(p) - 1.0)
    g = _checked_base(base) ** np.arange(1, len(sizes) + 1, dtype=float) * sizes
    m = g.min()
    with np.errstate(over="ignore"):
        total = np.sum(g ** -s)
        if 0.0 < total < math.inf or not 0.0 < m < math.inf:
            return float(total ** (-1.0 / s))
        return float(m * np.sum((g / m) ** -s) ** (-1.0 / s))


def capacity_recursion(tree: Tree, base: float, p: float, *,
                       roots_only: bool = False) -> np.ndarray:
    """phi by the leaf-to-root recursion phi(u) = R sum_children
    contraction(phi(v)), R = ``base``: every vertex's value, or with
    ``roots_only`` the roots' alone.  A tree's p-capacity is ``phi[0]``.

    R = R_u / R_v is the same on every edge, so each step is one product and
    phi stays in the double range at any depth.  The sweep carries the child
    sums R^{-1} phi, and its lift forms each phi as that one product.  Leaves
    are perfect boundary contacts: their contraction factor is exactly 1,
    which reproduces the Thomson value on every tree with at least one edge.
    A childless root gets 1, alone or in a forest: the root at unit
    resistance from the boundary, the same convention that sets R_root = 1.
    """
    s = 1.0 / (_checked_order(p) - 1.0)
    base = _checked_base(base)
    childless = np.flatnonzero(tree.num_children == 0)

    def lift(child: np.ndarray) -> np.ndarray:
        # every contraction is at most 1, so phi at most R * degree; a NaN
        # fails the test too
        contracted = _contraction(base * child, s)
        if contracted.size and not contracted.max() <= 1.0:
            raise FloatingPointError("phi exceeded the R * degree envelope")
        return contracted

    phi = None if roots_only else np.zeros(tree.num_vertices)
    seeds = (childless, np.full(len(childless), math.inf))
    roots = base * tree.sweep_up(seeds, lift, out=phi)
    roots[tree.num_children[:len(roots)] == 0] = 1.0
    if phi is not None:
        phi *= base
        phi[:len(roots)] = roots
    return roots if roots_only else phi


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
    p = _checked_order(p)
    q = p / (p - 1.0)
    t = nu * math.tanh(beta)
    if abs(t - 1.0) < CRITICALITY_TOL:
        return min(float(n) ** (-1.0 / (q - 1.0)), p_n)
    return p_n * t ** n
