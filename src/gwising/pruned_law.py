"""The explicit law of the pruned tree.

A Galton-Watson tree of depth n pruned by Bernoulli(p_n) leaf marks is again a
branching process, inhomogeneous in the generation and in n.  This module
computes its parameters exactly: the survival-probability profile gamma_k, the
per-generation offspring laws (zero-truncated binomial mixtures), their means,
fractional variances and growth factors, the transition generation k*, direct
samplers, and total-variation diagnostics.

A profile builds its laws mu*_0, ..., mu*_{n-1} once, in one array call of
``ztb_mixture`` (``GammaProfile.laws``).  That table is their mass matrix, and
a row becomes a law only when it is first read: the means, q-variances,
distances and calibration read the matrix, so the exact scans make no row,
and ``PrunedLawSampler`` makes every row once, when it is built.

A profile iterates one recursion per generation from the leaves, on whichever
of gamma_bar_k = gamma_{n-k} and 1 - gamma_bar_k is small, and takes the other
as the complement.  Both are held in linear and in log space, in root order; a
side below the linear underflow threshold (doubly-exponential decay of
gamma_bar, or a tiny p_n) is carried by its log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import (ConsistencyError, LawTable, OffspringPmf, PmfError,
                            _setstate_frozen, ztb_mixture)
from .tree import Tree, sample_inhomogeneous_bp

LINEAR_UNDERFLOW = 1e-300
_LOG_MAX = math.log(np.finfo(float).max)
MEAN_CONSISTENCY_TOL = 1e-12
# fit_g_upper_constant fits on this many points of [0, 1) and rejects a
# constant above G_FIT_CAP as a sign that the input law is wrong
G_FIT_GRID_POINTS = 4001
G_FIT_CAP = 10.0
# calibrate_constants fits at depth CALIBRATION_N and leaf-mark probability
# CALIBRATION_P_N, loosening each fit by the fraction CALIBRATION_MARGIN
CALIBRATION_N = 30
CALIBRATION_P_N = 2.0**-15
CALIBRATION_MARGIN = 0.1


@dataclass(frozen=True, eq=False)
class GammaProfile:
    """Pruning probabilities for a base law ``pmf``, depth ``n``, leaf mark
    probability ``p_n``.

    ``gamma[k]`` is the probability that a depth-k vertex is pruned, for
    k = 0..n.  Read from the leaves, gamma_bar_k = ``gamma[n - k]`` satisfies
    gamma_bar_0 = 1 - p_n, gamma_bar_k = G(gamma_bar_{k-1}).  ``log_gamma`` and
    ``log_one_minus_gamma`` stay finite past the linear underflow threshold,
    where the linear values are their exp.  All four arrays are read-only.
    """

    pmf: OffspringPmf
    n: int
    p_n: float
    gamma: np.ndarray
    one_minus_gamma: np.ndarray
    log_gamma: np.ndarray
    log_one_minus_gamma: np.ndarray
    __setstate__ = _setstate_frozen

    def __post_init__(self):
        for arr in (self.gamma, self.one_minus_gamma,
                    self.log_gamma, self.log_one_minus_gamma):
            arr.setflags(write=False)

    @cached_property
    def laws(self) -> LawTable:
        """mu*_0, ..., mu*_{n-1}: the offspring laws of the pruned tree, the
        zero-truncated binomial mixtures with survival probability
        1 - gamma_{k+1}.  The mean of each row of the mass matrix is checked
        against the closed form nu*_k; disagreement raises ConsistencyError."""
        laws = ztb_mixture(self.pmf, self.one_minus_gamma[1:])
        means = (laws.masses * np.arange(1.0, laws.masses.shape[1] + 1)).sum(axis=1)
        off = np.flatnonzero(np.abs(means - self.nu_star)
                             > MEAN_CONSISTENCY_TOL * np.maximum(1.0, self.nu_star))
        if off.size:
            k = int(off[0])
            raise ConsistencyError(f"mu*_{k} mean {means[k]!r} disagrees with "
                                   f"closed form {self.nu_star[k]!r}")
        return laws

    @cached_property
    def nu_star(self) -> np.ndarray:
        """nu*_k = M*_{k,k+1} = nu (1 - gamma_{k+1}) / (1 - gamma_k), the mean
        offspring of generation k of the pruned tree, for k = 0..n-1."""
        ks = np.arange(self.n)
        return self._mean_generation_sizes(ks, ks + 1)

    @cached_property
    def m_0k(self) -> np.ndarray:
        """M*_{0,k} for k = 0..n."""
        return self._mean_generation_sizes(np.zeros(self.n + 1, dtype=np.int64),
                                           np.arange(self.n + 1))

    def _mean_generation_sizes(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``mean_generation_size`` over the index pairs (i, j), bit for bit:
        the linear entries as one array expression with Python-float powers
        nu^{j-i}, the others one call each."""
        nu = self.pmf.mean()
        num, den = self.one_minus_gamma[j], self.one_minus_gamma[i]
        linear = ((np.minimum(num, den) >= LINEAR_UNDERFLOW)
                  & ((j - i) * math.log(nu) < _LOG_MAX))
        powers = np.array([nu**e if ok else 1.0
                           for e, ok in zip((j - i).tolist(), linear.tolist())])
        out = powers * num / np.where(linear, den, 1.0)  # no 0/0 off the linear range
        for idx in np.flatnonzero(~linear).tolist():
            out[idx] = self.mean_generation_size(int(i[idx]), int(j[idx]))
        out.setflags(write=False)
        return out

    @property
    def k_star(self) -> float:
        """Transition generation log_nu(p_n nu^n), kept as a real number."""
        nu = self.pmf.mean()
        return self.n + math.log(self.p_n) / math.log(nu)

    def mean_generation_size(self, i: int, j: int) -> float:
        """M*_{i,j} = prod_{k=i}^{j-1} nu*_k = nu^{j-i} (1 - gamma_j) / (1 - gamma_i),
        in log space when a factor is below ``LINEAR_UNDERFLOW`` or nu^{j-i}
        overflows; inf only when M*_{i,j} itself exceeds the double range."""
        if not 0 <= i <= j <= self.n:
            raise ValueError("need 0 <= i <= j <= n")
        nu = self.pmf.mean()
        num, den = float(self.one_minus_gamma[j]), float(self.one_minus_gamma[i])
        if min(num, den) >= LINEAR_UNDERFLOW and (j - i) * math.log(nu) < _LOG_MAX:
            return nu ** (j - i) * num / den
        log_m = (j - i) * math.log(nu) + self.log_one_minus_gamma[j] - self.log_one_minus_gamma[i]
        return math.exp(log_m) if log_m < _LOG_MAX else math.inf


def gamma_profile(pmf: OffspringPmf, p_n: float, n: int) -> GammaProfile:
    """Iterate t = 1 - gamma_bar from p_n by t <- F(t) = 1 - G(1 - t) while
    nu t < 1/2 (so t stays below 1/2), then gamma_bar by G; the other side is
    the complement, its log from log1p.  A gamma_bar near 1 holds t only to an
    ulp of 1, so G would lose t there; past the switch t >= 1/(2 nu).  A side
    that is, or may step, below ``LINEAR_UNDERFLOW`` is carried by its log
    (log t + log nu, as F(t) = nu t there; or log G), its linear value by exp.

    The rows come out leaf first and are reversed once, so gamma_bar_k is
    ``gamma[n - k]`` of the returned profile.

    Rejects p_n = 0, where the pruned law degenerates (conditioning on a null
    event).
    """
    if not (0.0 < p_n <= 1.0):
        raise ValueError("leaf mark probability must lie in (0, 1]")
    if n < 0:
        raise ValueError(f"depth n must be nonnegative, got {n}")
    if not pmf.no_zero:
        raise PmfError("pruning a tree with internal extinction is not supported")
    nu = pmf.mean()
    log_nu = math.log(nu)
    log_floor = math.log(LINEAR_UNDERFLOW)
    max_degree = pmf.max_degree
    # gamma_bar, 1 - gamma_bar, and their logs, as Python floats
    g, t = 1.0 - p_n, p_n
    lg = math.log1p(-p_n) if p_n < 1.0 else -math.inf
    lt = math.log(p_n)
    rows = [(g, t, lg, lt)]
    for _ in range(n):
        if nu * t < 0.5:
            if lt < log_floor:
                lt += log_nu
                t = math.exp(lt)
            else:
                t = pmf.one_minus_gf_at_one_minus(t)
                lt = math.log(t)
            g, lg = 1.0 - t, math.log1p(-t)
        else:
            # G(s) >= s^max_degree, so the linear step cannot underflow; the
            # product of Python floats overflows to -inf without a warning
            if max_degree * lg < log_floor:
                lg = pmf.log_gf(lg)
                g = math.exp(lg)
            else:
                g = pmf.gf(g)
                lg = math.log(g)
            t, lt = 1.0 - g, math.log1p(-g)
        rows.append((g, t, lg, lt))
    g, t, lg, lt = np.array(rows[::-1]).T.copy()
    return GammaProfile(pmf, n, p_n, g, t, lg, lt)


def mu_star(profile: GammaProfile, k: int) -> OffspringPmf:
    """Offspring law of generation k < n of the pruned tree: ``profile.laws[k]``."""
    if not 0 <= k <= profile.n - 1:
        raise ValueError("generation index must lie in [0, n-1]")
    return profile.laws[k]


def moments(profile: GammaProfile, q: float) -> tuple[np.ndarray, np.ndarray]:
    """The q-variances sigma*_{q,k} of ``profile.laws`` and v*_{k,n}, both
    for k = 0..n-1; nu*_k and M*_{0,k} are ``profile.nu_star`` and
    ``profile.m_0k``.

    Since M*_{k,i} = nu*_k M*_{k+1,i}, v*_{k,n} = 1 + S_k with S_k =
    sigma*_{q,k} + nu*_k^{-(q-1)} S_{k+1} and S_n = 0.
    """
    sigma = profile.laws.q_variances(q)
    # on Python floats: a float's power is numpy's scalar power bit for bit,
    # where numpy's array power is not
    nu, terms = profile.nu_star.tolist(), sigma.tolist()
    v_kn = [0.0] * profile.n
    tail = 0.0
    for k in range(profile.n - 1, -1, -1):
        tail = terms[k] + nu[k] ** (-(q - 1.0)) * tail
        v_kn[k] = 1.0 + tail
    return sigma, np.array(v_kn)


class PrunedLawSampler:
    """Direct sampling of the pruned tree conditioned on survival, generation
    k from mu*_k (``laws``, the rows of ``profile.laws``), so no draw is
    empty.  The tree is empty with probability gamma_0, and there the root
    ratio and capacity are 0."""

    def __init__(self, profile: GammaProfile):
        self.profile = profile
        # every row made now, so forked scan workers inherit the laws, not remake them
        self.laws = tuple(profile.laws)

    def sample(self, rng: np.random.Generator, roots: int = 1) -> Tree:
        """A forest of ``roots`` independent surviving pruned trees, one
        ``sample_many`` per generation for all of them; replica i is root i."""
        return sample_inhomogeneous_bp(self.laws, rng, roots=roots)


def tv_profile(profile: GammaProfile) -> tuple[np.ndarray, np.ndarray]:
    """Per-generation distances d_TV(mu*_k, mu) and d_TV(mu*_k, dirac_1).

    The first is small deep below k* (the pruned tree still looks like the
    original), the second small far above k* (thin branches).  Both are
    row-wise L1 distances over the mass matrix of ``profile.laws``, each row
    summed over the degrees up to the larger of the two supports, as
    ``tv_distance`` does."""
    masses = profile.laws.masses
    diff = np.zeros((len(masses), masses.shape[1] + 1))
    diff[:, 1:] = masses
    to_dirac_diff = diff.copy()
    diff[:, profile.pmf.degrees] -= profile.pmf.probs
    to_mu = 0.5 * np.abs(diff).sum(axis=1)
    to_dirac_diff[:, 1] -= 1.0
    to_dirac = np.empty(len(masses))
    top = masses.shape[1] - np.argmax(masses[:, ::-1] > 0, axis=1)  # largest degree of each law
    for width in set(top.tolist()):
        rows = top == width
        to_dirac[rows] = 0.5 * np.abs(to_dirac_diff[rows, :width + 1]).sum(axis=1)
    return to_mu, to_dirac


def tv_crossing(to_mu: np.ndarray, to_dirac: np.ndarray) -> float:
    """First generation where the distance to mu overtakes the distance to
    dirac_1 (linear interpolation between the bracketing integers)."""
    diff = to_mu - to_dirac
    sign_change = np.flatnonzero((diff[:-1] < 0) & (diff[1:] >= 0))
    if diff[0] >= 0:
        return 0.0
    if sign_change.size == 0:
        return float(len(diff) - 1)
    k = int(sign_change[0])
    span = diff[k + 1] - diff[k]
    return k + (-diff[k] / span if span != 0 else 1.0)


# -- phase-transition window bounds ----------------------------------------


def k1_bar_star(profile: GammaProfile, q: float, c_mu: float) -> int:
    """min{ k : sum_{i<=k} C_mu (1 - gamma_bar_i)^{q-1} > 1/2 }, or n when the
    running sum never exceeds 1/2 (the pre-window then covers every k)."""
    acc = 0.0
    for k, t in enumerate(profile.one_minus_gamma[::-1].tolist()):
        acc += c_mu * t ** (q - 1.0)
        if acc > 0.5:
            return k
    return profile.n


def fit_g_upper_constant(pmf: OffspringPmf, q: float) -> float:
    """Smallest c with G(s) <= 1 + nu (s-1) + c m_q (1-s)^q on a dense grid.

    The paper's constant is existential; fits above ``G_FIT_CAP`` are
    rejected as a sign something is wrong with the input law.
    """
    nu = pmf.mean()
    m_q = pmf.q_moment(q)
    s = np.linspace(0.0, 1.0, G_FIT_GRID_POINTS)[:-1]
    gap = pmf.gf(s) - (1.0 + nu * (s - 1.0))
    ratio = gap / (m_q * (1.0 - s) ** q)
    c = float(np.max(ratio))
    if c > G_FIT_CAP:
        raise ConsistencyError(f"fitted G-bound constant {c} exceeds cap {G_FIT_CAP}")
    return max(c, 0.0)


def calibrate_constants(pmf: OffspringPmf, q: float) -> dict:
    """One-off calibration of the existential constants of the transition
    bounds, at the moderate (n, p_n) = (CALIBRATION_N, CALIBRATION_P_N); the
    results are frozen into fixtures and asserted unchanged on larger grids.

    Keys: c_q and C_mu (generating-function bounds), c4 (gamma decay below
    k*), c5 (mean gaps), c6 (q-variance decay), c7_prime / c8 (growth factor
    bracket), C_v (uniform bound on v*_{k,n}).  ``CALIBRATION_MARGIN``
    loosens each fit by that fraction: the raw min/max ratio is exactly
    tight at the calibration point, and profiles at other (n, p_n) sit at a
    different phase of the transition window, drifting by a few percent.
    """
    n, p_n, margin = CALIBRATION_N, CALIBRATION_P_N, CALIBRATION_MARGIN
    profile = gamma_profile(pmf, p_n, n)
    sigma, v_kn = moments(profile, q)
    nu_star = profile.nu_star
    nu = pmf.mean()
    log_nu = math.log(nu)
    ks = profile.k_star
    below = [k for k in range(0, min(math.floor(ks), n) + 1) if ks - k > 0]
    above = [k for k in range(max(math.ceil(ks), 0), n)]

    c_q = fit_g_upper_constant(pmf, q)
    c_mu = c_q * pmf.q_moment(q) / nu

    log_gamma = profile.log_gamma.tolist()
    c4 = min((-log_gamma[k] / (ks - k) for k in below if log_gamma[k] > -math.inf),
             default=math.inf)
    c4 = (1.0 - margin) * c4 if math.isfinite(c4) else 1.0
    # a zero gap nu - nu*_k is a zero term, whatever its exp (which can overflow)
    c5 = max([0.0] + [(nu - nu_star[k]) * math.exp(c4 * (ks - k)) for k in below
                      if nu_star[k] != nu]
             + [(nu_star[k] - 1.0) * math.exp((k - ks) * log_nu) for k in above])
    c6 = max([0.0] + [sigma[k] * math.exp((q - 1.0) * (k - ks) * log_nu)
                      for k in above])

    growth_ratio = profile.m_0k / nu ** np.minimum(np.arange(n + 1), ks)

    return {
        "q": q, "calibration_n": n, "calibration_p_n": p_n, "margin": margin,
        "c_q": float(c_q), "C_mu": float(c_mu), "c4": float(c4),
        "c5": float((1.0 + margin) * c5), "c6": float((1.0 + margin) * c6),
        "c7_prime": float((1.0 - margin) * growth_ratio.min()),
        "c8": float((1.0 + margin) * growth_ratio.max()),
        "C_v": float((1.0 + margin) * v_kn.max()),
    }
