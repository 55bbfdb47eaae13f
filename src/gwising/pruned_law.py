"""The explicit law of the pruned tree.

A Galton-Watson tree of depth n pruned by Bernoulli(p_n) leaf marks is again a
branching process, inhomogeneous in the generation and in n.  This module
computes its parameters exactly: the survival-probability profile gamma_k and
its leaf-indexed twin, the per-generation offspring laws (zero-truncated
binomial mixtures), their means, fractional variances and growth factors, the
transition generation k*, direct samplers, exact tree probabilities, and
total-variation diagnostics.

A profile builds its laws mu*_0, ..., mu*_{n-1} once, in one array call of
``ztb_mixture`` (``GammaProfile.laws``); every consumer reads that table.

A profile iterates one recursion per generation, on whichever of gamma_bar
and 1 - gamma_bar is small, and takes the other as the complement.  Both are
held in linear and in log space; a side below the linear underflow threshold
(doubly-exponential decay of gamma_bar, or a tiny p_n) is carried by its log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import ConsistencyError, LawTable, OffspringPmf, PmfError, ztb_mixture
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

    ``gamma[k]`` is the probability that a depth-k vertex is pruned;
    ``gamma_bar[k] = gamma[n-k]`` is the same indexed by distance to the
    leaves and satisfies gamma_bar_0 = 1 - p_n, gamma_bar_k = G(gamma_bar_{k-1}).
    ``log_gamma_bar`` and ``log_one_minus_gamma_bar`` stay finite past the
    linear underflow threshold, where the linear values are their exp.
    """

    pmf: OffspringPmf
    n: int
    p_n: float
    gamma_bar: np.ndarray
    one_minus_gamma_bar: np.ndarray
    log_gamma_bar: np.ndarray
    log_one_minus_gamma_bar: np.ndarray

    def __post_init__(self):
        for arr in (self.gamma_bar, self.one_minus_gamma_bar,
                    self.log_gamma_bar, self.log_one_minus_gamma_bar):
            arr.setflags(write=False)

    @cached_property
    def gamma(self) -> np.ndarray:
        return self.gamma_bar[::-1].copy()

    @cached_property
    def one_minus_gamma(self) -> np.ndarray:
        return self.one_minus_gamma_bar[::-1].copy()

    @cached_property
    def log_one_minus_gamma(self) -> np.ndarray:
        return self.log_one_minus_gamma_bar[::-1].copy()

    @cached_property
    def log_gamma(self) -> np.ndarray:
        return self.log_gamma_bar[::-1].copy()

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
        return _read_only([self.mean_generation_size(k, k + 1) for k in range(self.n)])

    @cached_property
    def m_0k(self) -> np.ndarray:
        """M*_{0,k} for k = 0..n."""
        return _read_only([self.mean_generation_size(0, k) for k in range(self.n + 1)])

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


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def gamma_profile(pmf: OffspringPmf, p_n: float, n: int) -> GammaProfile:
    """Iterate t = 1 - gamma_bar from p_n by t <- F(t) = 1 - G(1 - t) while
    nu t < 1/2 (so t stays below 1/2), then gamma_bar by G; the other side is
    the complement, its log from log1p.  A gamma_bar near 1 holds t only to an
    ulp of 1, so G would lose t there; past the switch t >= 1/(2 nu).  A side
    that is, or may step, below ``LINEAR_UNDERFLOW`` is carried by its log
    (log t + log nu, as F(t) = nu t there; or log G), its linear value by exp.

    Rejects p_n = 0, where the pruned law degenerates (conditioning on a null
    event).
    """
    if not (0.0 < p_n <= 1.0):
        raise ValueError("leaf mark probability must lie in (0, 1]")
    if not pmf.no_zero:
        raise PmfError("pruning a tree with internal extinction is not supported")
    nu = pmf.mean()
    log_nu = math.log(nu)
    log_floor = math.log(LINEAR_UNDERFLOW)
    # gamma_bar, 1 - gamma_bar, and their logs
    g, t, lg, lt = np.empty((4, n + 1))
    g[0], t[0] = 1.0 - p_n, p_n
    lg[0] = math.log1p(-p_n) if p_n < 1.0 else -math.inf
    lt[0] = math.log(p_n)
    for k in range(1, n + 1):
        if nu * t[k - 1] < 0.5:
            if lt[k - 1] < log_floor:
                lt[k] = lt[k - 1] + log_nu
                t[k] = math.exp(lt[k])
            else:
                t[k] = pmf.one_minus_gf_at_one_minus(t[k - 1])
                lt[k] = math.log(t[k])
            g[k], lg[k] = 1.0 - t[k], math.log1p(-t[k])
        else:
            # G(s) >= s^max_degree, so the linear step cannot underflow; the
            # product is taken on a Python float, which overflows to -inf
            # without a warning
            if pmf.max_degree * float(lg[k - 1]) < log_floor:
                lg[k] = pmf.log_gf(lg[k - 1])
                g[k] = math.exp(lg[k])
            else:
                g[k] = pmf.gf(g[k - 1])
                lg[k] = math.log(g[k])
            t[k], lt[k] = 1.0 - g[k], math.log1p(-g[k])
    return GammaProfile(pmf, n, p_n, g, t, lg, lt)


def mu_star(profile: GammaProfile, k: int) -> OffspringPmf:
    """Offspring law of generation k < n of the pruned tree: ``profile.laws[k]``."""
    if not 0 <= k <= profile.n - 1:
        raise ValueError("generation index must lie in [0, n-1]")
    return profile.laws[k]


def tilde_mu0(profile: GammaProfile) -> OffspringPmf:
    """Root offspring law: an atom gamma_0 at 0 (whole tree pruned) plus
    (1 - gamma_0) mu*_0."""
    gamma0 = float(profile.gamma[0])
    base = profile.laws[0]
    if gamma0 == 0.0:
        return base
    degrees = np.concatenate([[0], base.degrees])
    probs = np.concatenate([[gamma0], (1.0 - gamma0) * base.probs])
    return OffspringPmf(degrees, probs)


@dataclass(frozen=True, eq=False)
class PrunedMoments:
    """Moment tables of the pruned law at a fixed fractional order q."""

    profile: GammaProfile
    q: float
    nu_star: np.ndarray       # length n, means of mu*_k
    sigma_q_star: np.ndarray  # length n, q-variances of mu*_k
    m_0k: np.ndarray          # length n+1, M*_{0,k}
    v_kn: np.ndarray          # length n, v*_{k,n}


def moments(profile: GammaProfile, q: float) -> PrunedMoments:
    """Assemble nu*_k, sigma*_{q,k}, M*_{0,k} and v*_{k,n}.

    The q-variances are those of ``profile.laws``.  Since M*_{k,i} =
    nu*_k M*_{k+1,i}, v*_{k,n} = 1 + S_k with S_k = sigma*_{q,k} +
    nu*_k^{-(q-1)} S_{k+1} and S_n = 0.
    """
    n = profile.n
    sigma = np.array([law.q_variance(q) for law in profile.laws])
    v_kn = np.empty(n)
    tail = 0.0
    for k in range(n - 1, -1, -1):
        tail = sigma[k] + profile.nu_star[k] ** (-(q - 1.0)) * tail
        v_kn[k] = 1.0 + tail
    return PrunedMoments(profile, q, profile.nu_star, sigma, profile.m_0k, v_kn)


class PrunedLawSampler:
    """Caches the per-generation offspring laws of a profile for repeated
    direct sampling of the pruned tree: the root law tilde_mu0, whose atom at
    0 is the empty outcome, then mu*_1, ..., mu*_{n-1}."""

    def __init__(self, profile: GammaProfile):
        self.profile = profile
        self.laws = (tilde_mu0(profile), *profile.laws[1:])

    def sample(self, rng: np.random.Generator, roots: int = 1) -> Tree | None:
        """A forest of ``roots`` independent pruned trees, one
        ``sample_many`` per generation for all of them.

        Replica i is root i; an empty outcome is a childless root.  Returns
        None when every replica is empty, so one root gives a tree or None.
        """
        forest = sample_inhomogeneous_bp(self.laws, rng, roots=roots)
        return forest if forest.n > 0 else None


def pruned_tree_probability(shape: Tree | None, pmf: OffspringPmf, p_n: float,
                            n: int, profile: GammaProfile | None = None) -> float:
    """Exact probability of a pruned-tree outcome under the product law
    tilde_mu0(d_root) prod_k prod_{u in generation k} mu*_k(d_u).

    ``None`` stands for the empty tree and maps to gamma_0.  Shapes that are
    impossible outcomes (wrong depth, an internal leaf, a degree off the
    support) get probability 0.
    """
    if profile is None:
        profile = gamma_profile(pmf, p_n, n)
    if shape is None:
        return float(profile.gamma[0])
    if shape.n != n or (n > 0 and not shape.leaves_only_at_bottom):
        return 0.0
    prob = tilde_mu0(profile).mass(int(shape.num_children[0])) if n > 0 else 1.0 - profile.gamma[0]
    for k, law in enumerate(profile.laws[1:], start=1):
        for d in shape.offspring_of_generation(k):
            prob *= law.mass(int(d))
    return float(prob)


def tv_distance(a: OffspringPmf, b: OffspringPmf) -> float:
    """Total variation distance: half the L1 distance between the mass lists."""
    diff = np.zeros(max(a.max_degree, b.max_degree) + 1)
    diff[a.degrees] += a.probs
    diff[b.degrees] -= b.probs
    return 0.5 * float(np.abs(diff).sum())


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
    for k in range(profile.n + 1):
        t = float(profile.one_minus_gamma_bar[k])
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
    mom = moments(profile, q)
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
    c5 = max([0.0] + [(nu - mom.nu_star[k]) * math.exp(c4 * (ks - k)) for k in below]
             + [(mom.nu_star[k] - 1.0) * math.exp((k - ks) * log_nu) for k in above])
    c6 = max([0.0] + [mom.sigma_q_star[k] * math.exp((q - 1.0) * (k - ks) * log_nu)
                      for k in above])

    growth_ratio = mom.m_0k / nu ** np.minimum(np.arange(n + 1), ks)

    return {
        "q": q, "calibration_n": n, "calibration_p_n": p_n, "margin": margin,
        "c_q": float(c_q), "C_mu": float(c_mu), "c4": float(c4),
        "c5": float((1.0 + margin) * c5), "c6": float((1.0 + margin) * c6),
        "c7_prime": float((1.0 - margin) * growth_ratio.min()),
        "c8": float((1.0 + margin) * growth_ratio.max()),
        "C_v": float((1.0 + margin) * mom.v_kn.max()),
    }
