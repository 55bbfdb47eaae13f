"""Oracles that exist only to check the rest of the package, and the suites of
``gwising validate`` built on them.

Gibbs enumeration checks the ratio recursion, exhaustive tree enumeration and
exact pruned-tree probabilities check the pruned law, the spherical closed
form, convex flow minimization and Thomson flows check the capacity
recursion, and the truncated-binomial route checks ``ztb_mixture``.  No scan
imports this module; the ``validate`` command loads it when it runs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import capacity as cap
from . import ising
from .capacity import _checked_base, _series_capacity
from .distributions import MIXTURE_CONSISTENCY_TOL, OffspringPmf, logsumexp, ztb_mixture
from .experiments import ConfigError
from .fields import FieldMode, _checked_field, plus_boundary_field, prune, sample_field
from .pruned_law import GammaProfile, gamma_profile
from .tree import PopulationCapError, Tree, sample_gw, segment_sums

BRUTEFORCE_MAX_FREE_SPINS = 24
# enumerate_trees refuses a (law, depth) with more trees than this
MAX_ENUMERATED_TREES = 10**6
# capacity_bruteforce stops once the relative energy change stays below
# BRUTEFORCE_REL_TOL for BRUTEFORCE_PATIENCE iterations in a row, or after
# BRUTEFORCE_MAX_ITER iterations, unconverged
BRUTEFORCE_REL_TOL = 1e-12
BRUTEFORCE_PATIENCE = 50
BRUTEFORCE_MAX_ITER = 100_000
# the couplings the Lyons and pruning suites cycle through, and the capacity
# orders of the capacity oracle suite
SUITE_BETAS = (0.3, 0.7, 1.2)
SUITE_CAPACITY_ORDERS = (1.5, 2.0, 3.0)
# random_small_tree draws offspring counts uniformly from 1..SMALL_TREE_MAX_DEGREE
SMALL_TREE_MAX_DEGREE = 3


class ExplosionGuardError(RuntimeError):
    """Exhaustive enumeration would produce too many trees."""


def gibbs_bruteforce(tree: Tree, h: np.ndarray | None, beta: float,
                     plus_boundary_condition: bool = False,
                     chunk: int = 1 << 14) -> tuple[float, float]:
    """Exhaustive-enumeration oracle for the root magnetization.

    Enumerates all spin configurations of the Ising measure with coupling 1,
    accumulating the root-conditioned partition sums in log space (streamed
    log-sum-exp per chunk; direct products would overflow immediately).
    Returns ``(m, r)`` with r = log Z(+) - log Z(-) and m = tanh(r/2), under
    the field ``h`` (None for no field).

    ``plus_boundary_condition`` hard-fixes every leaf spin to +1, matching the
    +inf initialization of the recursion; a plus boundary *field* is instead
    passed as an ordinary all-ones-on-leaves field.
    """
    nv = tree.num_vertices
    h = np.zeros(nv) if h is None else _checked_field(tree, h).astype(float)
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


def leaf_counts(tree: Tree) -> np.ndarray:
    """Per-vertex count of bottom-generation descendants (self included at
    the bottom); the numerator of the uniform flow."""
    counts = np.zeros(tree.num_vertices, dtype=np.int64)
    bottom = np.arange(tree.gen_offsets[tree.n], tree.num_vertices)
    tree.sweep_up((bottom, np.ones(len(bottom), dtype=np.int64)),
                  lambda child, _: child, lambda sums, _: sums, out=counts)
    return counts


def count_trees(pmf: OffspringPmf, depth: int) -> int:
    """Number of depth-``depth`` trees with out-degrees in the pmf's support."""
    count = 1
    for _ in range(depth):
        count = sum(count**int(d) for d in pmf.degrees if d > 0)
    return count


def enumerate_trees(pmf: OffspringPmf, depth: int):
    """Yield every depth-``depth`` tree with degrees in the support, with its
    exact Galton-Watson probability prod_u mu(d_u) over internal vertices.

    Probabilities sum to 1 whenever the support has no mass at 0.  Guarded by
    ``MAX_ENUMERATED_TREES`` to keep the enumeration from exploding.
    """
    if count_trees(pmf, depth) > MAX_ENUMERATED_TREES:
        raise ExplosionGuardError(
            f"more than {MAX_ENUMERATED_TREES} trees of depth {depth} for this support"
        )
    degrees = [int(d) for d in pmf.degrees if d > 0]

    def shapes(d: int):
        # a shape is the tuple of child shapes; leaves are empty tuples
        if d == 0:
            yield ()
            return
        below = list(shapes(d - 1))
        for root_deg in degrees:
            yield from itertools.product(below, repeat=root_deg)

    for shape in shapes(depth):
        tree = tree_from_shape(shape)
        yield tree, gw_probability(tree, pmf)


def tree_from_shape(shape: tuple) -> Tree:
    """Build the arena for a nested-tuple shape (children given in order)."""
    counts_per_gen = []
    level = [shape]
    while level and any(len(s) for s in level):
        counts_per_gen.append(np.array([len(s) for s in level], dtype=np.int64))
        level = [c for s in level for c in s]
    if not counts_per_gen:
        counts_per_gen = [np.zeros(1, dtype=np.int64)]
    return Tree.from_offspring_counts(counts_per_gen)


def gw_probability(tree: Tree, pmf: OffspringPmf) -> float:
    """Exact probability of the tree under the Galton-Watson law."""
    prob = 1.0
    for v in range(tree.gen_offsets[tree.n] if tree.n > 0 else 0):
        prob *= pmf.mass(int(tree.num_children[v]))
    return prob


def zero_truncated_binomial(n: int, p: float) -> OffspringPmf:
    """Binomial(n, p) conditioned on being positive, as a pmf on {1, ..., n}.

    Rejects p = 0: conditioning on a null event leaves the law undefined.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    if not (0.0 < p <= 1.0):
        raise ValueError("success probability must lie in (0, 1]")
    # 1 - (1-p)^n without cancellation
    denom = -math.expm1(n * math.log1p(-p)) if p < 1.0 else 1.0
    masses = [math.comb(n, n - d) * (1.0 - p) ** (n - d) * p**d / denom
              for d in range(1, n + 1)]
    return OffspringPmf(np.arange(1, n + 1), np.array(masses))


def ztb_mixture_by_truncated_binomials(pmf: OffspringPmf, p: float) -> np.ndarray:
    """Oracle for ``ztb_mixture``: its masses on degrees 1..max_degree, as the
    mix of ``zero_truncated_binomial(D, p)`` over D ~ ``pmf`` with weights
    proportional to the per-D survival probabilities 1 - (1-p)^D."""
    survival_norm = float(pmf.one_minus_gf_at_one_minus(p))  # 1 - G(1-p)
    masses = np.zeros(pmf.max_degree)
    for big_d, mass in zip(pmf.degrees, pmf.probs):
        big_d = int(big_d)
        surv_d = -math.expm1(big_d * math.log1p(-p)) if p < 1.0 else 1.0
        ztb = zero_truncated_binomial(big_d, p)
        masses[ztb.degrees - 1] += mass * surv_d / survival_norm * ztb.probs
    return masses


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


def _vertex_resistances(tree: Tree, base: float) -> np.ndarray:
    """R_u = base^{-|u|} per vertex (a root keeps R = 1), for the flow oracles."""
    r_gen = _checked_base(base) ** -np.arange(tree.n + 1, dtype=float)
    return np.repeat(r_gen, tree.generation_sizes())


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


def capacity_bruteforce(tree: Tree, base: float, p: float) -> tuple[float, np.ndarray, bool]:
    """Direct minimization of the Thomson energy over unit flows: the
    capacity, the read-only optimal flow theta and whether it converged.

    The flow is parameterized by splitting fractions on each internal
    vertex's child simplex, which makes conservation structural; projected
    gradient descent with a backtracking (and adaptively grown) step then
    converges to the optimum of the underlying convex problem.  Stops when
    the relative objective change stays below ``BRUTEFORCE_REL_TOL`` for
    ``BRUTEFORCE_PATIENCE`` consecutive iterations; hitting
    ``BRUTEFORCE_MAX_ITER`` first returns the best value, unconverged.
    """
    if p <= 1:
        raise ValueError("capacity order p must exceed 1")
    if tree.num_vertices > 200:
        raise ValueError("oracle is limited to 200 vertices")
    r_vertex = _vertex_resistances(tree, base)
    if tree.num_vertices == 1:
        return 1.0, uniform_flow(tree), True
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
        # the lift reads the vertex, so generation n-1 must hold a seed when
        # the leaves do: the root's h is 0, and it is seeded too
        seeded = np.append(0, np.flatnonzero(h[1:]) + 1)
        tree.sweep_up((seeded, h[seeded]), lambda child, nxt: a_vec[nxt] * child,
                      lambda sums, _: sums, out=h)
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
    return capacity, theta, converged


# -- validation suites ------------------------------------------------------


def random_small_tree(rng: np.random.Generator, max_vertices: int = 14,
                      max_depth: int = 4) -> Tree:
    """Rejection-sample a Galton-Watson tree with uniform offspring on
    1..SMALL_TREE_MAX_DEGREE, a uniform depth in 1..max_depth and at most
    ``max_vertices`` vertices."""
    law = OffspringPmf(np.arange(1, SMALL_TREE_MAX_DEGREE + 1),
                       np.full(SMALL_TREE_MAX_DEGREE, 1.0 / SMALL_TREE_MAX_DEGREE))
    while True:
        depth = int(rng.integers(1, max_depth + 1))
        try:
            return sample_gw(law, depth, rng, max_vertices)
        except PopulationCapError:
            pass


def suite_lyons_vs_bruteforce(instances: int, seed: int = 0) -> dict:
    """Recursion against exhaustive Gibbs enumeration on random instances."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    max_err = 0.0
    for i in range(instances):
        tree = random_small_tree(rng)
        beta = SUITE_BETAS[i % len(SUITE_BETAS)]
        mode = (FieldMode.WHOLE_TREE, FieldMode.LEAVES_ONLY,
                FieldMode.PLUS_BOUNDARY)[(i // len(SUITE_BETAS)) % 3]
        h = sample_field(tree, mode, float(rng.uniform(0.1, 0.9)), rng)
        r_rec = float(ising.lyons_field(tree, h, beta)[0])
        m_brute, r_brute = gibbs_bruteforce(tree, h, beta)
        max_err = max(max_err, abs(r_rec - r_brute),
                      abs(ising.magnetization(r_rec) - m_brute))
    return {"suite": "lyons_vs_bruteforce", "instances": instances,
            "max_error": float(max_err), "tolerance": 1e-10,
            "pass": bool(max_err <= 1e-10)}


def suite_pruning_equivalence(instances: int, seed: int = 0) -> dict:
    """Field-on-leaves ratios equal plus-field ratios on the pruned tree,
    vertex by vertex, with exact zeros on pruned-away vertices."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(102,)))
    max_err = 0.0
    exact_zero_off_tree = True
    for i in range(instances):
        tree = random_small_tree(rng, max_vertices=40, max_depth=5)
        beta = SUITE_BETAS[i % len(SUITE_BETAS)]
        h = sample_field(tree, FieldMode.LEAVES_ONLY, float(rng.uniform(0.1, 0.7)), rng)
        r_full = ising.lyons_field(tree, h, beta)
        outcome = prune(tree, h)
        if outcome is None:
            exact_zero_off_tree &= bool(np.all(r_full == 0.0))
            continue
        pruned, mapping = outcome
        r_pruned = ising.lyons_field(pruned, plus_boundary_field(pruned), beta)
        kept = mapping >= 0
        max_err = max(max_err, float(np.abs(r_full[kept] - r_pruned[mapping[kept]]).max()))
        exact_zero_off_tree &= bool(np.all(r_full[~kept] == 0.0))
    return {"suite": "pruning_equivalence", "instances": instances,
            "max_error": float(max_err), "tolerance": 1e-12,
            "exact_zero_off_tree": exact_zero_off_tree,
            "pass": bool(max_err <= 1e-12 and exact_zero_off_tree)}


def suite_pruned_law_exact() -> dict:
    """Exhaustive (tree, field) enumeration against the product-law formula
    for small depths, including the empty-tree atom."""
    base_laws = [OffspringPmf.dirac(2), OffspringPmf.from_dict({1: 0.5, 2: 0.5})]
    max_err = 0.0
    count = 0
    for pmf in base_laws:
        for p in (0.3, 0.5, 0.8):
            for n in (1, 2):
                exact: dict = {}
                profile = gamma_profile(pmf, p, n)
                for tree, tree_prob in enumerate_trees(pmf, n):
                    leaves = tree.generation_size(n)
                    for bits in itertools.product((0, 1), repeat=leaves):
                        h = np.zeros(tree.num_vertices, dtype=np.uint8)
                        h[tree.gen_offsets[n]:] = bits
                        f_prob = p ** sum(bits) * (1 - p) ** (leaves - sum(bits))
                        outcome = prune(tree, h)
                        key = None if outcome is None else outcome[0]
                        exact[key] = exact.get(key, 0.0) + tree_prob * f_prob
                for shape, prob in exact.items():
                    formula = pruned_tree_probability(shape, pmf, p, n, profile=profile)
                    max_err = max(max_err, abs(prob - formula))
                    count += 1
                max_err = max(max_err, abs(sum(exact.values()) - 1.0))
    return {"suite": "pruned_law_exact", "instances": count,
            "max_error": float(max_err), "tolerance": 1e-12,
            "pass": bool(max_err <= 1e-12)}


def suite_capacity_oracle(instances: int = 50, seed: int = 0) -> dict:
    """Capacity recursion against the flow-minimization oracle, plus Thomson
    dominance of the uniform flow, on random weighted trees."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(103,)))
    max_rel_gap = 0.0
    min_slack = math.inf
    for i in range(instances):
        tree = random_small_tree(rng, max_vertices=200, max_depth=5)
        base = float(rng.uniform(0.5, 1.5))
        for p in SUITE_CAPACITY_ORDERS:
            exact = cap.capacity_recursion(tree, base, p)[0]
            oracle, _, _ = capacity_bruteforce(tree, base, p)
            max_rel_gap = max(max_rel_gap, abs(oracle - exact) / exact)
            if tree.leaves_only_at_bottom:
                estimate = flow_energy(tree, uniform_flow(tree), base, p)
                min_slack = min(min_slack, estimate - 1.0 / exact)
    return {"suite": "capacity_recursion_vs_oracle", "instances": instances,
            "max_error": float(max_rel_gap), "tolerance": 1e-6,
            "min_thomson_slack": float(min_slack),
            "pass": bool(max_rel_gap <= 1e-6 and min_slack >= -1e-10)}


def suite_ztb_mixture_routes(instances: int, seed: int = 0) -> dict:
    """``ztb_mixture`` (the double sum) against the survival-weighted mixture
    of zero-truncated binomials, on random laws over degrees 1..12 with
    p = 1 or log-uniform in [1e-12, 1]."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(104,)))
    max_err = 0.0
    for i in range(instances):
        degrees = np.sort(rng.choice(np.arange(1, 13), size=int(rng.integers(1, 7)),
                                     replace=False))
        weights = rng.uniform(1e-3, 1.0, size=len(degrees))
        pmf = OffspringPmf(degrees, weights / weights.sum())
        p = 1.0 if i % 10 == 0 else float(10.0 ** rng.uniform(-12.0, 0.0))
        law = ztb_mixture(pmf, p)
        masses = np.zeros(pmf.max_degree)
        masses[law.degrees - 1] = law.probs
        err = np.abs(masses - ztb_mixture_by_truncated_binomials(pmf, p)).max()
        max_err = max(max_err, float(err))
    return {"suite": "ztb_mixture_routes", "instances": instances,
            "max_error": max_err, "tolerance": MIXTURE_CONSISTENCY_TOL,
            "pass": bool(max_err <= MIXTURE_CONSISTENCY_TOL)}


def run_validation(seed: int, instances: int, oracle_instances: int) -> dict:
    """All oracle-equivalence suites; machine-readable, failures enumerated.

    Rejects an instance count below 1 (a suite that checks nothing cannot
    pass) and a negative seed."""
    if instances < 1 or oracle_instances < 1:
        raise ConfigError(f"validation needs at least one instance per suite, got "
                          f"instances={instances}, oracle_instances={oracle_instances}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    suites = [
        suite_lyons_vs_bruteforce(instances, seed),
        suite_pruning_equivalence(instances, seed),
        suite_pruned_law_exact(),
        suite_capacity_oracle(oracle_instances, seed),
        suite_ztb_mixture_routes(instances, seed),
    ]
    return {"suites": suites, "pass": all(s["pass"] for s in suites)}
