"""Oracles that exist only to check the rest of the package, and the suites of
``gwising validate`` built on them.

Gibbs enumeration checks the ratio recursion, exhaustive tree enumeration and
exact pruned-tree probabilities check the pruned law, the spherical closed
form, a duality certificate and Thomson flows check the capacity recursion,
and the truncated-binomial route checks ``ztb_mixture``.  No scan imports
this module; the ``validate`` command loads it when it runs.
"""

from __future__ import annotations

import itertools
import math
import sys

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
    tree.sweep_up((bottom, np.ones(len(bottom), dtype=np.int64)), lambda child: child,
                  out=counts)
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
    masses = [_binomial_term(math.comb(n, n - d), n - d, d, p) / denom
              for d in range(1, n + 1)]
    return OffspringPmf(np.arange(1, n + 1), np.array(masses))


def _binomial_term(comb: int, failures: int, successes: int, p: float) -> float:
    """comb (1-p)^failures p^successes: a float product, or by logarithms
    where the integer ``comb`` passes the double range (from n = 1,030)."""
    if comb <= sys.float_info.max:
        return comb * (1.0 - p) ** failures * p**successes
    if p == 1.0:  # past the double range some trial fails, which p = 1 rules out
        return 0.0
    return math.exp(math.log(comb) + failures * math.log1p(-p) + successes * math.log(p))


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


def _resistance_powers(tree: Tree, base: float, x: np.ndarray, a: float, b: float):
    """R_u^a x(u)^b of each vertex u below the root, given x there, as one
    exponential: no value in the double range is lost to a factor outside it
    (near p = 1, R_u^s overflows and theta(u)^q underflows); x = 0 gives 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(a * np.log(_vertex_resistances(tree, base)[1:]) + b * np.log(x))


def flow_energy(tree: Tree, theta: np.ndarray, base: float, p: float) -> float:
    """Thomson resistance estimate (sum_{u != root} R_u^s theta(u)^q)^{p-1}
    of the vertex flow ``theta``.

    An upper bound on the exact p-resistance for every unit flow, tight
    exactly at the optimizer; a flow whose root is not 1, or that leaks at a
    vertex with children, by more than 1e-9, raises ValueError.
    """
    if not abs(theta[0] - 1.0) <= 1e-9:
        raise ValueError("flow must have unit strength")
    leak = theta - segment_sums(theta[tree.num_roots:], tree.num_children)
    if not np.all(np.abs(leak[tree.num_children > 0]) <= 1e-9):
        raise ValueError("flow must be conserved at every vertex with children")
    s, q = 1.0 / (p - 1.0), p / (p - 1.0)
    return float(np.sum(_resistance_powers(tree, base, theta[1:], s, q))) ** (p - 1.0)


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


def capacity_certificate(tree: Tree, base: float, p: float) -> tuple[float, float]:
    """Lower and upper bounds on the p-capacity of a single tree by weak
    duality, for ``capacity_recursion``'s phi[0] to lie between.

    The capacity is E_min^{-(p-1)}, E_min the least energy E(theta) over
    unit flows.  The flow that splits each vertex's flow over its children in
    proportion to ``_contraction`` of their phi bounds E_min from above, by
    ``flow_energy``.  Any potential V that is 0 at each childless vertex
    bounds it from below: E_min >= t V(root) - t^p C for all t > 0, with
    C = (q-1) q^{-p} sum_{u != root} max(V(parent u) - V(u), 0)^p / R_u, at
    best t V(root) / q at t = (V(root) / (p C))^s.  Here theta(u) V(u) sums
    the optimal drops q R_w^s theta(w)^{q-1} of the vertices w below u,
    weighted by flow.  Neither bound assumes theta or V optimal, so a wrong
    phi or ``_contraction`` opens the gap or leaves phi[0] outside it.

    The single vertex gets (1, 1), the recursion's convention.  Where a sum
    leaves the double range (p near 1, large p, a deep tree), ValueError.
    """
    phi = cap.capacity_recursion(tree, base, p)  # checks p and the base
    if tree.num_roots != 1:
        raise ValueError("the certificate takes a single tree, not a forest")
    if tree.num_vertices == 1:
        return 1.0, 1.0
    s, q = 1.0 / (p - 1.0), p / (p - 1.0)
    parent, offsets = tree.parent, tree.gen_offsets.tolist()
    with np.errstate(all="ignore"):  # a value out of range fails the check below
        weight = cap._contraction(phi[1:], s)
        share = weight / segment_sums(weight, tree.num_children)[parent[1:]]
        theta = np.ones(tree.num_vertices)
        for lo, hi in zip(offsets[1:-1], offsets[2:]):
            theta[lo:hi] = theta[parent[lo:hi]] * share[lo - 1:hi - 1]
        own = q * _resistance_powers(tree, base, theta[1:], s, q)  # theta(u) times its drop
        below = np.zeros(tree.num_vertices)
        tree.sweep_up((np.arange(1, tree.num_vertices), own), lambda x: x, out=below)
        potential = segment_sums(below[1:], tree.num_children) / theta
        drop = np.maximum(potential[parent[1:]] - potential[1:], 0.0)
        penalty = (q - 1.0) * q ** -p * np.sum(_resistance_powers(tree, base, drop, -1.0, p))
        t = (potential[0] / (p * penalty)) ** s
        energy = t * potential[0] / q
        upper = float(energy ** (1.0 - p))
    # V(root) = q E(theta) and t is about 1, so E(theta)^{p-1} is in range too
    if not (energy >= np.finfo(float).tiny and 0.0 < upper < math.inf):
        raise ValueError(f"the certificate's sums leave the double range at p = {p}, "
                         f"base {base}, depth {tree.n}")
    return 1.0 / flow_energy(tree, theta, base, p), upper


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
        # None is the plus boundary slot, which draws p all the same
        mode = (FieldMode.WHOLE_TREE, FieldMode.LEAVES_ONLY, None)[(i // len(SUITE_BETAS)) % 3]
        p = float(rng.uniform(0.1, 0.9))
        h = plus_boundary_field(tree) if mode is None else sample_field(tree, mode, p, rng)
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
    """Capacity recursion against its duality certificate, plus Thomson
    dominance of the uniform flow, on random weighted trees and on sampled
    half-{1,2} trees of depths 10, 13 and 16.  ``max_error`` is the larger of
    the certificate's relative gap and phi[0]'s relative distance outside it."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(103,)))
    cases = [(random_small_tree(rng, max_vertices=200, max_depth=5),
              float(rng.uniform(0.5, 1.5))) for _ in range(instances)]
    half12 = OffspringPmf.from_dict({1: 0.5, 2: 0.5})
    cases += [(sample_gw(half12, depth, rng), float(rng.uniform(0.5, 1.5)))
              for depth in (10, 13, 16)]
    max_err = 0.0
    min_slack = math.inf
    for tree, base in cases:
        for p in SUITE_CAPACITY_ORDERS:
            exact = cap.capacity_recursion(tree, base, p)[0]
            lower, upper = capacity_certificate(tree, base, p)
            max_err = max(max_err, abs(upper - lower) / upper,
                          (lower - exact) / exact, (exact - upper) / exact)
            if tree.leaves_only_at_bottom:
                estimate = flow_energy(tree, uniform_flow(tree), base, p)
                min_slack = min(min_slack, estimate - 1.0 / exact)
    return {"suite": "capacity_recursion_vs_oracle", "instances": len(cases),
            "max_error": float(max_err), "tolerance": 1e-12,
            "min_thomson_slack": float(min_slack),
            "pass": bool(max_err <= 1e-12 and min_slack >= -1e-10)}


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
