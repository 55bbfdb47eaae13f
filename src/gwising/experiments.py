"""Deterministic Monte Carlo harness for the phase-transition experiments.

Replicas are sampled and swept in blocks: one forest of R(n) trees per
block, drawn from one random stream derived from (master seed, experiment id,
depth index, block index).  R(n) depends on the configuration alone, so
results are bit-identical for a given configuration no matter how blocks are
distributed over workers.  Scans return plain row dicts; CSV rendering lives
here so that the byte output is deterministic too (17 significant digits for
floats).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import capacity as cap
from . import ising
from .distributions import (MIXTURE_CONSISTENCY_TOL, OffspringPmf,
                            zero_truncated_binomial, ztb_mixture)
from .fields import FieldAssignment, FieldMode, plus_boundary_field, prune, sample_field
from .pruned_law import (GammaProfile, PrunedLawSampler, calibrate_constants,
                         gamma_profile, k1_bar_star, moments, pruned_tree_probability,
                         tv_crossing, tv_profile)
from .tree import PopulationCapError, Tree, enumerate_trees, sample_gw

EXPERIMENT_IDS = {"magnetization": 1, "gamma": 2, "capacity": 3, "tv": 4}
SCHEDULE_KINDS = ("constant", "geometric", "threshold", "threshold_geometric")
# expected vertices per sampled forest; sets the replicas per block
BLOCK_VERTICES = 2**16
# largest |crossing - k*| for which a tv scan reports crossing_ok
TV_CROSSING_WINDOW = 5.0
# relative slack of every transition-bound comparison
BOUND_REL_SLACK = 1e-9
# the couplings the Lyons and pruning suites cycle through, and the capacity
# orders of the capacity oracle suite
SUITE_BETAS = (0.3, 0.7, 1.2)
SUITE_CAPACITY_ORDERS = (1.5, 2.0, 3.0)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class PSchedule:
    """Leaf-mark probability as a function of the depth n.

    kinds: ``constant`` (c), ``geometric`` (c lam^n), ``threshold``
    (c (nu tanh beta)^{-n}), ``threshold_geometric``
    (c (nu tanh beta)^{-n} lam^n).
    """

    kind: str
    c: float = 1.0
    lam: float | None = None

    def p(self, n: int, nu: float, beta: float) -> float:
        if self.kind == "constant":
            return self.c
        if self.kind == "geometric":
            return self.c * self.lam ** n
        base = nu * math.tanh(beta)
        if self.kind == "threshold":
            return self.c * base ** -n
        if self.kind == "threshold_geometric":
            return self.c * base ** -n * self.lam ** n
        raise ConfigError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "PSchedule":
        allowed = {"kind", "c", "lam"}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown schedule keys {sorted(unknown)}")
        return cls(data["kind"], float(data.get("c", 1.0)),
                   float(data["lam"]) if "lam" in data else None)


@dataclass(frozen=True)
class ExperimentConfig:
    pmf: OffspringPmf
    beta: float
    schedule: PSchedule
    n_grid: tuple[int, ...]
    replicas: int
    mode: str
    master_seed: int = 1
    epsilon: float = 0.05
    epsilon_sweep: tuple[float, ...] = (0.01, 0.05, 0.2)
    field_mode: FieldMode = FieldMode.LEAVES_ONLY
    method: str = "direct"          # or "pruned": exact fast path, leaf fields only
    capacity_p: float = 1.5
    q: float = 2.0
    coupling_off: bool = False      # direct sanity mode: drop the bond term, keep 2*beta*h
    workers: int = 1

    def p_n(self, n: int) -> float:
        return self.schedule.p(n, self.pmf.mean(), self.beta)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.mode not in EXPERIMENT_IDS:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if not cfg.pmf.satisfies_supercritical_assumption():
        raise ConfigError("offspring law must put no mass at 0 and not all of it at 1")
    if not cfg.beta >= 0.0:
        raise ConfigError("beta must be nonnegative")
    if cfg.replicas < 1:
        raise ConfigError("need at least one replica")
    if not all(0.0 < eps < 1.0 for eps in (cfg.epsilon, *cfg.epsilon_sweep)):
        raise ConfigError("epsilon and every epsilon_sweep value must lie in (0, 1)")
    if not cfg.capacity_p > 1.0:
        raise ConfigError("capacity_p must exceed 1")
    if not (1.0 < cfg.q <= 2.0):
        raise ConfigError("q must lie in (1, 2]")
    if cfg.method not in ("direct", "pruned"):
        raise ConfigError(f"unknown method {cfg.method!r}")
    if cfg.method == "pruned" and cfg.field_mode is not FieldMode.LEAVES_ONLY:
        raise ConfigError("the pruned fast path models leaf fields only")
    if cfg.method == "pruned" and cfg.coupling_off:
        raise ConfigError("coupling_off applies to the direct method only")
    kind = cfg.schedule.kind
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    if kind.endswith("geometric") and cfg.schedule.lam is None:
        raise ConfigError(f"schedule {kind!r} needs lam")
    if cfg.beta == 0.0 and kind.startswith("threshold"):
        raise ConfigError(f"schedule {kind!r} needs beta > 0")
    if cfg.beta == 0.0 and cfg.mode == "capacity":
        raise ConfigError("capacity scans need beta > 0 for resistances tanh(beta)^k")
    if not cfg.n_grid:
        raise ConfigError("empty depth grid")
    for n in cfg.n_grid:
        if n < 1:
            raise ConfigError(f"depth {n} is below 1")
        try:
            p = cfg.p_n(n)
        except OverflowError:
            raise ConfigError(f"schedule overflows at depth {n}")
        if not (0.0 < p <= 1.0):
            raise ConfigError(f"schedule gives p_{n} = {p}, outside (0, 1]")


def replica_rng(master_seed: int, experiment_id: int, n_index: int,
                block: int) -> np.random.Generator:
    """Independent stream per (experiment, depth point, block of replicas)."""
    seq = np.random.SeedSequence(master_seed,
                                 spawn_key=(experiment_id, n_index, block))
    return np.random.default_rng(seq)


def block_replicas(pmf: OffspringPmf, n: int, profile: GammaProfile | None = None) -> int:
    """Replicas per block at depth ``n``: as many as fit BLOCK_VERTICES
    expected vertices.

    A direct depth-n tree has sum_{k<=n} nu^k vertices on average.  A pruned
    draw (``profile`` given) has its root plus (1 - gamma_0) sum_{k>=1} M*_{0,k},
    since the empty outcome is a childless root.
    """
    if profile is None:
        expected = sum(pmf.mean() ** k for k in range(n + 1))
    else:
        expected = 1.0 + float(profile.one_minus_gamma[0]) * sum(profile.m_0k[1:].tolist())
    return max(1, int(BLOCK_VERTICES // expected))


def _block_tasks(replicas: int, size: int, *head) -> list[tuple]:
    """One task per block: ``(*head, block index, roots)``; the last block
    takes the remainder."""
    return [(*head, block, min(size, replicas - start))
            for block, start in enumerate(range(0, replicas, size))]


def _map_blocks(fn, tasks, workers: int) -> list[np.ndarray]:
    if workers <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# -- magnetization ----------------------------------------------------------


def _magnetization_block(args) -> np.ndarray:
    cfg, n, sampler, n_index, block, roots = args
    rng = replica_rng(cfg.master_seed, EXPERIMENT_IDS["magnetization"], n_index, block)
    if cfg.method == "pruned":
        forest = sampler.sample(rng, roots=roots)
        if forest is None:
            return np.zeros(roots)
        return ising.lyons_field(forest, plus_boundary_field(forest), cfg.beta)[:roots].copy()
    forest = sample_gw(cfg.pmf, n, rng, roots=roots)
    fld = sample_field(forest, cfg.field_mode, cfg.p_n(n), rng)
    if cfg.coupling_off:
        return 2.0 * cfg.beta * fld.h[:roots].astype(float)
    return ising.lyons_field(forest, fld, cfg.beta)[:roots].copy()


def run_magnetization_scan(cfg: ExperimentConfig) -> list[dict]:
    """Root log-likelihood ratios across the depth grid.

    Emits one row per (n, epsilon) with the mean ratio, its standard error,
    the magnetization exceedance frequency with a Wilson interval, and the
    analytic mean bound as a reference column.
    """
    validate_config(cfg)
    tasks = []
    for n_index, n in enumerate(cfg.n_grid):
        sampler = profile = None
        if cfg.method == "pruned":
            profile = gamma_profile(cfg.pmf, cfg.p_n(n), n)
            sampler = PrunedLawSampler(profile)
        size = block_replicas(cfg.pmf, n, profile)
        tasks += _block_tasks(cfg.replicas, size, cfg, n, sampler, n_index)
    r_by_n = np.concatenate(_map_blocks(_magnetization_block, tasks, cfg.workers))
    rows = []
    for n, r_values in zip(cfg.n_grid, r_by_n.reshape(len(cfg.n_grid), cfg.replicas)):
        p_n = cfg.p_n(n)
        m_values = ising.magnetization(r_values)
        mean_r = float(r_values.mean())
        se_r = float(r_values.std(ddof=1) / math.sqrt(cfg.replicas)) if cfg.replicas > 1 else 0.0
        bound = ising.upper_bound_mean_r(cfg.beta, cfg.pmf.mean(), p_n, n)
        epsilons = sorted(set(cfg.epsilon_sweep) | {cfg.epsilon})
        for eps in epsilons:
            hits = int((m_values > eps).sum())
            lo, hi = wilson_interval(hits, cfg.replicas)
            rows.append({
                "n": n, "p_n": p_n, "epsilon": eps,
                "mean_r": mean_r, "se_r": se_r,
                "prob_m_gt_eps": hits / cfg.replicas,
                "wilson_lo": lo, "wilson_hi": hi,
                "replicas": cfg.replicas, "mean_r_bound": bound,
            })
    return rows


# -- gamma profiles ---------------------------------------------------------


def run_gamma_scan(cfg: ExperimentConfig) -> dict:
    """Exact gamma profiles plus the transition-bound report.

    No sampling: emits the per-generation table (gamma_k, nu*_k, sigma*_{q,k},
    M*_{0,k}) for every depth in the grid, and booleans for each transition
    inequality evaluated with the frozen calibration constants.
    """
    validate_config(cfg)
    constants = calibrate_constants(cfg.pmf, cfg.q)
    rows, bound_rows = [], []
    for n in cfg.n_grid:
        p_n = cfg.p_n(n)
        profile = gamma_profile(cfg.pmf, p_n, n)
        mom = moments(profile, cfg.q)
        ks = profile.k_star
        for k in range(n + 1):
            rows.append({
                "n": n, "p_n": p_n, "k": k,
                "gamma_k": float(profile.gamma[k]),
                "one_minus_gamma_k": float(profile.one_minus_gamma[k]),
                "nu_star_k": float(mom.nu_star[k]) if k < n else float("nan"),
                "sigma_q_star_k": float(mom.sigma_q_star[k]) if k < n else float("nan"),
                "M_star_0k": float(mom.m_0k[k]),
                "k_star": ks,
            })
        k1 = k1_bar_star(profile, cfg.q, constants["C_mu"])
        checks = transition_bound_checks(profile, constants, k1)
        checks.update({"n": n, "p_n": p_n, "k1_bar_star": k1})
        bound_rows.append(checks)
    return {"rows": rows, "bounds": bound_rows, "constants": constants}


def transition_bound_checks(profile: GammaProfile, constants: dict, k1: int) -> dict:
    """Evaluate the frozen-constant transition inequalities on one profile.

    Upper bounds on 1 - gamma_bar hold for every k; the sandwich lower bound
    is claimed on the pre-transition window k <= k1 (k1_bar_star) only.  Bounds
    around k* use floor/ceil conservatively per direction and compare in log
    space so underflowed values stay meaningful.
    """
    n = profile.n
    nu = profile.pmf.mean()
    log_nu = math.log(nu)
    ks = profile.k_star
    slack = math.log1p(BOUND_REL_SLACK)

    log_t_bar = profile.log_one_minus_gamma_bar
    log_p = math.log(profile.p_n)
    upper_all = all(log_t_bar[k] <= k * log_nu + log_p + slack for k in range(n + 1))
    lower_window = all(log_t_bar[k] >= math.log(0.5) + k * log_nu + log_p - slack
                       for k in range(min(k1, n) + 1))

    gamma_decay = all(
        profile.log_gamma[k] <= -constants["c4"] * (ks - k) + slack
        for k in range(0, max(math.floor(ks), -1) + 1) if ks - k > 0
    )
    tail_decay = all(
        profile.log_one_minus_gamma[k] <= -(k - ks) * log_nu + slack
        for k in range(max(math.ceil(ks), 0), n + 1)
    )
    return {
        "pre_window_upper": upper_all,
        "pre_window_lower": lower_window,
        "gamma_decay_below_kstar": gamma_decay,
        "one_minus_gamma_decay_above_kstar": tail_decay,
    }


# -- capacity ---------------------------------------------------------------


def _capacity_block(args) -> np.ndarray:
    cfg, sampler, resistances, n_index, block, roots = args
    rng = replica_rng(cfg.master_seed, EXPERIMENT_IDS["capacity"], n_index, block)
    forest = sampler.sample(rng, roots=roots)
    if forest is None:
        return np.zeros(roots)
    phi = cap.capacity_recursion(forest, resistances, cfg.capacity_p).phi[:roots]
    return np.where(forest.num_children[:roots] > 0, phi, 0.0)


def run_capacity_scan(cfg: ExperimentConfig) -> dict:
    """Capacities of directly-sampled pruned trees with R = tanh(beta).

    Emits one row per replica (capacity, the benchmark alpha_n, their ratio)
    plus one summary row per depth with the empirical mean against the
    mean-capacity bound.  Empty pruned trees count as capacity 0.
    """
    validate_config(cfg)
    resistances = cap.ResistanceProfile.geometric(math.tanh(cfg.beta))
    nu = cfg.pmf.mean()
    profiles, tasks = [], []
    for n_index, n in enumerate(cfg.n_grid):
        profile = gamma_profile(cfg.pmf, cfg.p_n(n), n)
        profiles.append(profile)
        size = block_replicas(cfg.pmf, n, profile)
        tasks += _block_tasks(cfg.replicas, size, cfg, PrunedLawSampler(profile),
                              resistances, n_index)
    values_by_n = np.concatenate(_map_blocks(_capacity_block, tasks, cfg.workers))
    rows, summary = [], []
    for n, profile, values in zip(cfg.n_grid, profiles,
                                  values_by_n.reshape(len(cfg.n_grid), cfg.replicas)):
        p_n = profile.p_n
        a_n = cap.alpha_n(cfg.beta, nu, p_n, n, cfg.capacity_p)
        for rep, value in enumerate(values):
            rows.append({"n": n, "p_n": p_n, "replica": rep,
                         "capacity_p": float(value), "alpha_n": a_n,
                         "ratio": float(value) / a_n})
        bound = cap.expected_capacity_upper(profile.m_0k[1:], math.tanh(cfg.beta),
                                            cfg.capacity_p)
        summary.append({
            "n": n, "p_n": p_n, "replicas": cfg.replicas,
            "mean_capacity": float(values.mean()),
            "se_capacity": float(values.std(ddof=1) / math.sqrt(cfg.replicas))
            if cfg.replicas > 1 else 0.0,
            "alpha_n": a_n,
            "mean_capacity_bound": bound,
            "ratio_p05": float(np.quantile(values / a_n, 0.05)),
            "ratio_p50": float(np.quantile(values / a_n, 0.50)),
            "ratio_p95": float(np.quantile(values / a_n, 0.95)),
        })
    return {"rows": rows, "summary": summary}


# -- total variation --------------------------------------------------------


def run_tv_scan(cfg: ExperimentConfig) -> dict:
    """Exact total-variation curves d(mu*_k, mu) and d(mu*_k, dirac_1) per
    generation, with the crossing generation against k*."""
    validate_config(cfg)
    rows, summary = [], []
    for n in cfg.n_grid:
        p_n = cfg.p_n(n)
        profile = gamma_profile(cfg.pmf, p_n, n)
        to_mu, to_dirac = tv_profile(profile)
        for k in range(n):
            rows.append({"n": n, "p_n": p_n, "k": k,
                         "tv_to_mu": float(to_mu[k]),
                         "tv_to_dirac1": float(to_dirac[k])})
        crossing = tv_crossing(to_mu, to_dirac)
        summary.append({
            "n": n, "p_n": p_n, "k_star": profile.k_star,
            "crossing": crossing,
            "crossing_ok": bool(abs(crossing - profile.k_star) <= TV_CROSSING_WINDOW),
        })
    return {"rows": rows, "summary": summary}


# -- validation bundle ------------------------------------------------------


def random_small_tree(rng: np.random.Generator, max_vertices: int = 14,
                      max_degree: int = 3, max_depth: int = 4) -> Tree:
    """Rejection-sample a Galton-Watson tree with uniform offspring on
    1..max_degree, a uniform depth in 1..max_depth and at most
    ``max_vertices`` vertices."""
    law = OffspringPmf(np.arange(1, max_degree + 1), np.full(max_degree, 1.0 / max_degree))
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
        fld = sample_field(tree, mode, float(rng.uniform(0.1, 0.9)), rng)
        r_rec = float(ising.lyons_field(tree, fld, beta)[0])
        m_brute, r_brute = ising.gibbs_bruteforce(tree, fld, beta)
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
        tree = random_small_tree(rng, max_vertices=40, max_degree=3, max_depth=5)
        beta = SUITE_BETAS[i % len(SUITE_BETAS)]
        fld = sample_field(tree, FieldMode.LEAVES_ONLY, float(rng.uniform(0.1, 0.7)), rng)
        r_full = ising.lyons_field(tree, fld, beta)
        outcome = prune(tree, fld)
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
                        fld = FieldAssignment(tree, FieldMode.LEAVES_ONLY, h)
                        f_prob = p ** sum(bits) * (1 - p) ** (leaves - sum(bits))
                        outcome = prune(tree, fld)
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
        tree = random_small_tree(rng, max_vertices=200, max_degree=3, max_depth=5)
        base = float(rng.uniform(0.5, 1.5))
        res = cap.ResistanceProfile.geometric(base)
        for p in SUITE_CAPACITY_ORDERS:
            exact = cap.capacity_recursion(tree, res, p).capacity
            oracle = cap.capacity_bruteforce(tree, res, p)
            max_rel_gap = max(max_rel_gap, abs(oracle.capacity - exact) / exact)
            if tree.leaves_only_at_bottom:
                estimate = cap.flow_energy(tree, cap.uniform_flow(tree), res, p)
                min_slack = min(min_slack, estimate - 1.0 / exact)
    return {"suite": "capacity_recursion_vs_oracle", "instances": instances,
            "max_error": float(max_rel_gap), "tolerance": 1e-6,
            "min_thomson_slack": float(min_slack),
            "pass": bool(max_rel_gap <= 1e-6 and min_slack >= -1e-10)}


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
    """All oracle-equivalence suites; machine-readable, failures enumerated."""
    suites = [
        suite_lyons_vs_bruteforce(instances, seed),
        suite_pruning_equivalence(instances, seed),
        suite_pruned_law_exact(),
        suite_capacity_oracle(oracle_instances, seed),
        suite_ztb_mixture_routes(instances, seed),
    ]
    return {"suites": suites, "pass": all(s["pass"] for s in suites)}


# -- CSV --------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    """Render rows (uniform keys) as CSV with round-trippable floats."""
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row[key]) for key in header))
    return "\n".join(lines) + "\n"
