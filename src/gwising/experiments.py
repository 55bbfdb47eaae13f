"""Deterministic Monte Carlo harness for the phase-transition experiments.

Replicas are sampled and swept in blocks: one forest of R(n) trees per
block, drawn from one random stream derived from (master seed, experiment id,
depth index, block index), and swept once.  R(n) depends on the configuration
alone, so results are bit-identical for a given configuration no matter how
blocks are distributed over processes.  With ``workers`` above 1 the calling
process runs a fixed share of the blocks and forks a child for each other
share, which sends its root values back through a pipe.  Scans return plain
row dicts; CSV rendering lives here so that the byte output is deterministic
too (17 significant digits for floats).
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import capacity as cap
from . import ising
from .distributions import OffspringPmf, json_number
from .fields import FieldMode, plus_boundary_field, sample_field
from .pruned_law import (GammaProfile, PrunedLawSampler, calibrate_constants,
                         gamma_profile, k1_bar_star, moments, tv_crossing, tv_profile)
from .tree import DEFAULT_POPULATION_CAP, sample_gw

EXPERIMENT_IDS = {"magnetization": 1, "gamma": 2, "capacity": 3, "tv": 4}
SCHEDULE_KINDS = ("constant", "geometric", "threshold", "threshold_geometric")
# expected vertices per sampled forest; sets the replicas per block
BLOCK_VERTICES = 150_000
# a depth whose replica is expected to have more than this fraction of the
# population cap in vertices is rejected before any sampling, since one
# replica ten times its mean would reach the cap
PREFLIGHT_CAP_FRACTION = 0.1
# largest |crossing - k*| for which a tv scan reports crossing_ok
TV_CROSSING_WINDOW = 5.0
# relative slack of every transition-bound comparison
BOUND_REL_SLACK = 1e-9
# the largest beta whose e^(2 beta) is a finite double; past it the edge map
# g_beta overflows
MAX_BETA = math.log(sys.float_info.max) / 2
# the normal quantile of the 95% Wilson intervals of the magnetization scan
WILSON_Z = 1.96


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
        return cls(data["kind"], json_number(float, data.get("c", 1.0)),
                   json_number(float, data["lam"]) if "lam" in data else None)


@dataclass(frozen=True)
class ExperimentConfig:
    pmf: OffspringPmf
    beta: float
    schedule: PSchedule
    n_grid: tuple[int, ...]
    replicas: int
    mode: str
    master_seed: int = 1
    epsilon_sweep: tuple[float, ...] = (0.01, 0.05, 0.2)
    field_mode: FieldMode = FieldMode.LEAVES_ONLY
    method: str = "direct"          # or "pruned": exact fast path, leaf fields only
    capacity_p: float = 1.5
    q: float = 2.0
    workers: int = 1

    def p_n(self, n: int) -> float:
        return self.schedule.p(n, self.pmf.mean(), self.beta)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.mode not in EXPERIMENT_IDS:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if not cfg.pmf.satisfies_supercritical_assumption():
        raise ConfigError("offspring law must put no mass at 0 and not all of it at 1")
    if not 0.0 <= cfg.beta <= MAX_BETA:
        raise ConfigError(f"beta must lie in [0, {MAX_BETA:.6g}], where e^(2 beta) "
                          f"stays finite, got {cfg.beta}")
    if cfg.replicas < 1:
        raise ConfigError("need at least one replica")
    if cfg.workers < 1:
        raise ConfigError(f"need at least one worker, got {cfg.workers}")
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed must be nonnegative, got {cfg.master_seed}")
    if not cfg.epsilon_sweep:
        raise ConfigError("empty epsilon_sweep")
    if not all(0.0 < eps < 1.0 for eps in cfg.epsilon_sweep):
        raise ConfigError("every epsilon_sweep value must lie in (0, 1)")
    if not 1.0 < cfg.capacity_p < math.inf:
        raise ConfigError("capacity_p must be finite and exceed 1")
    if not (1.0 < cfg.q <= 2.0):
        raise ConfigError("q must lie in (1, 2]")
    if cfg.method not in ("direct", "pruned"):
        raise ConfigError(f"unknown method {cfg.method!r}")
    # only a magnetization scan reads method and field_mode
    if (cfg.mode == "magnetization" and cfg.method == "pruned"
            and cfg.field_mode is not FieldMode.LEAVES_ONLY):
        raise ConfigError("the pruned fast path models leaf fields only")
    kind = cfg.schedule.kind
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    lam = cfg.schedule.lam
    if kind.endswith("geometric") and not (lam is not None and lam > 0.0):
        raise ConfigError(f"schedule {kind!r} needs a positive lam, got {lam}")
    if not kind.endswith("geometric") and lam is not None:
        raise ConfigError(f"schedule {kind!r} takes no lam")
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
        if cfg.mode == "capacity":
            try:
                a_n = cap.alpha_n(cfg.beta, cfg.pmf.mean(), p, n, cfg.capacity_p)
            except OverflowError:
                a_n = math.inf
            if not 0.0 < a_n < math.inf:
                raise ConfigError(f"alpha_{n} = {a_n} at depth {n}: capacity ratios "
                                  f"are undefined")


def _validate_scan(cfg: ExperimentConfig, experiment: str) -> None:
    """``validate_config`` for the ``experiment`` scan, which runs its own mode only."""
    if cfg.mode != experiment:
        raise ConfigError(f"the {experiment} scan runs mode {experiment!r}, not {cfg.mode!r}")
    validate_config(cfg)


def replica_rng(master_seed: int, experiment_id: int, n_index: int,
                block: int) -> np.random.Generator:
    """Independent stream per (experiment, depth point, block of replicas)."""
    seq = np.random.SeedSequence(master_seed,
                                 spawn_key=(experiment_id, n_index, block))
    return np.random.default_rng(seq)


def replica_vertices(pmf: OffspringPmf, n: int, profile: GammaProfile | None = None) -> float:
    """Expected vertices of one replica at depth ``n``.

    A direct depth-n tree has sum_{k<=n} nu^k vertices on average, a pruned
    one (``profile`` given, conditioned on survival) sum_{k<=n} M*_{0,k}.
    Raises ConfigError when that expected size exceeds
    ``PREFLIGHT_CAP_FRACTION`` of the population cap.
    """
    if profile is None:
        try:
            expected = sum(pmf.mean() ** k for k in range(n + 1))
        except OverflowError:
            expected = math.inf
    else:
        expected = sum(profile.m_0k.tolist())
    if expected > PREFLIGHT_CAP_FRACTION * DEFAULT_POPULATION_CAP:
        raise ConfigError(f"depth {n}: a replica is expected to have {expected:.3g} "
                          f"vertices, above {PREFLIGHT_CAP_FRACTION} of the population "
                          f"cap {DEFAULT_POPULATION_CAP}")
    return expected


def block_replicas(pmf: OffspringPmf, n: int, profile: GammaProfile | None = None) -> int:
    """Replicas per block at depth ``n``: as many as fit BLOCK_VERTICES
    expected vertices of ``replica_vertices``."""
    return max(1, int(BLOCK_VERTICES // replica_vertices(pmf, n, profile)))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson interval, ending at exactly 0 with no hits and 1 with all."""
    z = WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo, hi = max(0.0, center - half), min(1.0, center + half)
    return (0.0 if successes == 0 else lo), (1.0 if successes == trials else hi)


# -- sampled scans: magnetization and capacity ------------------------------


def _sample_block(args) -> np.ndarray:
    """Root values of one block: the forest is drawn directly when ``sampler``
    is None, else from the pruned law conditioned on survival; a
    magnetization block returns root ratios, a capacity block root
    capacities."""
    experiment, cfg, n, sampler, n_index, block, roots = args
    rng = replica_rng(cfg.master_seed, EXPERIMENT_IDS[experiment], n_index, block)
    if sampler is None:
        forest = sample_gw(cfg.pmf, n, rng, roots=roots)
        h = sample_field(forest, cfg.field_mode, cfg.p_n(n), rng)
    else:
        forest = sampler.sample(rng, roots=roots)
        h = None if experiment == "capacity" else plus_boundary_field(forest)
    if experiment == "magnetization":
        return ising.lyons_field(forest, h, cfg.beta, roots_only=True)
    return cap.capacity_recursion(forest, math.tanh(cfg.beta), cfg.capacity_p,
                                  roots_only=True)


def _shares(weights: list[float], processes: int) -> list[list[int]]:
    """Task indices per process, each share in task order: the heaviest task
    first, each to the lightest share so far.  The lightest share comes first,
    for the calling process, which also forks the others and reads them."""
    shares = [[] for _ in range(processes)]
    loads = [0.0] * processes
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += weights[i]
    return [sorted(shares[k]) for k in sorted(range(processes), key=loads.__getitem__)]


def _reap(pid: int) -> None:
    """Kill the child ``pid`` if it still runs, and reap it; a child reaped
    already is left alone, so that a reused pid is never signalled."""
    try:
        if os.waitpid(pid, os.WNOHANG) == (0, 0):
            # imported here, so a scan that kills no child never loads it
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _run_child(tasks: list, share: list[int], pipe_fd: int) -> NoReturn:
    """The body of a forked worker: runs ``share`` and writes its report, a
    0 byte and the root values as float64 bytes, or a 1 byte and the pickled
    exception with its formatted traceback.  Never returns: it ends the
    process with ``os._exit``, so no handler or buffer of the caller runs
    twice."""
    code = 1
    try:
        try:
            values = np.concatenate([_sample_block(tasks[i]) for i in share])
            report = b"\0" + values.astype(np.float64, copy=False).tobytes()
        except Exception as exc:
            # imported here, so a scan whose workers all succeed never loads it
            import traceback
            text = traceback.format_exc()
            try:
                error = pickle.dumps((exc, text))
                pickle.loads(error)
            except Exception:
                error = pickle.dumps((RuntimeError(f"scan worker failed: {exc!r}"), text))
            report = b"\1" + error
        with open(pipe_fd, "wb") as pipe:
            pipe.write(report)
        code = 0
    finally:
        os._exit(code)


def _run_blocks(tasks: list, shares: list[list[int]]) -> list[np.ndarray]:
    """``_sample_block`` of every task, in task order.

    ``shares[0]`` runs in this process.  Each other share runs in a child
    forked for it, which inherits ``tasks`` and writes its root values back
    through a pipe.  The children are read in order once this process has run
    its own share.  An error in a child is raised here with its type; a child
    that ends without a full report raises RuntimeError naming it by its
    number, this process being worker 1.  On every path, every child is
    reaped, and killed first if it still runs."""
    blocks = [None] * len(tasks)
    children = []  # (pid, read end of its pipe, share)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            try:
                pid = os.fork()
            except BaseException:
                pipe.close()
                os.close(write_fd)
                raise
            if pid == 0:
                pipe.close()
                _run_child(tasks, share, write_fd)
            # closed before the next fork, so that no later child holds it
            # open and a dead child's pipe reads to its end
            os.close(write_fd)
            children.append((pid, pipe, share))
        for i in shares[0]:
            blocks[i] = _sample_block(tasks[i])
        for number, (pid, pipe, share) in enumerate(children, start=2):
            report = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0 and report[:1] == b"\1":
                error, text = pickle.loads(report[1:])
                raise error from RuntimeError(f"in scan worker {number}:\n{text}")
            roots = [tasks[i][-1] for i in share]
            if code != 0 or report[:1] != b"\0" or len(report) != 1 + 8 * sum(roots):
                ending = f"exit code {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError(f"scan worker {number} of {len(shares)} (pid {pid}) "
                                   f"ended with {ending} before a full report")
            values = np.frombuffer(report, np.float64, offset=1)
            for i, block in zip(share, np.split(values, np.cumsum(roots)[:-1])):
                blocks[i] = block
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            _reap(pid)
    return blocks


def _sample_scan(cfg: ExperimentConfig, experiment: str,
                 pruned: bool) -> tuple[list[GammaProfile | None], np.ndarray]:
    """Each depth's pruned profile (None when sampled directly) and the
    (depths x replicas) matrix of ``_sample_block`` values.  Every depth is
    sized, so checked against the population cap, before any sampling.

    The blocks run on min(``workers``, blocks, CPUs) processes, this one
    included, by ``_run_blocks``; each share is fixed before any block runs,
    and the output does not depend on it."""
    profiles, tasks, weights = [], [], []
    for n_index, n in enumerate(cfg.n_grid):
        profile = gamma_profile(cfg.pmf, cfg.p_n(n), n) if pruned else None
        size = block_replicas(cfg.pmf, n, profile)
        vertices = replica_vertices(cfg.pmf, n, profile)
        sampler = None if profile is None else PrunedLawSampler(profile)
        profiles.append(profile)
        # one task per block; the last block takes the remainder
        for block, start in enumerate(range(0, cfg.replicas, size)):
            roots = min(size, cfg.replicas - start)
            tasks.append((experiment, cfg, n, sampler, n_index, block, roots))
            weights.append(roots * vertices)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    # where the platform cannot fork, every block runs in process
    processes = min(cfg.workers, len(tasks), cpus) if hasattr(os, "fork") else 1
    blocks = _run_blocks(tasks, _shares(weights, processes))
    return profiles, np.concatenate(blocks).reshape(len(cfg.n_grid), cfg.replicas)


def _standard_error(values: np.ndarray) -> float:
    return float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0


def run_magnetization_scan(cfg: ExperimentConfig) -> list[dict]:
    """Root log-likelihood ratios across the depth grid.

    Emits one row per (n, epsilon) with the mean ratio, its standard error,
    the magnetization exceedance frequency with a Wilson interval, and the
    analytic mean bound as a reference column.  A pruned scan samples surviving
    trees; its mean, SE, frequency and Wilson ends carry the weight 1 - gamma_0.
    """
    _validate_scan(cfg, "magnetization")
    profiles, r_by_n = _sample_scan(cfg, "magnetization", pruned=cfg.method == "pruned")
    rows = []
    for n, profile, r_values in zip(cfg.n_grid, profiles, r_by_n):
        p_n = cfg.p_n(n)
        w = 1.0 if profile is None else float(profile.one_minus_gamma[0])
        m_values = ising.magnetization(r_values)
        mean_r, se_r = w * float(r_values.mean()), w * _standard_error(r_values)
        bound = ising.upper_bound_mean_r(cfg.beta, cfg.pmf.mean(), p_n, n)
        for eps in sorted(set(cfg.epsilon_sweep)):
            hits = int((m_values > eps).sum())
            lo, hi = wilson_interval(hits, cfg.replicas)
            rows.append({
                "n": n, "p_n": p_n, "epsilon": eps,
                "mean_r": mean_r, "se_r": se_r,
                "prob_m_gt_eps": w * (hits / cfg.replicas),
                "wilson_lo": w * lo, "wilson_hi": w * hi,
                "replicas": cfg.replicas, "mean_r_bound": bound,
            })
    return rows


def run_capacity_scan(cfg: ExperimentConfig) -> dict:
    """Capacities of directly-sampled pruned trees with R = tanh(beta).

    Emits one row per replica (capacity, the benchmark alpha_n, their ratio)
    plus one summary row per depth with the empirical mean against the
    mean-capacity bound.  Rows and ratio quantiles are over surviving trees,
    so a ratio divides by alpha_n / (1 - gamma_0), the benchmark on the same
    event; the mean, its SE and the bound carry the weight 1 - gamma_0.
    """
    _validate_scan(cfg, "capacity")
    profiles, values_by_n = _sample_scan(cfg, "capacity", pruned=True)
    rows, summary = [], []
    for n, profile, values in zip(cfg.n_grid, profiles, values_by_n):
        p_n = profile.p_n
        w = float(profile.one_minus_gamma[0])
        a_n = cap.alpha_n(cfg.beta, cfg.pmf.mean(), p_n, n, cfg.capacity_p)
        ratios = values / (a_n / w)
        for rep, (value, ratio) in enumerate(zip(values.tolist(), ratios.tolist())):
            rows.append({"n": n, "p_n": p_n, "replica": rep,
                         "capacity_p": value, "alpha_n": a_n, "ratio": ratio})
        bound = cap.expected_capacity_upper(profile.m_0k[1:], math.tanh(cfg.beta),
                                            cfg.capacity_p)
        summary.append({
            "n": n, "p_n": p_n, "replicas": cfg.replicas,
            "mean_capacity": w * float(values.mean()),
            # from the O(1) ratios: subnormal capacities would square to 0
            "se_capacity": a_n * _standard_error(ratios),
            "alpha_n": a_n,
            "mean_capacity_bound": w * bound,
            "ratio_p05": float(np.quantile(ratios, 0.05)),
            "ratio_p50": float(np.quantile(ratios, 0.50)),
            "ratio_p95": float(np.quantile(ratios, 0.95)),
        })
    return {"rows": rows, "summary": summary}


# -- gamma profiles ---------------------------------------------------------


def run_gamma_scan(cfg: ExperimentConfig) -> dict:
    """Exact gamma profiles plus the transition-bound report.

    No sampling: emits the per-generation table (gamma_k, nu*_k, sigma*_{q,k},
    M*_{0,k}) for every depth in the grid, and booleans for each transition
    inequality evaluated with the frozen calibration constants.
    """
    _validate_scan(cfg, "gamma")
    constants = calibrate_constants(cfg.pmf, cfg.q)
    rows, bound_rows = [], []
    for n in cfg.n_grid:
        p_n = cfg.p_n(n)
        profile = gamma_profile(cfg.pmf, p_n, n)
        sigma, _ = moments(profile, cfg.q)
        ks = profile.k_star
        # nu*_k and sigma*_{q,k} stop at k = n - 1; row n reads nan
        columns = zip(profile.gamma.tolist(), profile.one_minus_gamma.tolist(),
                      profile.nu_star.tolist() + [math.nan],
                      sigma.tolist() + [math.nan], profile.m_0k.tolist())
        for k, (gamma_k, one_minus, nu_k, sigma_k, m_0k) in enumerate(columns):
            rows.append({
                "n": n, "p_n": p_n, "k": k,
                "gamma_k": gamma_k, "one_minus_gamma_k": one_minus,
                "nu_star_k": nu_k, "sigma_q_star_k": sigma_k,
                "M_star_0k": m_0k, "k_star": ks,
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

    log_gamma = profile.log_gamma.tolist()
    log_one_minus_gamma = profile.log_one_minus_gamma.tolist()
    log_t_bar = log_one_minus_gamma[::-1]
    log_p = math.log(profile.p_n)
    upper_all = all(log_t_bar[k] <= k * log_nu + log_p + slack for k in range(n + 1))
    lower_window = all(log_t_bar[k] >= math.log(0.5) + k * log_nu + log_p - slack
                       for k in range(min(k1, n) + 1))

    gamma_decay = all(
        log_gamma[k] <= -constants["c4"] * (ks - k) + slack
        for k in range(0, max(math.floor(ks), -1) + 1) if ks - k > 0
    )
    tail_decay = all(
        log_one_minus_gamma[k] <= -(k - ks) * log_nu + slack
        for k in range(max(math.ceil(ks), 0), n + 1)
    )
    return {
        "pre_window_upper": upper_all,
        "pre_window_lower": lower_window,
        "gamma_decay_below_kstar": gamma_decay,
        "one_minus_gamma_decay_above_kstar": tail_decay,
    }


# -- total variation --------------------------------------------------------


def run_tv_scan(cfg: ExperimentConfig) -> dict:
    """Exact total-variation curves d(mu*_k, mu) and d(mu*_k, dirac_1) per
    generation, with the crossing generation against k*."""
    _validate_scan(cfg, "tv")
    rows, summary = [], []
    for n in cfg.n_grid:
        p_n = cfg.p_n(n)
        profile = gamma_profile(cfg.pmf, p_n, n)
        to_mu, to_dirac = tv_profile(profile)
        for k, (tv_to_mu, tv_to_dirac1) in enumerate(zip(to_mu.tolist(), to_dirac.tolist())):
            rows.append({"n": n, "p_n": p_n, "k": k,
                         "tv_to_mu": tv_to_mu, "tv_to_dirac1": tv_to_dirac1})
        crossing = tv_crossing(to_mu, to_dirac)
        summary.append({
            "n": n, "p_n": p_n, "k_star": profile.k_star,
            "crossing": crossing,
            "crossing_ok": bool(abs(crossing - profile.k_star) <= TV_CROSSING_WINDOW),
        })
    return {"rows": rows, "summary": summary}


# -- CSV --------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    """Render rows (uniform keys) as CSV with round-trippable floats.

    Formats column by column: a column of floats alone by ``"%.17g"``, which
    gives the bytes of ``_format_cell``, any other column cell by cell."""
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    columns = []
    for key in header:
        values = [row[key] for row in rows]
        if all(isinstance(value, float) for value in values):
            columns.append(["%.17g" % value for value in values])
        else:
            columns.append([_format_cell(value) for value in values])
    lines = [",".join(header)] + [",".join(cells) for cells in zip(*columns)]
    return "\n".join(lines) + "\n"
