"""Deterministic Monte Carlo harness for the phase-transition experiments.

Replicas are sampled and swept in stream blocks: one forest of R(n) trees
per block, drawn from one random stream derived from (master seed,
experiment id, depth index, block index), and swept once.  R(n) depends on
the configuration alone, so results are bit-identical for a given
configuration no matter how blocks are distributed over processes.  With
``workers`` above 1 the calling process runs a fixed share of the blocks and
hands each other share to a forked worker, as one pickle of its tasks through
a pipe; the worker sends its blocks back the same way.  Workers are forked on
first need and kept for the life of the process: between scans they wait on
their task pipes, and each runs the code its process had when it forked.
``close_pool`` reaps them, as it does at interpreter exit and after any scan
that fails.  Scans return tables as lists of segments (see
``rows_to_csv``), one per depth for the per-replica and per-generation
tables; CSV rendering lives here so that the byte output is deterministic
too (17 significant digits for floats).
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import BinaryIO, NoReturn

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
# expected vertices per stream block, the unit drawn and swept; sets the
# replicas per block, and so the streams
BLOCK_VERTICES = 600_000
# glibc's mallopt parameters, from malloc.h, and the values a sampled scan
# sets them to
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_TRIM_THRESHOLD = 64 << 20
MALLOC_MMAP_THRESHOLD = 32 << 20
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
# bytes of the length that leads every message through a worker's pipes
MESSAGE_LENGTH_BYTES = 8


# set once the malloc thresholds have been fixed in this process
_malloc_fixed = False
# the scan workers of this process, each as (pid, write end of its task
# pipe, read end of its report pipe)
_pool: list[tuple[int, BinaryIO, BinaryIO]] = []


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
    """Root values of one stream block: one forest of ``roots`` trees drawn
    from the block's own stream, directly (trees, then their field) when
    ``sampler`` is None, else from the pruned law conditioned on survival,
    and swept once; a magnetization block returns root ratios, a capacity
    block root capacities."""
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
    for the calling process, which also sends the others out and reads them."""
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


def _send(pipe: BinaryIO, message: bytes) -> None:
    """Write ``message`` to ``pipe`` after its length, in one write, and flush."""
    pipe.write(len(message).to_bytes(MESSAGE_LENGTH_BYTES, "little") + message)
    pipe.flush()


def _receive(pipe: BinaryIO) -> bytes | None:
    """The next message that ``_send`` wrote to ``pipe``, or None where the
    pipe ends before the message does."""
    head = pipe.read(MESSAGE_LENGTH_BYTES)
    if len(head) < MESSAGE_LENGTH_BYTES:
        return None
    size = int.from_bytes(head, "little")
    body = pipe.read(size)
    return body if len(body) == size else None


def _report(message: bytes) -> bytes:
    """A worker's report on the share of tasks pickled in ``message``: a
    pickle of ``(blocks, None)`` with their ``_sample_block`` results in
    share order, or of ``(None, (exception, formatted traceback))``, the
    exception replaced by a RuntimeError naming it where it does not pickle."""
    try:
        return pickle.dumps(([_sample_block(task) for task in pickle.loads(message)], None))
    except Exception as exc:
        # imported here, so a scan whose workers all succeed never loads it
        import traceback
        text = traceback.format_exc()
        try:
            report = pickle.dumps((None, (exc, text)))
            pickle.loads(report)
        except Exception:
            error = RuntimeError(f"scan worker failed: {exc!r}")
            report = pickle.dumps((None, (error, text)))
        return report


def _serve(task_fd: int, report_fd: int) -> NoReturn:
    """The body of a forked worker: answers each share of tasks read from
    ``task_fd`` with its ``_report`` on ``report_fd``, until the task pipe
    ends.  Never returns: it ends the process with ``os._exit``, code 0 at
    the end of the task pipe and 1 on an error of its own, so no handler or
    buffer of the caller runs twice."""
    code = 1
    try:
        with open(task_fd, "rb") as tasks, open(report_fd, "wb") as reports:
            while (message := _receive(tasks)) is not None:
                _send(reports, _report(message))
        code = 0
    finally:
        os._exit(code)


def _close_ends(worker: tuple[int, BinaryIO, BinaryIO]) -> None:
    """Close this process's ends of ``worker``'s two pipes."""
    for pipe in worker[1:]:
        try:
            pipe.close()
        except OSError:  # the flush of a task pipe whose worker has ended
            pass


def _fork_worker() -> tuple[int, BinaryIO, BinaryIO]:
    """A newly forked worker, as (pid, write end of its task pipe, read end
    of its report pipe).  The worker keeps its own two ends alone, closing
    the caller's and those of every worker before it, so that the caller's
    closing of its ends gives every worker the end of its task pipe."""
    task_read, task_write = os.pipe()
    report_read, report_write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (task_read, task_write, report_read, report_write):
            os.close(fd)
        raise
    if pid == 0:
        os.close(task_write)
        os.close(report_read)
        for worker in _pool:
            _close_ends(worker)
        _serve(task_read, report_write)
    os.close(task_read)
    os.close(report_write)
    return pid, open(task_write, "wb"), open(report_read, "rb")


def _workers(count: int) -> list[tuple[int, BinaryIO, BinaryIO]]:
    """The first ``count`` workers of the pool, forking those it lacks.  A
    pooled worker found ended is reaped and replaced, and so is one that is
    no child of this process, inherited from the process that forked this
    one: its pipe ends are closed here, and it is left alone."""
    for worker in list(_pool):
        try:
            running = os.waitpid(worker[0], os.WNOHANG) == (0, 0)
        except ChildProcessError:  # reaped by another wait, or not a child
            running = False
        if not running:
            _close_ends(worker)
            _pool.remove(worker)
    while len(_pool) < count:
        _pool.append(_fork_worker())
    return _pool[:count]


def close_pool() -> None:
    """Close this process's ends of its scan workers' pipes, which ends each
    idle worker, and reap every worker, killing it first if it still runs;
    workers inherited from the process that forked this one are no children
    of it, and are left alone.  Runs at interpreter exit too.  The next scan
    that needs workers forks them afresh."""
    workers = list(_pool)
    _pool.clear()
    for worker in workers:
        _close_ends(worker)
    for pid, _, _ in workers:
        _reap(pid)


atexit.register(close_pool)


def _run_blocks(tasks: list, shares: list[list[int]]) -> list[np.ndarray]:
    """``_sample_block`` of every task, in task order.

    ``shares[0]`` runs in this process.  Each other share goes to a worker of
    the pool (``_workers``) as one pickle of its tasks, and comes back as one
    ``_report``; the reports are read in order once this process has run its
    own share.  An error in a worker is raised here with its type; a worker
    that ends before its full report raises RuntimeError naming it by its
    number, this process being worker 1, and how it ended.  Workers outlive
    the scan and serve the next one; a scan that fails on any path, an
    interrupt included, kills and reaps every worker and empties the pool."""
    blocks = [None] * len(tasks)
    try:
        workers = _workers(len(shares) - 1)
        for (_, pipe, _), share in zip(workers, shares[1:]):
            try:
                _send(pipe, pickle.dumps([tasks[i] for i in share]))
            except BrokenPipeError:  # an ended worker shows when its report is read
                pass
        for i in shares[0]:
            blocks[i] = _sample_block(tasks[i])
        for number, ((pid, _, pipe), share) in enumerate(zip(workers, shares[1:]), start=2):
            report = _receive(pipe)
            if report is None:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                ending = f"exit code {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError(f"scan worker {number} of {len(shares)} (pid {pid}) "
                                   f"ended with {ending} before a full report")
            done, failure = pickle.loads(report)
            if failure is not None:
                error, text = failure
                raise error from RuntimeError(f"in scan worker {number}:\n{text}")
            for i, block in zip(share, done):
                blocks[i] = block
    except BaseException:
        close_pool()
        raise
    return blocks


def _sample_scan(cfg: ExperimentConfig, experiment: str,
                 pruned: bool) -> tuple[list[GammaProfile | None], np.ndarray]:
    """Each depth's pruned profile (None when sampled directly) and the
    (depths x replicas) matrix of ``_sample_block`` values.  Every depth is
    sized, so checked against the population cap, before any sampling.

    A stream block is the one unit that is drawn, swept and run as a task:
    ``block_replicas`` replicas (the last block of a depth takes the
    remainder) drawn as one forest from one stream of ``replica_rng``.  The
    blocks run on min(``workers``, blocks, CPUs) processes, this one
    included, by ``_run_blocks``; each share is fixed before any block runs,
    and the output does not depend on it."""
    _fix_malloc()
    profiles, tasks, weights = [], [], []
    for n_index, n in enumerate(cfg.n_grid):
        profile = gamma_profile(cfg.pmf, cfg.p_n(n), n) if pruned else None
        size = block_replicas(cfg.pmf, n, profile)
        vertices = replica_vertices(cfg.pmf, n, profile)
        sampler = None if profile is None else PrunedLawSampler(profile)
        profiles.append(profile)
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


def _fix_malloc() -> None:
    """Set glibc's malloc thresholds for this process and the workers it
    forks, once, where ``mallopt`` exists: freed memory is returned to the
    system only past ``MALLOC_TRIM_THRESHOLD`` bytes, and only blocks of
    ``MALLOC_MMAP_THRESHOLD`` bytes or more are mapped on their own.  Under
    glibc's defaults every block's arrays were unmapped when freed and
    faulted in again by the next block."""
    global _malloc_fixed
    if _malloc_fixed:
        return
    _malloc_fixed = True
    # imported here, so that a scan that samples nothing never loads it
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library by name
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)


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

    Emits one segment per depth of rows per replica (capacity, the benchmark
    alpha_n, their ratio) plus one summary row per depth with the empirical
    mean against the mean-capacity bound.  Rows and ratio quantiles are over
    surviving trees, so a ratio divides by alpha_n / (1 - gamma_0), the
    benchmark on the same event; the mean, its SE and the bound carry the
    weight 1 - gamma_0.  Every replica survives, so its capacity is
    positive: a capacity of 0 has underflowed the double range, and the scan
    raises ConfigError rather than write it.
    """
    _validate_scan(cfg, "capacity")
    profiles, values_by_n = _sample_scan(cfg, "capacity", pruned=True)
    rows, summary = [], []
    for n, profile, values in zip(cfg.n_grid, profiles, values_by_n):
        if not values.min() > 0.0:
            raise ConfigError(
                f"capacity_p {cfg.capacity_p} underflows at n = {n}: "
                f"{int(np.count_nonzero(values == 0.0))} of {cfg.replicas} capacities are 0")
        p_n = profile.p_n
        w = float(profile.one_minus_gamma[0])
        a_n = cap.alpha_n(cfg.beta, cfg.pmf.mean(), p_n, n, cfg.capacity_p)
        ratios = values / (a_n / w)
        rows.append({"n": n, "p_n": p_n, "replica": range(cfg.replicas),
                     "capacity_p": values.tolist(), "alpha_n": a_n,
                     "ratio": ratios.tolist()})
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
    M*_{0,k}), one segment per depth in the grid, and booleans for each
    transition inequality evaluated with the frozen calibration constants.
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
        rows.append({
            "n": n, "p_n": p_n, "k": range(n + 1),
            "gamma_k": profile.gamma.tolist(),
            "one_minus_gamma_k": profile.one_minus_gamma.tolist(),
            "nu_star_k": profile.nu_star.tolist() + [math.nan],
            "sigma_q_star_k": sigma.tolist() + [math.nan],
            "M_star_0k": profile.m_0k.tolist(), "k_star": ks,
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
    generation, one segment per depth, with the crossing generation against
    k*."""
    _validate_scan(cfg, "tv")
    rows, summary = [], []
    for n in cfg.n_grid:
        p_n = cfg.p_n(n)
        profile = gamma_profile(cfg.pmf, p_n, n)
        to_mu, to_dirac = tv_profile(profile)
        rows.append({"n": n, "p_n": p_n, "k": range(len(to_mu)),
                     "tv_to_mu": to_mu.tolist(), "tv_to_dirac1": to_dirac.tolist()})
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


def _segment_csv(header: list, segment: dict) -> str:
    """The CSV lines of one segment, rendered by a single ``%`` operation."""
    cells, columns = [], []
    for key in header:
        value = segment[key]
        if not isinstance(value, (list, range)):
            cells.append(_format_cell(value).replace("%", "%%"))
            continue
        if columns and len(value) != len(columns[0]):
            raise ValueError(f"column {key!r} has {len(value)} rows, "
                             f"not {len(columns[0])} as the segment's first list")
        types = {int} if isinstance(value, range) else set(map(type, value))
        if types <= {float}:
            cells.append("%.17g")
        elif types <= {int}:
            cells.append("%d")
        else:
            cells.append("%s")
            value = [_format_cell(cell) for cell in value]
        columns.append(value)
    line = ",".join(cells) + "\n"
    return (line * (len(columns[0]) if columns else 1)) % tuple(
        itertools.chain.from_iterable(zip(*columns)))


def rows_to_csv(rows: list[dict]) -> str:
    """Render a table, given as a list of segments, as CSV with
    round-trippable floats.

    A segment maps each column either to one value shared by all its rows or
    to a per-row ``list`` or ``range``; one without lists is a single row, so
    a row dict is a one-row segment.  Every segment has the first one's keys,
    and its lists one length; a ragged table raises ValueError.  A shared cell
    is formatted once by ``_format_cell``, a list of floats alone by
    ``"%.17g"`` and one of ints alone by ``"%d"``, which give its bytes, and
    any other list cell by cell."""
    if not rows:
        return "\n"
    header = list(rows[0])
    parts = [",".join(header) + "\n"]
    for segment in rows:
        if segment.keys() != rows[0].keys():
            raise ValueError(f"segment keys {list(segment)} differ from the "
                             f"table's {header}")
        parts.append(_segment_csv(header, segment))
    return "".join(parts)
