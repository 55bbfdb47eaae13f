import errno
import itertools
import math
import os
import signal
import time
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

import gwising.experiments
import gwising.ising
import gwising.tree
import gwising.validate
from gwising import FieldMode, OffspringPmf, capacity_recursion, lyons_field
from gwising.experiments import (ConfigError, ExperimentConfig, PSchedule,
                                 block_replicas, replica_rng, rows_to_csv,
                                 run_capacity_scan,
                                 run_gamma_scan, run_magnetization_scan,
                                 run_tv_scan, validate_config, wilson_interval)
from gwising.fields import plus_boundary_field, prune, sample_field
from gwising.pruned_law import PrunedLawSampler, gamma_profile
from gwising.tree import sample_gw
from gwising.validate import enumerate_trees, run_validation, suite_ztb_mixture_routes

# the bound on |z| between two estimates of one mean, as the benchmark's
# direct-vs-pruned check (bench/workloads.py) uses it
AGREEMENT_SES = 5.0


def base_config(**overrides):
    defaults = dict(pmf=OffspringPmf.from_dict({1: 0.5, 2: 0.5}), beta=0.9,
                    schedule=PSchedule("constant", 0.5), n_grid=(3, 4),
                    replicas=32, mode="magnetization", master_seed=11)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def segment_rows(segments):
    """The row dicts of a table given as segments, as ``rows_to_csv`` reads
    them: a ``list`` or ``range`` column gives one value per row, any other
    column one value shared by the segment's rows."""
    rows = []
    for segment in segments:
        lists = [value for value in segment.values() if isinstance(value, (list, range))]
        for i in range(len(lists[0]) if lists else 1):
            rows.append({key: value[i] if isinstance(value, (list, range)) else value
                         for key, value in segment.items()})
    return rows


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        validate_config(base_config(mode="nonsense"))
    with pytest.raises(ConfigError):
        validate_config(base_config(replicas=0))
    with pytest.raises(ConfigError):
        validate_config(base_config(schedule=PSchedule("constant", 1.5)))
    with pytest.raises(ConfigError):
        validate_config(base_config(schedule=PSchedule("geometric", 1.0, 1.5),
                                    n_grid=(2,)))  # p_n > 1
    with pytest.raises(ConfigError):
        validate_config(base_config(method="pruned",
                                    field_mode=FieldMode.WHOLE_TREE))
    with pytest.raises(ConfigError):
        validate_config(base_config(epsilon_sweep=(0.05, 0.0)))
    with pytest.raises(ConfigError, match="empty epsilon_sweep"):
        validate_config(base_config(epsilon_sweep=()))
    with pytest.raises(ConfigError, match="master_seed"):
        validate_config(base_config(master_seed=-1))
    # p_110 = 1.3e-297 lies in (0, 1], but alpha_110 underflows to 0
    with pytest.raises(ConfigError, match="alpha_110 = 0.0 at depth 110"):
        validate_config(base_config(mode="capacity", beta=0.3, n_grid=(8, 110),
                                    schedule=PSchedule("geometric", 1.0, 0.002)))
    for workers in (0, -2):
        with pytest.raises(ConfigError, match="worker"):
            validate_config(base_config(workers=workers))
    with pytest.raises(ConfigError, match=r"beta must lie in \[0, 354.891\]"):
        validate_config(base_config(beta=355.0))
    validate_config(base_config(beta=gwising.experiments.MAX_BETA))
    with pytest.raises(ConfigError, match="needs a positive lam, got -0.5"):
        validate_config(base_config(schedule=PSchedule("geometric", 1.0, -0.5),
                                    n_grid=(4, 6)))
    with pytest.raises(ConfigError, match="'threshold' takes no lam"):
        validate_config(base_config(schedule=PSchedule("threshold", 1.0, 0.5)))
    validate_config(base_config())


@pytest.mark.parametrize("scan", [run_magnetization_scan, run_gamma_scan,
                                  run_capacity_scan, run_tv_scan])
@pytest.mark.parametrize("overrides", [
    {},
    # a foreign mode skipped the capacity checks: the capacity scan then
    # failed in the sweep on resistances tanh(0) = 0, and on alpha_110 = 0
    {"beta": 0.0},
    {"beta": 0.3, "n_grid": (8, 110), "schedule": PSchedule("geometric", 1.0, 0.002)},
])
def test_each_scan_runs_only_its_own_mode(scan, overrides):
    own = scan.__name__.split("_")[1]
    for mode in (*gwising.experiments.EXPERIMENT_IDS, "validate"):
        if mode != own:
            with pytest.raises(ConfigError, match=f"the {own} scan runs mode '{own}', "
                                                  f"not '{mode}'"):
                scan(base_config(mode=mode, **overrides))


def test_schedules():
    nu, beta = 2.0, math.atanh(0.8)
    assert PSchedule("constant", 0.3).p(7, nu, beta) == 0.3
    assert PSchedule("geometric", 1.0, 0.5).p(4, nu, beta) == 0.0625
    assert PSchedule("threshold", 2.0).p(3, nu, beta) == pytest.approx(2 * 1.6**-3)
    assert PSchedule("threshold_geometric", 1.0, 0.7).p(3, nu, beta) == pytest.approx(
        1.6**-3 * 0.7**3)


def test_replica_streams_are_independent_and_stable():
    a = replica_rng(5, 1, 0, 3).random(4)
    b = replica_rng(5, 1, 0, 3).random(4)
    c = replica_rng(5, 1, 0, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_scan_is_deterministic_and_worker_independent():
    rows1 = run_magnetization_scan(base_config())
    rows2 = run_magnetization_scan(base_config())
    rows3 = run_magnetization_scan(base_config(workers=2))
    assert rows_to_csv(rows1) == rows_to_csv(rows2) == rows_to_csv(rows3)


def scan_csv(cfg):
    if cfg.mode == "magnetization":
        return rows_to_csv(run_magnetization_scan(cfg))
    out = run_capacity_scan(cfg)
    return rows_to_csv(out["rows"]) + rows_to_csv(out["summary"])


@pytest.mark.parametrize("mode,method,field_mode", [
    pytest.param("magnetization", "direct", FieldMode.LEAVES_ONLY, id="magnetization-direct"),
    pytest.param("magnetization", "direct", FieldMode.WHOLE_TREE,
                 id="magnetization-direct-whole_tree"),
    pytest.param("magnetization", "pruned", FieldMode.LEAVES_ONLY, id="magnetization-pruned"),
    pytest.param("capacity", "direct", FieldMode.LEAVES_ONLY, id="capacity-direct"),
])
def test_block_scans_are_byte_identical_across_workers(monkeypatch, three_cpus, mode, method,
                                                       field_mode):
    # direct blocks hold 135 and 60 replicas at n = 18 and 20, pruned ones
    # 197 and 87: 200 replicas make 2 and 4 blocks, or 2 and 3
    cfg = base_config(mode=mode, method=method, field_mode=field_mode, n_grid=(18, 20),
                      replicas=200)
    pruned = method == "pruned" or mode == "capacity"
    for n in cfg.n_grid:
        size = block_replicas(cfg.pmf, n,
                              gamma_profile(cfg.pmf, cfg.p_n(n), n) if pruned else None)
        assert 1 < size < cfg.replicas and cfg.replicas % size  # a short last block

    run_blocks = gwising.experiments._run_blocks
    processes = []

    def recording_run_blocks(tasks, shares):
        processes.append(len(shares))
        return run_blocks(tasks, shares)

    monkeypatch.setattr(gwising.experiments, "_run_blocks", recording_run_blocks)
    outputs = [scan_bytes(replace(cfg, workers=workers)) for workers in (1, 2, 3)]
    assert processes == [1, 1, 2, 2, 3, 3]
    assert outputs[1:] == outputs[:1] * 2


def scan_bytes(cfg):
    """The scan's CSV, and the bytes of its matrix of root values, whose
    order the magnetization table's means and counts would not show."""
    pruned = cfg.method == "pruned" or cfg.mode == "capacity"
    _, values = gwising.experiments._sample_scan(cfg, cfg.mode, pruned)
    return scan_csv(cfg), values.tobytes()


@pytest.mark.parametrize("mode, method", [("magnetization", "direct"),
                                          ("magnetization", "pruned"),
                                          ("capacity", "pruned")])
def test_each_block_is_one_forest_of_its_own_stream_swept_once(mode, method):
    # at n = 20 a direct block holds 60 replicas and a pruned one 87, so 130
    # replicas make blocks of 60, 60 and 10, or 87 and 43; at n = 4 one
    # block holds them all
    cfg = base_config(mode=mode, method=method, n_grid=(4, 20), replicas=130)
    pruned = method == "pruned"
    _, values = gwising.experiments._sample_scan(cfg, mode, pruned)
    blocks = []
    for n_index, (n, row) in enumerate(zip(cfg.n_grid, values)):
        profile = gamma_profile(cfg.pmf, cfg.p_n(n), n) if pruned else None
        size = block_replicas(cfg.pmf, n, profile)
        for block, start in enumerate(range(0, cfg.replicas, size)):
            roots = min(size, cfg.replicas - start)
            rng = replica_rng(cfg.master_seed, gwising.experiments.EXPERIMENT_IDS[mode],
                              n_index, block)
            if profile is None:
                forest = sample_gw(cfg.pmf, n, rng, roots=roots)
                h = sample_field(forest, cfg.field_mode, cfg.p_n(n), rng)
            else:
                forest = PrunedLawSampler(profile).sample(rng, roots=roots)
                h = plus_boundary_field(forest)
            if mode == "magnetization":
                want = lyons_field(forest, h, cfg.beta, roots_only=True)
            else:
                want = capacity_recursion(forest, math.tanh(cfg.beta), cfg.capacity_p,
                                          roots_only=True)
            assert row[start:start + roots].tobytes() == want.tobytes()
            blocks.append(roots)
    assert blocks == ([130, 60, 60, 10] if method == "direct" else [130, 87, 43])


def wide_law():
    """A law whose top degree, 300, takes int64 child counts."""
    return OffspringPmf.from_dict({1: 0.995, 300: 0.005})


@pytest.mark.parametrize("mode, method", [("magnetization", "direct"),
                                          ("magnetization", "pruned"),
                                          ("capacity", "direct")])
@pytest.mark.parametrize("pmf", [base_config().pmf, wide_law()], ids=["half12", "wide300"])
def test_one_byte_child_counts_move_no_byte(monkeypatch, pmf, mode, method):
    # a narrow law's scan against the same scan on int64 arenas throughout;
    # the wide law's arenas are int64 either way
    cfg = base_config(pmf=pmf, mode=mode, method=method, n_grid=(3, 7), replicas=60)
    arenas = []
    arena = gwising.tree._arena

    def recording_arena(counts, total):
        num_children = arena(counts, total)
        arenas.append(num_children.dtype)
        return num_children

    monkeypatch.setattr(gwising.tree, "_arena", recording_arena)
    narrow = scan_csv(cfg)
    assert set(arenas) == {np.dtype(np.int64 if pmf.max_degree > 255 else np.uint8)}
    monkeypatch.setattr(gwising.tree, "_count_dtype", lambda top: np.dtype(np.int64))
    arenas.clear()
    assert scan_csv(cfg) == narrow
    assert set(arenas) == {np.dtype(np.int64)}


class NoMallopt:
    """``ctypes.CDLL(None)`` of a C library without ``mallopt``."""


def test_a_scan_without_mallopt_writes_the_same_bytes(monkeypatch):
    import ctypes
    cfg = base_config(n_grid=(3, 12), replicas=100)
    want = scan_csv(cfg)
    monkeypatch.setattr(gwising.experiments, "_malloc_fixed", False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: NoMallopt())
    assert scan_csv(cfg) == want
    assert gwising.experiments._malloc_fixed


def test_the_malloc_policy_is_applied_once_per_process(monkeypatch):
    import ctypes
    libraries, calls = [], []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def cdll(name):
        libraries.append(name)
        return types.SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(gwising.experiments, "_malloc_fixed", False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    for mode in ("magnetization", "capacity", "magnetization"):
        scan_csv(base_config(mode=mode, n_grid=(3,), replicas=4))
    assert libraries == [None]
    assert calls == [(-1, 64 << 20), (-3, 32 << 20)]


@pytest.fixture
def process_counts(monkeypatch):
    """The number of processes each scan asks ``_run_blocks`` for.  Stands in
    for the forking runner: checks that the shares split the tasks and runs
    them in process, so no process is started."""
    counts = []

    def recording_run_blocks(tasks, shares):
        counts.append(len(shares))
        assert sorted(itertools.chain(*shares)) == list(range(len(tasks)))
        return [gwising.experiments._sample_block(task) for task in tasks]

    monkeypatch.setattr(gwising.experiments, "_run_blocks", recording_run_blocks)
    return counts


@pytest.mark.parametrize("workers, cpus, n_grid, processes", [
    (2000, 64, (3, 4, 5, 6, 7, 8), 6),  # one process per block at most
    (2000, 4, (3, 4, 5, 6, 7, 8), 4),   # and one per CPU
    (3, 64, (3, 4, 5, 6, 7, 8), 3),
    (2, 2, (3, 4, 5, 6, 7, 8), 2),
    (2000, None, (3, 4, 5, 6, 7, 8), 1),  # CPU count unknown: in process
    (2000, 64, (3,), 1),                  # one block: in process
    # where the platform has an affinity mask, only the CPUs in it count
    pytest.param(2, {5}, (3, 4, 5, 6, 7, 8), 1, id="pinned-to-1-cpu"),
    pytest.param(2000, {0, 2, 3}, (3, 4, 5, 6, 7, 8), 3, id="pinned-to-3-cpus"),
])
def test_pool_size_is_capped_by_blocks_and_cpus(monkeypatch, process_counts, workers, cpus,
                                                n_grid, processes):
    """``cpus`` is ``os.cpu_count()`` on a platform with no affinity mask, or
    a set: the affinity mask of a process on a 64-CPU machine.  ``processes``
    counts the calling process too."""
    if isinstance(cpus, set):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    cfg = base_config(n_grid=n_grid, replicas=1)  # one block per depth
    rows = run_magnetization_scan(replace(cfg, workers=workers))
    assert process_counts == [processes]
    monkeypatch.undo()
    assert rows_to_csv(rows) == rows_to_csv(run_magnetization_scan(cfg))


def test_an_interrupt_in_the_callers_share_kills_and_reaps_every_child(monkeypatch,
                                                                       three_cpus):
    caller = os.getpid()

    def block(task):
        if os.getpid() != caller:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(gwising.experiments, "_sample_block", block)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_magnetization_scan(base_config(n_grid=(3, 4, 5), replicas=1, workers=3))
    assert time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_reaps_the_children_started_and_raises(monkeypatch, three_cpus):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(BlockingIOError):
        run_magnetization_scan(base_config(n_grid=(3, 4, 5), replicas=1, workers=3))
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers forked in this test, in the order forked."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_are_forked_once_and_serve_every_later_scan(three_cpus, forked):
    # 200 replicas make 2 pruned blocks at n = 18 and 3 at n = 20
    cfg = base_config(mode="capacity", n_grid=(18, 20), replicas=200)
    want = scan_bytes(cfg)
    assert forked == []
    for _ in range(3):
        assert scan_bytes(replace(cfg, workers=3)) == want
    assert len(forked) == 2


@pytest.mark.parametrize("failure, raised", [
    ("error", pytest.raises(ValueError, match="bad block")),
    ("kill", pytest.raises(RuntimeError, match="scan worker 2 of 3 .* signal 9")),
    ("interrupt", pytest.raises(KeyboardInterrupt)),
])
def test_a_failed_scan_reaps_every_worker_and_the_next_forks_afresh(monkeypatch, three_cpus,
                                                                    forked, failure, raised):
    cfg = base_config(n_grid=(3, 4, 5), replicas=4)
    want = rows_to_csv(run_magnetization_scan(cfg))
    caller = os.getpid()
    real_block = gwising.experiments._sample_block

    def failing_block(task):
        if os.getpid() == caller:
            if failure == "interrupt":
                raise KeyboardInterrupt
        elif failure == "error":
            raise ValueError("bad block")
        elif failure == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return real_block(task)

    # the workers forked now run the failing blocks
    monkeypatch.setattr(gwising.experiments, "_sample_block", failing_block)
    with raised:
        run_magnetization_scan(replace(cfg, workers=3))
    assert len(forked) == 2
    assert_no_child_process()
    monkeypatch.setattr(gwising.experiments, "_sample_block", real_block)
    assert rows_to_csv(run_magnetization_scan(replace(cfg, workers=3))) == want
    assert len(forked) == 4


def test_a_worker_killed_while_idle_is_replaced(three_cpus, forked):
    cfg = base_config(n_grid=(3, 4, 5), replicas=4, workers=3)
    want = rows_to_csv(run_magnetization_scan(replace(cfg, workers=1)))
    assert rows_to_csv(run_magnetization_scan(cfg)) == want
    os.kill(forked[0], signal.SIGKILL)
    # ended, and left unreaped for the pool to find
    os.waitid(os.P_PID, forked[0], os.WEXITED | os.WNOWAIT)
    assert rows_to_csv(run_magnetization_scan(cfg)) == want
    assert len(forked) == 3


def test_closing_a_workers_task_pipe_ends_that_worker_alone(three_cpus, forked):
    # no later worker holds the pipe ends of those before it, so each ends
    # on its own task pipe's end, with exit code 0
    cfg = base_config(n_grid=(3, 4, 5), replicas=4, workers=3)
    want = rows_to_csv(run_magnetization_scan(cfg))
    first, second = forked
    [(pid, tasks, _), _] = gwising.experiments._pool
    assert pid == first
    tasks.close()
    assert os.waitstatus_to_exitcode(os.waitpid(first, 0)[1]) == 0
    assert os.waitpid(second, os.WNOHANG) == (0, 0)
    # the ended worker is replaced, the other one kept
    assert rows_to_csv(run_magnetization_scan(cfg)) == want
    assert len(forked) == 3
    assert [pid for pid, _, _ in gwising.experiments._pool] == [second, forked[2]]


def test_a_process_forked_after_a_scan_forks_workers_of_its_own(three_cpus, forked):
    cfg = base_config(n_grid=(3, 4, 5), replicas=4, workers=3)
    want = rows_to_csv(run_magnetization_scan(cfg))
    child = os.fork()
    if child == 0:
        code = 1
        try:
            # the caller's two workers are left to it, and two more forked here
            if rows_to_csv(run_magnetization_scan(cfg)) == want and len(forked) == 4:
                code = 0
            gwising.experiments.close_pool()
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
    assert rows_to_csv(run_magnetization_scan(cfg)) == want
    assert len(forked) == 3


class UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle")


def test_an_error_that_cannot_be_pickled_reaches_the_caller_by_its_repr(monkeypatch,
                                                                          three_cpus):
    caller = os.getpid()
    real_block = gwising.experiments._sample_block

    def block(task):
        if os.getpid() != caller:
            raise UnpicklableError("lost")
        return real_block(task)

    monkeypatch.setattr(gwising.experiments, "_sample_block", block)
    with pytest.raises(RuntimeError,
                       match=r"scan worker failed: UnpicklableError\('lost'\)") as info:
        run_magnetization_scan(base_config(n_grid=(3, 4, 5), replicas=1, workers=3))
    # the child's traceback comes along as the cause
    assert "in scan worker" in str(info.value.__cause__)
    assert "raise UnpicklableError" in str(info.value.__cause__)


def test_a_platform_without_fork_scans_in_process(monkeypatch, process_counts):
    monkeypatch.delattr(os, "fork")
    run_magnetization_scan(base_config(n_grid=(3, 4, 5), replicas=1, workers=3))
    assert process_counts == [1]


@pytest.mark.parametrize("weights, processes, shares", [
    ([1.0, 1.0, 1.0], 1, [[0, 1, 2]]),
    ([6.0, 1.0, 1.0, 1.0, 1.0, 1.0], 2, [[1, 2, 3, 4, 5], [0]]),
    ([3.0, 3.0, 2.0, 2.0, 2.0], 2, [[1, 3], [0, 2, 4]]),
    ([1.0, 2.0, 3.0, 4.0], 3, [[2], [0, 1], [3]]),
])
def test_shares_take_the_heaviest_block_first_and_the_caller_the_lightest(
        weights, processes, shares):
    assert gwising.experiments._shares(weights, processes) == shares


def test_block_replicas_examples():
    half12 = base_config().pmf
    assert block_replicas(half12, 20) == 60         # 600,000 // sum_{k<=20} 1.5^k
    assert block_replicas(half12, 0) == 600_000
    assert block_replicas(half12, 20, gamma_profile(half12, 0.5, 20)) == 87
    # gamma_0 = 1: a surviving draw is nearly a path of 7 vertices
    assert block_replicas(half12, 6, gamma_profile(half12, 1e-300, 6)) == 85714


@pytest.mark.parametrize("method, n, expected", [("pruned", 70, 1.98e8),
                                                 ("direct", 50, 1.91e9)])
def test_preflight_rejects_depths_past_the_population_cap(monkeypatch, method, n, expected):
    # half12 at nu tanh(beta) = 1.2 on the threshold schedule: one replica is
    # expected to have more vertices than the cap allows for; the scan stops
    # before anything is sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a replica")

    monkeypatch.setattr(gwising.experiments, "_sample_block", no_sampling)
    cfg = base_config(beta=math.atanh(0.8), schedule=PSchedule("threshold", 1.0),
                      n_grid=(n,), method=method)
    with pytest.raises(ConfigError, match=f"depth {n}: ") as caught:
        run_magnetization_scan(cfg)
    assert f"{expected:.3g} vertices" in str(caught.value)
    # half12 on this schedule at the depths of the sampling benchmarks
    assert block_replicas(cfg.pmf, 22) >= 1
    assert block_replicas(cfg.pmf, 45, gamma_profile(cfg.pmf, cfg.p_n(45), 45)) >= 1
    with pytest.raises(ConfigError, match="depth 3000: .* inf vertices"):
        block_replicas(cfg.pmf, 3000)


def test_constant_field_keeps_root_magnetized():
    # whole-tree Bernoulli(1/2) field: r >= 2 beta h_root, so the exceedance
    # frequency stays above p - sampling noise at small epsilon
    cfg = base_config(field_mode=FieldMode.WHOLE_TREE, replicas=400, n_grid=(4,))
    rows = [r for r in run_magnetization_scan(cfg) if r["epsilon"] == 0.01]
    assert rows[0]["prob_m_gt_eps"] >= 0.5 - 3 * math.sqrt(0.25 / 400)


def test_mean_r_bounded_by_analytic_column():
    cfg = base_config(field_mode=FieldMode.WHOLE_TREE, replicas=300, n_grid=(5,))
    row = run_magnetization_scan(cfg)[0]
    assert row["mean_r"] <= row["mean_r_bound"] + 3 * row["se_r"]


def test_standard_error_shrinks_like_sqrt_replicas():
    r1 = run_magnetization_scan(base_config(replicas=400, n_grid=(4,)))[0]
    r2 = run_magnetization_scan(base_config(replicas=1600, n_grid=(4,)))[0]
    ratio = r1["se_r"] / r2["se_r"]
    assert ratio == pytest.approx(2.0, rel=0.25)


def test_gamma_scan_p_one_and_monotone(dirac2):
    cfg = base_config(pmf=dirac2, mode="gamma", schedule=PSchedule("constant", 1.0),
                      n_grid=(8,), replicas=1)
    out = run_gamma_scan(cfg)
    gammas = [row["gamma_k"] for row in segment_rows(out["rows"])]
    assert gammas == [0.0] * 9
    cfg2 = base_config(pmf=dirac2, mode="gamma",
                       schedule=PSchedule("geometric", 1.0, 0.5), n_grid=(16,),
                       replicas=1)
    out2 = run_gamma_scan(cfg2)
    gam = [row["gamma_k"] for row in segment_rows(out2["rows"])]
    assert all(a <= b + 1e-15 for a, b in zip(gam, gam[1:]))
    assert all(all(v for k, v in b.items() if isinstance(v, bool))
               for b in out2["bounds"])


def test_gamma_scan_closed_form_column(dirac2):
    cfg = base_config(pmf=dirac2, mode="gamma",
                      schedule=PSchedule("constant", 0.5), n_grid=(20,), replicas=1)
    rows = segment_rows(run_gamma_scan(cfg)["rows"])
    for row in rows:
        k_bar = 20 - row["k"]
        expected = math.exp(2.0**k_bar * math.log1p(-0.5)) if k_bar < 40 else 0.0
        assert row["gamma_k"] == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_tv_scan_examples(half13):
    cfg = base_config(pmf=half13, mode="tv", schedule=PSchedule("constant", 1.0),
                      n_grid=(10,), replicas=1)
    rows = segment_rows(run_tv_scan(cfg)["rows"])
    assert all(row["tv_to_mu"] <= 1e-15 for row in rows)
    cfg2 = base_config(pmf=half13, mode="tv",
                       schedule=PSchedule("geometric", 1.0, 2.0**-0.5),
                       n_grid=(30,), replicas=1)
    out = run_tv_scan(cfg2)
    assert out["summary"][0]["crossing_ok"]
    first = [r for r in segment_rows(out["rows"]) if r["k"] == 0][0]
    last = [r for r in segment_rows(out["rows"]) if r["k"] == 29][0]
    assert first["tv_to_mu"] < 0.01
    assert last["tv_to_dirac1"] < 0.01


def test_capacity_scan_rows_and_summary(dirac2):
    cfg = base_config(pmf=dirac2, beta=0.8, mode="capacity",
                      schedule=PSchedule("geometric", 1.0, 0.5),
                      n_grid=(6,), replicas=64, capacity_p=1.5)
    out = run_capacity_scan(cfg)
    assert len(segment_rows(out["rows"])) == 64
    # the rows are surviving trees, so the ratio's scale is alpha_n on that
    # event: alpha_n / (1 - gamma_0)
    w = float(gamma_profile(dirac2, cfg.p_n(6), 6).one_minus_gamma[0])
    assert w < 0.9
    for row in segment_rows(out["rows"]):
        assert row["capacity_p"] >= 0.0
        assert row["ratio"] == pytest.approx(row["capacity_p"] * w / row["alpha_n"])
    summary = out["summary"][0]
    assert summary["mean_capacity"] <= summary["mean_capacity_bound"] + \
        3 * summary["se_capacity"]


def test_capacity_scan_subcritical_mean_decays_like_alpha(dirac2):
    # tanh(beta) nu < 1: mean capacity tracks alpha_n = p (tanh(beta) nu)^n
    beta = 0.2
    assert 2.0 * math.tanh(beta) < 1.0
    cfg = base_config(pmf=dirac2, beta=beta, mode="capacity",
                      schedule=PSchedule("constant", 0.1),
                      n_grid=(4, 6, 8), replicas=2500, capacity_p=1.5)
    summary = run_capacity_scan(cfg)["summary"]
    ratios = [row["mean_capacity"] / row["alpha_n"] for row in summary]
    assert all(0.0 < r < 10.0 for r in ratios)
    ns = np.array([row["n"] for row in summary], dtype=float)
    slope = float(np.polyfit(ns, np.log([row["mean_capacity"] for row in summary]), 1)[0])
    expected = math.log(2.0 * math.tanh(beta))
    assert slope == pytest.approx(expected, rel=0.25)


def test_capacity_scan_supercritical_quantile_stays_positive(dirac2):
    # p_n (tanh(beta) nu)^n = 1: the lower quantile of capa_{3/2} is bounded
    # away from zero across depths
    beta = math.atanh(0.8)
    cfg = base_config(pmf=dirac2, beta=beta, mode="capacity",
                      schedule=PSchedule("threshold", 1.0),
                      n_grid=(8, 12, 16), replicas=1200, capacity_p=1.5)
    summary = run_capacity_scan(cfg)["summary"]
    lows = [row["ratio_p05"] for row in summary]
    assert min(lows) > 0.01
    assert min(lows) >= 0.4 * max(lows)


def test_capacity_scan_near_p_one_stays_positive_and_finite(half12):
    # at p = 1.00001, s = 1e5: x^{-s} and the bound's power sum used to
    # overflow, giving zero capacities, an infinite bound and a warning
    cfg = base_config(pmf=half12, beta=math.atanh(0.8), mode="capacity",
                      schedule=PSchedule("threshold", 1.0), n_grid=(10,),
                      replicas=20, capacity_p=1.00001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = run_capacity_scan(cfg)
    assert all(row["capacity_p"] > 0.0 for row in segment_rows(out["rows"]))
    assert 0.0 < out["summary"][0]["mean_capacity_bound"] < math.inf


def test_capacity_ratio_quantiles_hold_their_scale_below_threshold(half12):
    # lambda = 1/2: 1 - gamma_0 falls like alpha_n, and the surviving trees'
    # ratios keep one scale once divided by alpha_n / (1 - gamma_0)
    cfg = base_config(pmf=half12, beta=math.atanh(0.8), mode="capacity",
                      schedule=PSchedule("threshold_geometric", 1.0, 0.5),
                      n_grid=(10, 22), replicas=500, master_seed=5)
    first, last = run_capacity_scan(cfg)["summary"]
    assert last["ratio_p50"] == pytest.approx(first["ratio_p50"], rel=0.1)


def test_capacity_scan_records_empty_trees_as_zero(dirac2):
    # the replicas survive, so each capacity is positive; the empty trees
    # (gamma_0 is large at p_4 = 2^-8) enter the mean as 0 through the weight
    cfg = base_config(pmf=dirac2, beta=0.8, mode="capacity",
                      schedule=PSchedule("geometric", 1.0, 0.25),
                      n_grid=(4,), replicas=300, capacity_p=1.5)
    out = run_capacity_scan(cfg)
    values = np.array([row["capacity_p"] for row in segment_rows(out["rows"])])
    assert np.all(values > 0.0)
    w = float(gamma_profile(dirac2, 2.0**-8, 4).one_minus_gamma[0])
    assert w < 0.5
    assert out["summary"][0]["mean_capacity"] == w * float(values.mean())


def test_magnetization_envelope_decay_at_half(dirac2):
    # schedule (nu tanh beta)^{-n} lambda^n with lambda = 1/2: the mean ratio
    # decays at rate log(1/2) within a loose regression tolerance
    beta = math.atanh(0.8)
    cfg = base_config(pmf=dirac2, beta=beta, mode="magnetization",
                      method="pruned", replicas=1500,
                      schedule=PSchedule("threshold_geometric", 1.0, 0.5),
                      n_grid=(6, 9, 12))
    rows = run_magnetization_scan(cfg)
    by_n = sorted({r["n"]: r["mean_r"] for r in rows}.items())
    slope = float(np.polyfit([n for n, _ in by_n],
                             np.log([m for _, m in by_n]), 1)[0])
    assert slope == pytest.approx(math.log(0.5), rel=0.25)


def test_pruned_scan_is_positive_far_below_threshold(half12):
    # lambda = 1/2: 1 - gamma_0 is 2.1e-4 at n = 18 and 3.2e-5 at n = 22, so
    # an unconditioned sample of 100 trees would almost surely read r = 0
    cfg = base_config(pmf=half12, beta=math.atanh(0.8), method="pruned",
                      schedule=PSchedule("threshold_geometric", 1.0, 0.5),
                      n_grid=(18, 22), replicas=100, master_seed=5)
    for row in run_magnetization_scan(cfg):
        w = float(gamma_profile(half12, row["p_n"], row["n"]).one_minus_gamma[0])
        assert row["mean_r"] > 0.0 and math.isfinite(row["se_r"])
        assert row["wilson_lo"] <= row["prob_m_gt_eps"] <= row["wilson_hi"] <= w


def exact_root_means(pmf, beta, p_n, n, capacity_p):
    """E[r] at the root and E[capa_p] of the pruned tree (0 when empty), by
    enumerating every depth-n tree and every leaf field."""
    mean_r = mean_capacity = 0.0
    for tree, tree_prob in enumerate_trees(pmf, n):
        leaves = tree.generation_size(n)
        for bits in itertools.product((0, 1), repeat=leaves):
            h = np.zeros(tree.num_vertices, dtype=np.uint8)
            h[tree.gen_offsets[n]:] = bits
            prob = tree_prob * p_n ** sum(bits) * (1 - p_n) ** (leaves - sum(bits))
            mean_r += prob * float(lyons_field(tree, h, beta)[0])
            outcome = prune(tree, h)
            if outcome is not None:
                mean_capacity += prob * capacity_recursion(
                    outcome[0], math.tanh(beta), capacity_p)[0]
    return mean_r, mean_capacity


def test_weighted_pruned_scans_match_exact_enumeration(half12):
    # 1 - gamma_0 is 0.54, 0.34 and 0.22 at n = 1, 2, 3
    cfg = base_config(pmf=half12, beta=math.atanh(0.8), method="pruned",
                      schedule=PSchedule("threshold_geometric", 1.0, 0.5),
                      n_grid=(1, 2, 3), replicas=20000, master_seed=3)
    mag = {row["n"]: row for row in run_magnetization_scan(cfg)}
    cap = {row["n"]: row for row in run_capacity_scan(replace(cfg, mode="capacity"))["summary"]}
    for n in cfg.n_grid:
        mean_r, mean_capacity = exact_root_means(half12, cfg.beta, cfg.p_n(n), n,
                                                 cfg.capacity_p)
        assert abs(mag[n]["mean_r"] - mean_r) <= AGREEMENT_SES * mag[n]["se_r"]
        assert (abs(cap[n]["mean_capacity"] - mean_capacity)
                <= AGREEMENT_SES * cap[n]["se_capacity"])


def test_pruned_scan_agrees_with_direct_at_smaller_error(half12):
    # lambda = 0.7: 1 - gamma_0 is 0.22 at n = 10 and 0.14 at n = 14; most
    # direct replicas read r = 0, which the pruned scan weighs exactly
    cfg = base_config(pmf=half12, beta=math.atanh(0.8), method="pruned",
                      schedule=PSchedule("threshold_geometric", 1.0, 0.7),
                      n_grid=(10, 14), replicas=4000, master_seed=7,
                      epsilon_sweep=(0.05,))
    pruned = run_magnetization_scan(cfg)
    direct = run_magnetization_scan(replace(cfg, method="direct"))
    for a, b in zip(pruned, direct):
        assert abs(a["mean_r"] - b["mean_r"]) <= AGREEMENT_SES * math.hypot(a["se_r"], b["se_r"])
        assert 3.0 * a["se_r"] <= b["se_r"]


def test_validation_bundle_passes_and_detects_faults(monkeypatch):
    report = run_validation(11, instances=40, oracle_instances=4)
    assert report["pass"]
    assert {s["suite"] for s in report["suites"]} == {
        "lyons_vs_bruteforce", "pruning_equivalence", "pruned_law_exact",
        "capacity_recursion_vs_oracle", "ztb_mixture_routes"}
    # sentinel: a corrupted transfer map must trip the recursion-vs-oracle suite
    true_g = gwising.ising.g_beta
    monkeypatch.setattr(gwising.ising, "g_beta",
                        lambda beta, x: true_g(beta, x) * 1.001)
    broken = run_validation(11, instances=10, oracle_instances=1)
    assert not broken["suites"][0]["pass"]
    assert not broken["pass"]


@pytest.mark.parametrize("instances, oracle_instances", [(0, 5), (-3, -1), (5, 0)])
def test_validation_rejects_empty_suites(instances, oracle_instances):
    with pytest.raises(ConfigError, match="at least one instance"):
        run_validation(1, instances, oracle_instances)


def test_ztb_mixture_suite_detects_a_perturbed_route(monkeypatch):
    assert suite_ztb_mixture_routes(40, seed=3)["pass"]
    # sentinel: masses computed at a slightly wrong survival probability
    true_mix = gwising.validate.ztb_mixture
    monkeypatch.setattr(gwising.validate, "ztb_mixture",
                        lambda pmf, p: true_mix(pmf, p * (1 - 1e-6)))
    broken = suite_ztb_mixture_routes(40, seed=3)
    assert not broken["pass"]
    assert broken["max_error"] > 1e3 * broken["tolerance"]


def test_wilson_interval_behaviour():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo0, hi0 = wilson_interval(0, 40)
    assert lo0 == 0.0
    assert hi0 < 0.2
    # no hits or all hits: the closed form rounds past 0 or 1 on some t, and
    # short of them on others, e.g. hi = 1 - 2^-53 at (6, 6)
    for trials in range(1, 3001):
        for hits in (0, trials):
            lo, hi = wilson_interval(hits, trials)
            assert 0.0 <= lo <= hits / trials <= hi <= 1.0, (hits, trials, lo, hi)


def test_csv_rendering_round_trips_floats():
    rows = [{"a": 1, "b": 0.1 + 0.2, "c": True}]
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == "a,b,c"
    value = text.splitlines()[1].split(",")[1]
    assert float(value) == 0.1 + 0.2
    assert text.splitlines()[1].split(",")[2] == "true"


# The per-cell renderer that rows_to_csv replaced, kept as its oracle.

def format_cell_by_type(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv_by_cell(rows):
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell_by_type(row[key]) for key in header))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1e-310,
               1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e16, 12345678901234567.0]


@pytest.mark.parametrize("column", [
    EDGE_FLOATS,
    [np.float64(v) for v in EDGE_FLOATS],
    [True, False, True] * 4 + [False],
    list(range(-6, 7)),
    [np.int64(3), np.int64(-4)] * 6 + [np.int64(0)],
    [1, 2.5, True, "x", np.float64(-0.0), None, math.nan, np.int64(7), False,
     -math.inf, 5e-324, "y,z", 0],
], ids=["floats", "float64", "bools", "ints", "int64", "mixed"])
def test_rows_to_csv_matches_per_cell_bytes(column):
    rows = [{"a": value, "b": float(i) / 7.0, "c": i} for i, value in enumerate(column)]
    assert rows_to_csv(rows) == rows_to_csv_by_cell(rows)
    assert rows_to_csv([]) == rows_to_csv_by_cell([]) == "\n"
    # the column as the list of a multi-row segment, beside shared, range and
    # %-bearing string columns; then a one-row list segment, an empty one and
    # a row dict
    size = len(column)
    segments = [
        {"s": "5%d%%", "a": column, "r": range(-2, size - 2), "f": 0.1,
         "t": [f"{i}%s%" for i in range(size)], "c": 7},
        {"s": True, "a": column[-1:], "r": range(3, 4), "f": np.int64(-2),
         "t": ["%"], "c": -0.0},
        {"s": "x", "a": [], "r": range(0), "f": 1, "t": [], "c": math.nan},
        {"s": "%s", "a": column[0], "r": 7, "f": math.inf, "t": "%%", "c": None},
    ]
    assert rows_to_csv(segments) == rows_to_csv_by_cell(segment_rows(segments))


def test_rows_to_csv_refuses_segments_with_other_keys():
    for rows in ([{"a": 1}, {"a": 2, "b": 3}], [{"a": 1, "b": 2}, {"a": 2}],
                 [{"a": [1, 2]}, {"b": [3]}]):
        with pytest.raises(ValueError, match="keys"):
            rows_to_csv(rows)
    # the same keys in another order are no mismatch
    assert rows_to_csv([{"a": 1, "b": 2}, {"b": 3, "a": 4}]) == "a,b\n1,2\n4,3\n"


def test_rows_to_csv_refuses_lists_of_unequal_length():
    for segment in ({"a": [1, 2], "b": [0.5]}, {"a": range(3), "b": 1, "c": ["x", "y"]}):
        with pytest.raises(ValueError, match="rows"):
            rows_to_csv([segment])
