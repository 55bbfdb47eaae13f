import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import types

import numpy as np
import pytest

import gwising
import gwising.experiments
from gwising import OffspringPmf
from gwising.cli import (_KEY_FIELDS, atomic_write_text, load_config, parse_and_dispatch,
                         parse_pmf_spec)
from gwising.experiments import ConfigError, ExperimentConfig, PSchedule

from _frozen import OUTPUT_DIGESTS
from generate_frozen import OUTPUT_RUNS, output_digests


def write_config(path, **overrides):
    data = {
        "schema_version": 1,
        "pmf": {"entries": [[1, 0.5], [2, 0.5]]},
        "beta": 0.9,
        "p_schedule": {"kind": "constant", "c": 0.4},
        "n_grid": [3],
        "replicas": 12,
        "mode": "magnetization",
        "master_seed": 3,
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return str(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path / "c.json", typo_key=1)
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(path)


def test_load_config_with_required_keys_only_takes_dataclass_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "schema_version": 1, "pmf": {"entries": [[1, 0.5], [2, 0.5]]}, "beta": 0.9,
        "p_schedule": {"kind": "constant", "c": 0.4}, "n_grid": [3, 5],
        "replicas": 12, "mode": "gamma"}))
    cfg = load_config(str(path))
    assert cfg == ExperimentConfig(
        pmf=OffspringPmf.from_dict({1: 0.5, 2: 0.5}), beta=0.9,
        schedule=PSchedule("constant", 0.4), n_grid=(3, 5), replicas=12, mode="gamma")
    for field in dataclasses.fields(ExperimentConfig):
        if field.default is not dataclasses.MISSING:
            assert getattr(cfg, field.name) == field.default, field.name


def test_load_config_names_missing_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema_version": 1, "beta": 0.9, "replicas": 3}))
    with pytest.raises(ConfigError,
                       match=r"missing config keys \['mode', 'n_grid', 'p_schedule', 'pmf'\]"):
        load_config(str(path))


def test_load_config_requires_schema_version(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"pmf": {"entries": [[1, 1.0]]}}))
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(str(path))


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_schema_version_must_be_the_json_integer_1(tmp_path, capsys, version):
    # True == 1 == 1.0 in Python, but only the JSON integer 1 declares the schema
    cfg = write_config(tmp_path / "c.json", schema_version=version, mode="gamma",
                       replicas=1, n_grid=[4])
    with pytest.raises(ConfigError, match="must declare schema_version 1"):
        load_config(cfg)
    assert parse_and_dispatch(["--quiet", "gamma-profile", "--config", cfg,
                               "--out", str(tmp_path / "out")]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_load_config_reports_json_line(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(path))


def test_seed_override(tmp_path):
    path = write_config(tmp_path / "c.json")
    assert load_config(path).master_seed == 3
    assert load_config(path, seed_override=77).master_seed == 77


def test_parse_pmf_spec():
    assert parse_pmf_spec("dirac3").degrees.tolist() == [3]
    pmf = parse_pmf_spec("1:0.25,2:0.75")
    assert pmf.probs.tolist() == [0.25, 0.75]
    with pytest.raises(ConfigError):
        parse_pmf_spec("not-a-pmf")


def test_unknown_subcommand_exits_2(capsys):
    assert parse_and_dispatch(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_config_exits_2(tmp_path, capsys):
    code = parse_and_dispatch(["magnetization-scan", "--config",
                               str(tmp_path / "absent.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command,overrides", [
    ("magnetization-scan", {"p_schedule": {"kind": "geometric", "c": 0.5}}),
    ("magnetization-scan", {"pmf": {"entries": [[0, 0.2], [2, 0.8]]}}),
    ("magnetization-scan", {"beta": -0.5}),
    ("magnetization-scan", {"n_grid": [3, -1]}),
    ("magnetization-scan", {"n_grid": [0]}),
    ("capacity-scan", {"mode": "capacity", "capacity_p": 1.0}),
    ("gamma-profile", {"mode": "gamma", "pmf": {"entries": [[1, 1.0]]}}),
    ("gamma-profile", {"mode": "gamma", "q": 2.5}),
    ("magnetization-scan", {"beta": 0.0, "p_schedule": {"kind": "threshold"}}),
    ("capacity-scan", {"mode": "capacity", "beta": 0.0}),
    ("magnetization-scan", {"p_schedule": {"kind": "threshold", "c": 1.0},
                            "beta": 0.1, "n_grid": [2000]}),
    ("capacity-scan", {"mode": "magnetization", "beta": 0.0}),
    ("tv-scan", {"mode": "validate"}),
    ("magnetization-scan", {"epsilon_sweep": [-1.0, 1.5]}),
    ("magnetization-scan", {"method": "pruned", "coupling_off": True}),  # a removed key
    ("magnetization-scan", {"workers": 0}),
    ("magnetization-scan", {"workers": -2}),
    # one replica is expected to have 1.98e8 vertices, past the cap's pre-flight
    ("magnetization-scan", {"beta": math.atanh(0.8), "n_grid": [70], "method": "pruned",
                            "p_schedule": {"kind": "threshold", "c": 1.0}}),
    # json writes and reads these as Infinity
    ("magnetization-scan", {"beta": math.inf}),
    ("capacity-scan", {"mode": "capacity", "capacity_p": math.inf}),
    # a number must be a JSON number of the field's kind: no truncation, no
    # strings, no bools
    ("magnetization-scan", {"replicas": 2.7}),
    ("magnetization-scan", {"n_grid": [4.9]}),
    ("magnetization-scan", {"replicas": "3"}),
    ("magnetization-scan", {"master_seed": True}),
    ("magnetization-scan", {"beta": "0.9"}),
    ("magnetization-scan", {"beta": False}),
    ("magnetization-scan", {"n_grid": "34"}),
    ("magnetization-scan", {"epsilon_sweep": [0.05, "0.2"]}),
    ("magnetization-scan", {"p_schedule": {"kind": "constant", "c": "0.4"}}),
    ("magnetization-scan", {"pmf": {"entries": [[1.5, 0.5], [2, 0.5]]}}),
    ("magnetization-scan", {"pmf": {"entries": [[1, "0.5"], [2, 0.5]]}}),
    ("magnetization-scan", {"pmf": {"entries": [[2**64, 0.5], [2, 0.5]]}}),
    ("magnetization-scan", {"pmf": {"entries": [[1, 0.5, 7], [2, 0.5]]}}),
    ("magnetization-scan", {"master_seed": -1}),
    ("magnetization-scan", {"epsilon_sweep": []}),
    ("magnetization-scan", {"epsilon": 0.05}),  # a removed key
    # p_110 = 1.3e-297 lies in (0, 1], but alpha_110 underflows to 0
    ("capacity-scan", {"mode": "capacity", "beta": 0.3, "n_grid": [110],
                       "p_schedule": {"kind": "geometric", "c": 1.0, "lam": 0.002}}),
    # past log(float max) / 2 the edge map g_beta overflows
    ("magnetization-scan", {"beta": 355}),
    ("magnetization-scan", {"beta": 1e308}),
    # (-0.5)^n is positive at even n, but lam must be positive
    ("magnetization-scan", {"n_grid": [4, 6],
                            "p_schedule": {"kind": "geometric", "c": 1.0, "lam": -0.5}}),
    # lam only for the kinds that read it
    ("magnetization-scan", {"p_schedule": {"kind": "constant", "c": 0.4, "lam": 0.5}}),
    ("magnetization-scan", {"p_schedule": {"kind": "threshold", "c": 1.0, "lam": 0.5}}),
])
def test_bad_config_exits_2(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path / "c.json", **overrides)
    code = parse_and_dispatch(["--quiet", command, "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_plus_boundary_field_mode_exits_2_naming_it(tmp_path, capsys):
    # the plus boundary field is leaves_only under a constant c = 1 schedule;
    # the removed value would ignore a direct scan's schedule
    cfg = write_config(tmp_path / "c.json", field_mode="plus_boundary",
                       p_schedule={"kind": "threshold", "c": 1.0})
    code = parse_and_dispatch(["--quiet", "magnetization-scan", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "field_mode" in err[0]
    assert not (tmp_path / "out").exists()


def test_pmf_with_an_unknown_key_exits_2_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       pmf={"entries": [[1, 0.5], [2, 0.5]], "bogus": 1})
    code = parse_and_dispatch(["--quiet", "magnetization-scan", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bogus" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("capacity_p, depth", [(300, 22), (1000, 10)])
def test_capacity_that_underflows_exits_2(tmp_path, capsys, capacity_p, depth):
    # every replica survives, so a capacity of 0 has underflowed: at p = 300
    # all 200 are 0 at n = 22, at p = 1000 already at n = 10
    cfg = write_config(tmp_path / "c.json", mode="capacity", beta=math.atanh(0.8),
                       p_schedule={"kind": "threshold", "c": 1.0}, n_grid=[10, 22],
                       replicas=200, capacity_p=capacity_p)
    code = parse_and_dispatch(["--quiet", "capacity-scan", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert f"capacity_p {capacity_p:.1f} underflows at n = {depth}: 200 of 200" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_flag_below_one_exits_2(tmp_path, capsys, workers):
    cfg = write_config(tmp_path / "c.json")
    code = parse_and_dispatch(["--quiet", "magnetization-scan", "--config", cfg,
                               "--out", str(tmp_path / "out"), "--workers", workers])
    assert code == 2
    assert "need at least one worker" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["magnetization-scan", "--seed", "-1"],
                                  ["validate", "--seed", "-1", "--instances", "1"]])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    if argv[0] != "validate":
        argv += ["--config", write_config(tmp_path / "c.json")]
    code = parse_and_dispatch(["--quiet", *argv, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "nonnegative" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("counts", [["--instances", "-3", "--oracle-instances", "-1"],
                                    ["--instances", "0"], ["--oracle-instances", "0"]])
def test_validate_with_no_instances_exits_2(tmp_path, capsys, counts):
    code = parse_and_dispatch(["--quiet", "validate", "--out", str(tmp_path / "out"),
                               *counts])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_module_entry_point_prints_usage():
    src = os.path.dirname(os.path.dirname(gwising.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "gwising.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: gwising")
    assert "magnetization-scan" in done.stdout


def test_cli_import_loads_no_scipy(tmp_path):
    # nor the pool or tempfile machinery, also on a scan that forks a worker
    src = os.path.dirname(os.path.dirname(gwising.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    scan = write_config(tmp_path / "scan.json", n_grid=[3, 4], workers=1)
    gamma = write_config(tmp_path / "gamma.json", n_grid=[3, 4], mode="gamma")
    code = ("import sys\n"
            "watched = ('scipy', 'multiprocessing', 'concurrent', 'tempfile')\n"
            # a site-packages hook may load one of these at start-up; forget
            # it, so that an import by gwising loads it again and shows
            "for name in [m for m in sys.modules if m.split('.')[0] in watched]:\n"
            "    del sys.modules[name]\n"
            "import gwising.cli as cli\n"
            "cli.load_config(sys.argv[1])\n"
            "for command, config, workers in (('magnetization-scan', sys.argv[1], '1'),\n"
            "                                 ('magnetization-scan', sys.argv[1], '2'),\n"
            "                                 ('gamma-profile', sys.argv[2], '1')):\n"
            "    assert cli.parse_and_dispatch(['--quiet', command, '--config', config,\n"
            "                                   '--out', sys.argv[3],\n"
            "                                   '--workers', workers]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in watched))\n")
    done = subprocess.run([sys.executable, "-c", code, scan, gamma, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert sorted(os.listdir(tmp_path / "out")) == [
        "gamma_bounds.csv", "gamma_profile.csv", "magnetization.csv"]


def test_public_names_resolve_and_none_is_a_module():
    for name in gwising.__all__:
        assert not isinstance(getattr(gwising, name), types.ModuleType), name


def test_scans_never_load_the_oracles(tmp_path):
    # gwising.validate is loaded by the validate command alone; the dotted
    # name is checked, since a filter on the top-level package cannot see it
    src = os.path.dirname(os.path.dirname(gwising.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    configs = {command: write_config(tmp_path / f"{mode}.json", n_grid=[3, 4], mode=mode)
               for command, mode in (("magnetization-scan", "magnetization"),
                                     ("capacity-scan", "capacity"),
                                     ("gamma-profile", "gamma"), ("tv-scan", "tv"))}
    code = ("import json, sys\n"
            "import gwising\n"
            "loaded = ['gwising.validate' in sys.modules]\n"
            "import gwising.cli as cli\n"
            "out = sys.argv[2]\n"
            "for command, config in json.loads(sys.argv[1]).items():\n"
            "    assert cli.parse_and_dispatch(['--quiet', command, '--config', config,\n"
            "                                   '--out', out, '--workers', '1']) == 0\n"
            "    loaded.append('gwising.validate' in sys.modules)\n"
            "assert cli.parse_and_dispatch(['--quiet', 'validate', '--instances', '2',\n"
            "                               '--oracle-instances', '1', '--out', out]) == 0\n"
            "loaded.append('gwising.validate' in sys.modules)\n"
            "print(loaded)\n")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(configs),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str([False] * 5 + [True])


@pytest.mark.parametrize("q", [2.0, 1.0001])
def test_gamma_profile_of_a_law_whose_mean_gap_is_zero(tmp_path, capsys, q):
    # dirac(32): nu*_k = nu exactly below k*, where exp(c4 (k* - k)) overflows;
    # such a term of c5 is 0 and must not end the scan with exit 3
    cfg = write_config(tmp_path / "c.json", mode="gamma", pmf={"entries": [[32, 1.0]]},
                       q=q, p_schedule={"kind": "constant", "c": 0.4})
    out = tmp_path / "out"
    assert parse_and_dispatch(["--quiet", "gamma-profile", "--config", cfg,
                               "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len((out / "gamma_bounds.csv").read_text().splitlines()) == 2  # header, n = 3


@pytest.mark.parametrize("command,mode,expected", [
    ("magnetization-scan", "magnetization", 2),
    ("gamma-profile", "gamma", 0),
    ("tv-scan", "tv", 0),
    ("capacity-scan", "capacity", 0),
])
def test_pruned_whole_tree_pair_is_refused_in_magnetization_mode_only(
        tmp_path, capsys, command, mode, expected):
    # only a magnetization scan reads method and field_mode
    cfg = write_config(tmp_path / "c.json", mode=mode, beta=math.atanh(0.8),
                       method="pruned", field_mode="whole_tree")
    code = parse_and_dispatch(["--quiet", command, "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert code == expected
    err = capsys.readouterr().err
    assert ("the pruned fast path models leaf fields only" in err) == (expected == 2)


def test_magnetization_scan_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert parse_and_dispatch(["--quiet", "magnetization-scan", "--config", cfg,
                               "--out", str(out)]) == 0
    text = (out / "magnetization.csv").read_text()
    header = text.splitlines()[0].split(",")
    assert header[:3] == ["n", "p_n", "epsilon"]
    capsys.readouterr()


def test_worker_count_does_not_change_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", replicas=10)
    outs = []
    for workers, name in ((1, "w1"), (2, "w2")):
        out = tmp_path / name
        code = parse_and_dispatch(["--quiet", "magnetization-scan", "--config", cfg,
                                   "--out", str(out), "--workers", str(workers)])
        assert code == 0
        outs.append((out / "magnetization.csv").read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def forked_scan_argv(tmp_path, workers):
    """A scan of three one-block depths, so three workers run one block each."""
    cfg = write_config(tmp_path / "c.json", n_grid=[3, 4, 5], replicas=4)
    return ["--quiet", "magnetization-scan", "--config", cfg,
            "--out", str(tmp_path / f"w{workers}"), "--workers", str(workers)]


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_forked_scan_writes_the_in_process_bytes(tmp_path, capsys, three_cpus):
    for workers in (1, 3):
        assert parse_and_dispatch(forked_scan_argv(tmp_path, workers)) == 0
    # the workers outlive the scan, until the pool is closed
    gwising.experiments.close_pool()
    assert_no_child_process()
    assert ((tmp_path / "w1" / "magnetization.csv").read_bytes()
            == (tmp_path / "w3" / "magnetization.csv").read_bytes())
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error, code", [(ConfigError("bad block"), 2),
                                         (ValueError("bad block"), 3)])
def test_an_error_in_a_forked_block_exits_as_in_process(tmp_path, capsys, monkeypatch,
                                                       three_cpus, error, code):
    caller = os.getpid()
    real_block = gwising.experiments._sample_block

    def raising_block(task):
        raise error

    def raising_in_a_child(task):
        if os.getpid() != caller:
            raise error
        return real_block(task)

    monkeypatch.setattr(gwising.experiments, "_sample_block", raising_block)
    assert parse_and_dispatch(forked_scan_argv(tmp_path, 1)) == code
    in_process = capsys.readouterr().err
    monkeypatch.setattr(gwising.experiments, "_sample_block", raising_in_a_child)
    assert parse_and_dispatch(forked_scan_argv(tmp_path, 3)) == code
    assert capsys.readouterr().err == in_process
    assert in_process.count("\n") == 1 and "bad block" in in_process
    assert_no_child_process()


@pytest.mark.parametrize("death, ending", [("exit", "exit code 1"), ("kill", "signal 9")])
def test_a_forked_worker_that_dies_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                                        three_cpus, death, ending):
    caller = os.getpid()
    real_block = gwising.experiments._sample_block

    def dying_in_a_child(task):
        if os.getpid() != caller:
            if death == "exit":
                os._exit(1)
            os.kill(os.getpid(), signal.SIGKILL)
        return real_block(task)

    monkeypatch.setattr(gwising.experiments, "_sample_block", dying_in_a_child)
    assert parse_and_dispatch(forked_scan_argv(tmp_path, 3)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "scan worker 2 of 3" in err and ending in err
    assert_no_child_process()


class ShortWriter:
    """A file whose first write loses its last byte and ends the process
    with exit code 0."""

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, data):
        self.file.write(data[:-1])
        self.file.flush()
        os._exit(0)


def test_a_forked_report_cut_short_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                                         three_cpus):
    caller = os.getpid()

    def cutting_open(file, mode="r", *args, **kwargs):
        opened = open(file, mode, *args, **kwargs)
        return opened if os.getpid() == caller or "w" not in mode else ShortWriter(opened)

    # each worker exits 0, having written all but the last byte of its report
    monkeypatch.setattr(gwising.experiments, "open", cutting_open, raising=False)
    assert parse_and_dispatch(forked_scan_argv(tmp_path, 3)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "scan worker 2 of 3" in err and "exit code 0" in err
    assert "pickl" not in err.lower()
    assert_no_child_process()


def test_a_process_that_exits_leaves_no_worker_behind(tmp_path):
    # two --workers 2 scans in a fresh interpreter, which forks one worker
    # for both and reaps it at exit
    src = os.path.dirname(os.path.dirname(gwising.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write_config(tmp_path / "c.json", n_grid=[3, 4, 5], replicas=4)
    code = ("import os, sys\n"
            "import gwising.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forked, fork = [], os.fork\n"
            "def recording_fork():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        forked.append(pid)\n"
            "    return pid\n"
            "os.fork = recording_fork\n"
            "for _ in range(2):\n"
            "    assert cli.parse_and_dispatch(['--quiet', 'magnetization-scan', '--config',\n"
            "                                   sys.argv[1], '--out', sys.argv[2],\n"
            "                                   '--workers', '2']) == 0\n"
            "print(forked)\n")
    done = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    forked = json.loads(done.stdout)
    assert len(forked) == 1
    for pid in forked:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_gamma_profile_columns(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", mode="gamma", replicas=1,
                       n_grid=[6], p_schedule={"kind": "constant", "c": 0.5})
    out = tmp_path / "out"
    assert parse_and_dispatch(["--quiet", "gamma-profile", "--config", cfg,
                               "--out", str(out)]) == 0
    header = (out / "gamma_profile.csv").read_text().splitlines()[0]
    assert header == ("n,p_n,k,gamma_k,one_minus_gamma_k,nu_star_k,"
                      "sigma_q_star_k,M_star_0k,k_star")
    assert (out / "gamma_bounds.csv").exists()
    capsys.readouterr()


def test_gamma_profile_where_nu_power_overflows(tmp_path, capsys):
    # uniform on 1..8 at the threshold schedule, n = 480: nu^480 = 4.5^480
    # passes the double range while log M*_{0,480} is about 107
    cfg = write_config(tmp_path / "c.json", mode="gamma", replicas=1, n_grid=[480],
                       pmf={"entries": [[d, 0.125] for d in range(1, 9)]},
                       beta=math.atanh(0.8), p_schedule={"kind": "threshold", "c": 1.0})
    out = tmp_path / "out"
    assert parse_and_dispatch(["--quiet", "gamma-profile", "--config", cfg,
                               "--out", str(out)]) == 0
    with open(out / "gamma_profile.csv") as handle:
        m_star = [float(row["M_star_0k"]) for row in csv.DictReader(handle)]
    assert len(m_star) == 481 and all(math.isfinite(m) for m in m_star)
    assert math.log(m_star[-1]) == pytest.approx(107.1, abs=0.05)
    capsys.readouterr()


def test_gamma_profile_of_a_law_whose_binomials_pass_the_double_range(tmp_path, capsys):
    # C(1030, d) passes the largest double; the mixture used to raise
    # OverflowError and exit 3.  Only the bottom row, which has no law, is nan
    cfg = write_config(tmp_path / "c.json", mode="gamma", replicas=1, n_grid=[3, 6],
                       pmf={"entries": [[1, 0.999], [1030, 0.001]]})
    out = tmp_path / "out"
    assert parse_and_dispatch(["--quiet", "gamma-profile", "--config", cfg,
                               "--out", str(out)]) == 0
    with open(out / "gamma_profile.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 11
    for row in rows:
        law_free = {"nu_star_k", "sigma_q_star_k"} if row["k"] == row["n"] else set()
        assert all(math.isfinite(float(v)) for key, v in row.items() if key not in law_free)
    capsys.readouterr()


def test_workers_environment_variable_is_ignored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GWISING_WORKERS", "two")
    cfg = write_config(tmp_path / "c.json", mode="gamma", replicas=1, n_grid=[4])
    assert parse_and_dispatch(["--quiet", "gamma-profile", "--config", cfg,
                               "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()


def test_capacity_scan_columns(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", mode="capacity", replicas=6,
                       n_grid=[4], beta=0.8,
                       p_schedule={"kind": "geometric", "c": 1.0, "lam": 0.5})
    out = tmp_path / "out"
    assert parse_and_dispatch(["--quiet", "capacity-scan", "--config", cfg,
                               "--out", str(out)]) == 0
    header = (out / "capacity.csv").read_text().splitlines()[0]
    assert header == "n,p_n,replica,capacity_p,alpha_n,ratio"
    capsys.readouterr()


def test_capacity_scan_on_a_deep_tree_stays_finite(tmp_path, capsys):
    # at n = 1030 and tanh(beta) = 1/2, base^{-n} overflows a double; the
    # capacities and alpha_n = 6.6e-310 are subnormal.  A RuntimeWarning from
    # the package is an error here (pyproject.toml), so it would exit 3.
    cfg = write_config(tmp_path / "c.json", mode="capacity", replicas=4, n_grid=[1030],
                       beta=0.5493061443340549,
                       p_schedule={"kind": "geometric", "c": 1.5**5, "lam": 2 / 3})
    out = tmp_path / "out"
    assert parse_and_dispatch(["--quiet", "capacity-scan", "--config", cfg,
                               "--out", str(out)]) == 0
    with open(out / "capacity.csv") as rows, open(out / "capacity_summary.csv") as summary:
        values = [float(row[key]) for row in csv.DictReader(rows)
                  for key in ("capacity_p", "ratio")]
        values += [float(row[key]) for row in csv.DictReader(summary)
                   for key in ("mean_capacity", "se_capacity", "mean_capacity_bound",
                               "ratio_p05", "ratio_p50", "ratio_p95")]
    assert len(values) == 14
    assert all(0.0 < value < math.inf for value in values)
    capsys.readouterr()


def _too_small_cap(monkeypatch):
    monkeypatch.setattr(gwising.experiments, "sample_gw",
                        functools.partial(gwising.tree.sample_gw, max_vertices=10))


def _no_mean_tolerance(monkeypatch):
    monkeypatch.setattr(gwising.pruned_law, "MEAN_CONSISTENCY_TOL", -1.0)


@pytest.mark.parametrize("command,mode,inject,error", [
    ("magnetization-scan", "magnetization", _too_small_cap, "PopulationCapError"),
    ("tv-scan", "tv", _no_mean_tolerance, "ConsistencyError"),
])
def test_internal_error_exits_3(tmp_path, capsys, monkeypatch, command, mode, inject,
                                error):
    inject(monkeypatch)
    cfg = write_config(tmp_path / "c.json", mode=mode)
    code = parse_and_dispatch(["--quiet", command, "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {error}(") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before --out was checked")


@pytest.mark.parametrize("argv, stage", [
    (["magnetization-scan", "--config", None], "gwising.cli.run_magnetization_scan"),
    (["validate", "--instances", "20"], "gwising.validate.run_validation"),
    (["prune-demo", "--pmf", "dirac2", "--n", "6", "--p", "0.3"], "gwising.cli.sample_gw"),
], ids=["magnetization-scan", "validate", "prune-demo"])
@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_that_cannot_be_a_directory_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, argv, stage, out):
    (tmp_path / "taken").write_text("a file, not a directory")
    monkeypatch.setattr(stage, _must_not_run)
    argv = [write_config(tmp_path / "c.json") if a is None else a for a in argv]
    code = parse_and_dispatch(["--quiet", *argv, "--out", str(tmp_path / out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "--out" in err and err.count("\n") == 1
    assert (tmp_path / "taken").read_text() == "a file, not a directory"


def test_validate_writes_report_and_exit_zero(tmp_path, capsys):
    out = tmp_path / "out"
    code = parse_and_dispatch(["--quiet", "validate", "--seed", "42",
                               "--out", str(out),
                               "--instances", "20", "--oracle-instances", "2"])
    assert code == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["pass"] is True
    assert len(report["suites"]) == 5
    capsys.readouterr()


def test_prune_demo_outputs_and_round_trip(tmp_path, capsys):
    out = tmp_path / "demo"
    code = parse_and_dispatch(["--quiet", "prune-demo", "--pmf", "dirac2",
                               "--n", "6", "--p", "0.3", "--out", str(out),
                               "--seed", "5"])
    assert code == 0
    # the tree the demo draws first from its seed's stream, written compactly
    tree = gwising.sample_gw(OffspringPmf.dirac(2), 6,
                             np.random.default_rng(np.random.SeedSequence(5)))
    assert (out / "tree.json").read_text() == json.dumps(
        tree.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert (out / "pruned.json").exists()
    assert (out / "overlay.dot").read_text().startswith("digraph")
    capsys.readouterr()


@pytest.mark.parametrize("override", [["--p", "0"], ["--p", "1.5"], ["--p", "nan"],
                                      ["--pmf", "0:0.5,2:0.5"], ["--n", "-3"],
                                      ["--seed", "-1"],
                                      ["--n", "27"]])  # past the population cap
def test_prune_demo_bad_arguments_exit_2(tmp_path, capsys, override):
    args = {"--pmf": "dirac2", "--n": "6", "--p": "0.3", **dict([override])}
    code = parse_and_dispatch(["--quiet", "prune-demo", *itertools.chain(*args.items()),
                               "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "out").exists()


def test_readme_config_table_lists_every_key():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^\| `(\w+)` *\|", section, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_KEY_FIELDS) | {"schema_version"}


@pytest.mark.parametrize("name", sorted(OUTPUT_RUNS))
def test_outputs_match_frozen_digests(tmp_path, name):
    assert output_digests(name, str(tmp_path)) == OUTPUT_DIGESTS[name]


def test_atomic_write_replaces_not_appends(tmp_path, monkeypatch):
    target = tmp_path / "file.txt"
    atomic_write_text(str(target), "first")
    atomic_write_text(str(target), "second")
    assert target.read_text() == "second"
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp")] == []
    # the mode open(path, "w") gives: 0o666 less the umask
    umask = os.umask(0o022)
    try:
        atomic_write_text(str(tmp_path / "fresh.txt"), "text")
    finally:
        os.umask(umask)
    assert (tmp_path / "fresh.txt").stat().st_mode & 0o777 == 0o644

    def failing_replace(src, dst):
        raise OSError("replace failed")

    # a failed rename keeps the old file whole and leaves no temporary behind
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        atomic_write_text(str(target), "third")
    assert target.read_text() == "second"
    assert sorted(os.listdir(tmp_path)) == ["file.txt", "fresh.txt"]
