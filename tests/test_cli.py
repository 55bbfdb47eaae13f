import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys

import pytest

import gwising
from gwising import OffspringPmf
from gwising.cli import atomic_write_text, load_config, parse_and_dispatch, parse_pmf_spec
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
    ("magnetization-scan", {"method": "pruned", "coupling_off": True}),
])
def test_bad_config_exits_2(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path / "c.json", **overrides)
    code = parse_and_dispatch(["--quiet", command, "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_module_entry_point_prints_usage():
    src = os.path.dirname(os.path.dirname(gwising.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "gwising.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: gwising")
    assert "magnetization-scan" in done.stdout


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(gwising.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, gwising.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
    tree_bytes = (out / "tree.json").read_text()
    from gwising import Tree
    reloaded = Tree.from_json_dict(json.loads(tree_bytes))
    assert json.dumps(reloaded.to_json_dict(), sort_keys=True,
                      separators=(",", ":")) + "\n" == tree_bytes
    assert (out / "pruned.json").exists()
    assert (out / "overlay.dot").read_text().startswith("digraph")
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(OUTPUT_RUNS))
def test_outputs_match_frozen_digests(tmp_path, name):
    assert output_digests(name, str(tmp_path)) == OUTPUT_DIGESTS[name]


def test_atomic_write_replaces_not_appends(tmp_path):
    target = tmp_path / "file.txt"
    atomic_write_text(str(target), "first")
    atomic_write_text(str(target), "second")
    assert target.read_text() == "second"
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp")] == []
