"""Every config the schema accepts runs or fails closed.

Configs are drawn over the whole range the schema accepts (laws over degrees
up to 40, beta from 1e-9 to 50, every schedule kind with c down to 1e-300,
depths up to 59, every mode and method, capacity_p from 1 + 1e-7 to 1e6, q
in (1, 2]) and run through ``parse_and_dispatch``.  A run must exit 0 or 2
(config error); a crash exits 3, and so does a RuntimeWarning raised in the
package, which the pytest configuration turns into an error.  A successful
run writes CSVs that parse, with every number finite except the NaN of the
gamma-profile cells that the table leaves empty: nu*_k and sigma*_{q,k} of
row k = n.

The pre-flight cap on the expected size of one replica is lowered to
``EXPECTED_VERTICES_CAP``, so a deep direct scan exits 2 there rather than
sampling forests of millions of vertices; the size check itself is the one
every scan runs.
"""

import csv
import io
import json
import math
import pathlib
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwising import experiments
from gwising.cli import parse_and_dispatch
from gwising.tree import DEFAULT_POPULATION_CAP

EXPECTED_VERTICES_CAP = 10**5
COMMANDS = {"magnetization": "magnetization-scan", "capacity": "capacity-scan",
            "gamma": "gamma-profile", "tv": "tv-scan"}
# the cells of gamma_profile.csv that read nan in the row k = n
EMPTY_AT_ROW_N = {"nu_star_k", "sigma_q_star_k"}


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def laws(draw):
    masses = draw(st.dictionaries(st.integers(0, 40), st.floats(1e-6, 1.0),
                                  min_size=1, max_size=6))
    total = math.fsum(masses.values())
    return {"entries": [[d, m / total] for d, m in sorted(masses.items())]}


@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(experiments.SCHEDULE_KINDS))
    schedule = {"kind": kind, "c": draw(log_uniform(-300, 1))}
    if kind.endswith("geometric"):
        schedule["lam"] = draw(log_uniform(-3, 0.5))
    return schedule


@st.composite
def configs(draw):
    return {
        "schema_version": 1,
        "pmf": draw(laws()),
        "beta": draw(log_uniform(-9, math.log10(50))),
        "p_schedule": draw(schedules()),
        "n_grid": draw(st.lists(st.integers(1, 59), min_size=1, max_size=3)),
        "replicas": draw(st.integers(1, 3)),
        "mode": draw(st.sampled_from(list(COMMANDS))),
        "master_seed": draw(st.integers(0, 2**32 - 1)),
        "field_mode": draw(st.sampled_from(["leaves_only", "whole_tree"])),
        "method": draw(st.sampled_from(["direct", "pruned"])),
        "capacity_p": 1.0 + draw(log_uniform(-7, 6)),
        "q": draw(st.floats(1.0001, 2.0)),
    }


def check_csv(name, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        assert None not in row and None not in row.values(), (name, row)
        for column, cell in row.items():
            try:
                value = float(cell)
            except ValueError:
                continue  # a label or a boolean
            if math.isnan(value):
                assert name == "gamma_profile.csv" and column in EMPTY_AT_ROW_N, (name, column)
                assert row["k"] == row["n"], (name, row)
            else:
                assert math.isfinite(value), (name, column, cell)


def run(argv, config=None):
    """``gwising <argv> [--config <config>] --out <fresh dir>`` exits 0 or 2,
    and every CSV of a successful run passes ``check_csv``."""
    cap_fraction = EXPECTED_VERTICES_CAP / DEFAULT_POPULATION_CAP
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.object(experiments, "PREFLIGHT_CAP_FRACTION", cap_fraction):
        if config is not None:
            path = pathlib.Path(work, "config.json")
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        out = pathlib.Path(work, "out")
        code = parse_and_dispatch(["--quiet", *argv, "--out", str(out)])
        assert code in (0, 2), (argv, config)
        if code == 0:
            for path in out.glob("*.csv"):
                check_csv(path.name, path.read_text())


DIRAC32_GAMMA = {"schema_version": 1, "pmf": {"entries": [[32, 1.0]]}, "beta": 0.9,
                 "p_schedule": {"kind": "constant", "c": 0.4}, "n_grid": [3],
                 "replicas": 1, "mode": "gamma", "q": 2.0}


@settings(max_examples=300, deadline=None)
@given(config=configs())
@example(config=DIRAC32_GAMMA)
def test_every_config_runs_or_fails_closed(config):
    run([COMMANDS[config["mode"]]], config)


@settings(max_examples=40, deadline=None)
@given(pmf=st.one_of(st.integers(0, 40).map(lambda d: f"dirac{d}"),
                     st.sampled_from(["1:0.5,2:0.5", "1:0.5,3:0.5", "0:0.5,2:0.5",
                                      "2:0.7,5:0.3", "1:1.5", "x"])),
       n=st.integers(-2, 30), p=st.one_of(st.floats(-0.5, 1.5), log_uniform(-300, 0)),
       seed=st.integers(-1, 2**32 - 1))
def test_every_prune_demo_runs_or_fails_closed(pmf, n, p, seed):
    run(["prune-demo", "--pmf", pmf, "--n", str(n), "--p", repr(p), "--seed", str(seed)])


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), instances=st.integers(1, 3),
       oracle_instances=st.integers(1, 2))
@example(seed=0, instances=0, oracle_instances=1)
def test_every_validate_run_passes_or_fails_closed(seed, instances, oracle_instances):
    run(["validate", "--seed", str(seed), "--instances", str(instances),
         "--oracle-instances", str(oracle_instances)])
