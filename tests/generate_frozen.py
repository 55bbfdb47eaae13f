"""Regenerate the frozen fixtures in tests/_frozen.py (prints to stdout).

``python tests/generate_frozen.py`` prints the calibration constants and the
ratio interval; ``python tests/generate_frozen.py --outputs`` prints the
output digests of the fixed CLI runs.
"""

import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

import gwising as g
from gwising.cli import parse_and_dispatch

# small fixed CLI runs whose output bytes are frozen: (subcommand, config
# fields over OUTPUT_BASE_CONFIG) or, for prune-demo, its argument list
OUTPUT_BASE_CONFIG = {
    "schema_version": 1,
    "pmf": {"entries": [[1, 0.5], [2, 0.5]]},
    "beta": 0.9,
    "p_schedule": {"kind": "constant", "c": 0.3},
    "n_grid": [4, 8],
    "replicas": 60,
    "mode": "magnetization",
    "master_seed": 7,
}
WIDE_UNIFORM8 = {"pmf": {"entries": [[d, 0.125] for d in range(1, 9)]},
                 "p_schedule": {"kind": "constant", "c": 1e-3},
                 "n_grid": [25, 100], "replicas": 1}
WIDE_HALF13 = {"pmf": {"entries": [[1, 0.5], [3, 0.5]]},
               "p_schedule": {"kind": "threshold", "c": 1.0},
               "n_grid": [25, 100], "replicas": 1}
OUTPUT_RUNS = {
    "magnetization_direct_leaves_only": (
        "magnetization-scan", {"method": "direct", "field_mode": "leaves_only"}),
    "magnetization_direct_whole_tree": (
        "magnetization-scan", {"method": "direct", "field_mode": "whole_tree"}),
    "magnetization_pruned": ("magnetization-scan", {"method": "pruned"}),
    "capacity": ("capacity-scan", {"mode": "capacity", "beta": 0.8, "replicas": 30}),
    "gamma": ("gamma-profile", {"mode": "gamma", "n_grid": [6, 12], "replicas": 1}),
    "tv": ("tv-scan", {"mode": "tv", "n_grid": [6, 12], "replicas": 1}),
    # wide supports: eight-entry normalisers and row sums (uniform on 1..8),
    # and a gap in the support (half-{1,3}) down to p_n ~ 1e-16
    "gamma_uniform8": ("gamma-profile", {**WIDE_UNIFORM8, "mode": "gamma"}),
    "tv_uniform8": ("tv-scan", {**WIDE_UNIFORM8, "mode": "tv"}),
    "gamma_half13": ("gamma-profile", {**WIDE_HALF13, "mode": "gamma"}),
    "tv_half13": ("tv-scan", {**WIDE_HALF13, "mode": "tv"}),
    "prune_demo": ("prune-demo", ["--pmf", "1:0.5,2:0.5", "--n", "6",
                                  "--p", "0.3", "--seed", "5"]),
}


def output_digests(name: str, workdir: str) -> dict[str, str]:
    """Run one entry of OUTPUT_RUNS in ``workdir``; sha256 of each output file."""
    command, spec = OUTPUT_RUNS[name]
    out = os.path.join(workdir, name)
    if command == "prune-demo":
        argv = [command, *spec]
    else:
        config = os.path.join(workdir, f"{name}.json")
        with open(config, "w") as handle:
            json.dump({**OUTPUT_BASE_CONFIG, **spec}, handle)
        argv = [command, "--config", config]
    if parse_and_dispatch(["--quiet", *argv, "--out", out]) != 0:
        raise RuntimeError(f"{name}: {command} failed")
    digests = {}
    for file in sorted(os.listdir(out)):
        with open(os.path.join(out, file), "rb") as handle:
            digests[file] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def ratio_corpus(seed: int, reps: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(201,)))
    ratios = []
    for pmf in (g.OffspringPmf.dirac(2), g.OffspringPmf.from_dict({1: 0.5, 2: 0.5})):
        for beta in (0.8, 1.2):
            res = g.ResistanceProfile.geometric(math.tanh(beta))
            for depth in (3, 4, 5, 6):
                for _ in range(reps):
                    tree = g.sample_gw(pmf, depth, rng)
                    root_ratio = float(g.lyons_plus(tree, beta)[0])
                    capa = g.capacity_recursion(tree, res, 1.5).capacity
                    ratios.append(root_ratio / capa)
    return np.array(ratios)


if __name__ == "__main__" and sys.argv[1:] == ["--outputs"]:
    with tempfile.TemporaryDirectory() as workdir:
        digests = {name: output_digests(name, workdir) for name in OUTPUT_RUNS}
    print("OUTPUT_DIGESTS =", json.dumps(digests, indent=4))
elif __name__ == "__main__":
    for name, pmf in (("dirac2", g.OffspringPmf.dirac(2)),
                      ("half13", g.OffspringPmf.from_dict({1: 0.5, 3: 0.5}))):
        print(name, json.dumps(g.calibrate_constants(pmf, 2.0), indent=2))
    cal = ratio_corpus(12345, 200)
    print("RATIO_INTERVAL =", (float(cal.min()), float(cal.max())))
