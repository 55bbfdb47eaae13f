"""The four benchmark workloads: which CLI calls each one makes and how each
call's output is checked.

Every workload uses one problem unless stated otherwise: the half-{1,2}
offspring law (nu = 1.5), beta = atanh(0.8) so that nu tanh(beta) = 1.2, and
the ``threshold`` leaf-mark schedule with c = 1.  A workload is a sequence of
rounds; round ``r`` is a fixed list of calls derived from (seed, r), so the
first round is the same work on every run with the same seed.

The sampling workloads make the call of ``demos/06_phase_transition_scan.py``:
500 replicas at each n of the grid (10, 14, 18, 22).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

HALF12 = [[1, 0.5], [2, 0.5]]
DIRAC2 = [[2, 1.0]]
HALF13 = [[1, 0.5], [3, 0.5]]
UNIFORM8 = [[d, 0.125] for d in range(1, 9)]
BETA = math.atanh(0.8)
MC_GRID = [10, 14, 18, 22]
# replicas per n of a sampling call, as in demos/06_phase_transition_scan.py
REPLICAS = 500
# replicas per n of the small calls used for warm-up and the repeat check
WARM_REPLICAS = 20

# |gamma_k + one_minus_gamma_k - 1| allowed in a gamma-profile row: the
# exactness scale the library's own identities are tested at.
GAMMA_IDENTITY_TOL = 1e-12
# mc_direct and mc_pruned sample the same law; their pooled round-0 mean_r
# must agree within this many combined standard errors at every n.
AGREEMENT_SES = 5.0


@dataclass(frozen=True)
class Call:
    """One ``gwising`` invocation: subcommand, config, seed and worker count.

    ``units`` is the work the call finishes if it succeeds: replicas for the
    sampling scans, profile generations for the exact scans.
    """

    label: str
    command: str
    config: dict
    seed: int
    workers: int
    units: int
    outputs: tuple[str, ...]

    def with_workers(self, workers: int) -> "Call":
        return replace(self, workers=workers)

    def with_replicas(self, replicas: int, **changes) -> "Call":
        """The same scan with ``replicas`` per n and other config ``changes``."""
        config = dict(self.config, replicas=replicas, **changes)
        return replace(self, config=config, units=replicas * len(config["n_grid"]))


def _config(entries, mode: str, n_grid, replicas: int = 1, kind: str = "threshold",
            c: float = 1.0, **extra) -> dict:
    return {"schema_version": 1, "pmf": {"entries": entries}, "beta": BETA,
            "p_schedule": {"kind": kind, "c": c}, "n_grid": list(n_grid),
            "replicas": replicas, "mode": mode, **extra}


def _call_seeds(seed: int, round_index: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, round_index])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _finite(rows: list[dict], keys) -> bool:
    return all(math.isfinite(float(row[k])) for row in rows for k in keys)


class Workload:
    name = ""
    calls_per_round = 1
    # successful calls a run needs: at 100, ten lie beyond the p90 reported as
    # call_s_tail.  Workloads whose calls take seconds cannot reach that in a
    # run and settle for fewer.
    min_calls = 100
    workers = 1
    # reference-kernel repetitions before and after each call, and the calls
    # on each side whose reference times correct a call's time (see run.py)
    ref_reps = 1
    scale_window = 2

    def round_calls(self, seed: int, round_index: int) -> list[Call]:
        raise NotImplementedError

    def warm_call(self, seed: int) -> Call:
        """A short call made before the timed rounds and again after them."""
        return self.round_calls(seed, 0)[0]

    def check(self, call: Call, outputs: dict[str, bytes]) -> list[str]:
        """Failure reasons for one call's outputs (empty when they pass)."""
        raise NotImplementedError


class Magnetization(Workload):
    min_calls = 3
    ref_reps = 5
    scale_window = 0
    # replicas per n of the other-method call in the direct-vs-pruned check
    check_replicas = 200

    def __init__(self, name: str, method: str):
        self.name, self.method = name, method
        self.other_method = "pruned" if method == "direct" else "direct"

    def round_calls(self, seed, round_index):
        cfg = _config(HALF12, "magnetization", MC_GRID, REPLICAS, method=self.method)
        return [Call(f"{self.method}#{i}", "magnetization-scan", cfg, s, 1,
                     REPLICAS * len(MC_GRID), ("magnetization.csv",))
                for i, s in enumerate(_call_seeds(seed, round_index, self.calls_per_round))]

    def warm_call(self, seed):
        return super().warm_call(seed).with_replicas(WARM_REPLICAS)

    def other_call(self, call: Call) -> Call:
        """``call`` with the other method and check_replicas per n."""
        return replace(call.with_replicas(self.check_replicas, method=self.other_method),
                       label=f"{self.other_method}#check")

    def check(self, call, outputs):
        rows = _rows(outputs["magnetization.csv"])
        if len(rows) != 3 * len(MC_GRID):
            return [f"magnetization.csv has {len(rows)} rows"]
        if not _finite(rows, ("mean_r", "se_r", "mean_r_bound")):
            return ["non-finite mean_r or se_r"]
        if not all(0.0 <= float(r["prob_m_gt_eps"]) <= 1.0 for r in rows):
            return ["exceedance frequency outside [0, 1]"]
        return []


def mean_r_by_n(outputs: list[dict[str, bytes]]) -> dict[int, tuple[float, float]]:
    """Pooled mean_r and its standard error per n over equal-sized scans."""
    pooled: dict[int, list[tuple[float, float]]] = {}
    for out in outputs:
        seen = set()
        for row in _rows(out["magnetization.csv"]):
            n = int(row["n"])
            if n not in seen:
                seen.add(n)
                pooled.setdefault(n, []).append((float(row["mean_r"]), float(row["se_r"])))
    return {n: (sum(m for m, _ in v) / len(v),
                math.sqrt(sum(se * se for _, se in v)) / len(v))
            for n, v in pooled.items()}


class Capacity(Workload):
    min_calls = 3
    ref_reps = 5
    scale_window = 0
    workers = 2
    name = "capacity_w2"

    def round_calls(self, seed, round_index):
        cfg = _config(HALF12, "capacity", MC_GRID, REPLICAS)
        return [Call(f"capacity#{i}", "capacity-scan", cfg, s, self.workers,
                     REPLICAS * len(MC_GRID), ("capacity.csv", "capacity_summary.csv"))
                for i, s in enumerate(_call_seeds(seed, round_index, self.calls_per_round))]

    def warm_call(self, seed):
        return super().warm_call(seed).with_replicas(WARM_REPLICAS)

    def check(self, call, outputs):
        rows = _rows(outputs["capacity.csv"])
        summary = _rows(outputs["capacity_summary.csv"])
        if len(rows) != call.units or len(summary) != len(MC_GRID):
            return [f"capacity CSVs have {len(rows)} and {len(summary)} rows"]
        if not _finite(rows, ("capacity_p", "ratio")):
            return ["non-finite capacity"]
        if any(float(r["capacity_p"]) < 0.0 for r in rows):
            return ["negative capacity"]
        return []


class Exact(Workload):
    name = "exact"
    # (label, law, schedule kind, c, depths)
    LAWS = (("half12", HALF12, "threshold", 1.0, (25, 50, 100, 200)),
            ("dirac2", DIRAC2, "threshold", 1.0, (25, 50, 100, 200)),
            ("half13", HALF13, "threshold", 1.0, (25, 50, 100, 200)),
            ("uniform8", UNIFORM8, "constant", 1e-3, (50, 100, 200)))
    COMMANDS = (("gamma-profile", "gamma", ("gamma_profile.csv", "gamma_bounds.csv")),
                ("tv-scan", "tv", ("tv.csv", "tv_summary.csv")))
    calls_per_round = 2 * sum(len(law[4]) for law in LAWS)

    def round_calls(self, seed, round_index):
        calls = [Call(f"{command}/{label}/n={n}", command,
                      _config(entries, mode, [n], kind=kind, c=c), seed, 1, n, outputs)
                 for command, mode, outputs in self.COMMANDS
                 for label, entries, kind, c, depths in self.LAWS for n in depths]
        order = np.random.default_rng([seed, round_index]).permutation(len(calls))
        return [calls[i] for i in order]

    def check(self, call, outputs):
        n = call.config["n_grid"][0]
        if call.command == "gamma-profile":
            rows = _rows(outputs["gamma_profile.csv"])
            if len(rows) != n + 1:
                return [f"gamma_profile.csv has {len(rows)} rows"]
            drift = max(abs(float(r["gamma_k"]) + float(r["one_minus_gamma_k"]) - 1.0)
                        for r in rows)
            if not drift <= GAMMA_IDENTITY_TOL:
                return [f"gamma_k + one_minus_gamma_k off 1 by {drift:.1e}"]
            return []
        rows = _rows(outputs["tv.csv"])
        if len(rows) != n:
            return [f"tv.csv has {len(rows)} rows"]
        if not all(0.0 <= float(r[k]) <= 1.0 for r in rows
                   for k in ("tv_to_mu", "tv_to_dirac1")):
            return ["total variation outside [0, 1]"]
        return []


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Magnetization("mc_direct", "direct"),
    Magnetization("mc_pruned", "pruned"),
    Capacity(),
    Exact(),
)}
