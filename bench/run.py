#!/usr/bin/env python3
"""gwising benchmark: drives the ``gwising`` CLI in-process and reports the
metrics named in BENCHMARK.json.

    python3 bench/run.py --workload mc_direct --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports ``src/gwising`` from there.
With ``--trace 0`` it times whole rounds of CLI calls for at least
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes over the first round and reports the
per-layer metrics.  Every call's output is checked.  A human-readable report
goes to stdout, the full result with provenance to
``bench/results/<workload>_seed<seed>_trace<t>.json``, and the last stdout
line is the JSON summary ``{"correct", "attempted", "failed", "metrics"}``.

Call timings are host-speed corrected: a fixed reference kernel (interpreter
and small-array NumPy work, no gwising code) runs ``ref_reps`` times before
and after every call, the median of those is the call's reference time, and
each call's wall time is scaled by REF_NOMINAL_S / (median of the reference
times of the ``scale_window`` calls on each side of it and its own); in the
traced run by the median over its pass.  Each set-up is likewise scaled by
SETUP_REF_NOMINAL_S over the time a fresh interpreter takes to import numpy
right after it.  The report and the result file keep the raw values too.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field

import numpy as np

from spans import Tracer
from workloads import AGREEMENT_SES, WORKLOADS, Call, Magnetization, mean_r_by_n

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REF_NOMINAL_S = 0.008
SETUP_REF_NOMINAL_S = 0.19
HARD_STOP_S = 100.0
SETUP_REPS = 7
SETUP_CODE = ("import sys, gwising.cli as cli; cli.load_config(sys.argv[1]); "
              "print(cli.__file__)")
SETUP_REF_CODE = "import numpy"
GWISING_MODULES = ("cli", "experiments", "tree", "distributions", "fields", "ising",
                   "capacity", "pruned_law")


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array NumPy work."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    acc = 0
    for _ in range(400):
        u = rng.random(32)
        acc += int(np.searchsorted(np.cumsum(u), 5.0)) + int(np.add.reduceat(u, [0, 16])[1])
    x = 0
    for i in range(30000):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - start


@dataclass
class Record:
    """One executed call: wall time, the reference time before it, failure
    reasons, a digest of its output files and the CPU it used."""

    call: Call
    wall: float
    ref: float
    failures: list[str]
    digest: str
    csv_bytes: int
    parent_cpu: float
    child_cpu: float
    outputs: dict[str, bytes] = field(repr=False, default_factory=dict)
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Executes calls through ``gwising.cli.parse_and_dispatch`` in a private
    work directory and checks each call's output with its workload."""

    def __init__(self, gw, workload, work_dir: str):
        self.gw, self.workload = gw, workload
        self.config_path = os.path.join(work_dir, "config.json")
        self.out_dir = os.path.join(work_dir, "out")
        os.makedirs(self.out_dir)

    def execute(self, call: Call, tracer: Tracer | None = None, keep: bool = False) -> Record:
        with open(self.config_path, "w") as handle:
            json.dump(call.config, handle)
        for name in os.listdir(self.out_dir):
            os.unlink(os.path.join(self.out_dir, name))
        argv = ["--quiet", call.command, "--config", self.config_path, "--out",
                self.out_dir, "--seed", str(call.seed), "--workers", str(call.workers)]
        dispatch = self.gw.cli.parse_and_dispatch
        if tracer is not None:
            dispatch = tracer.wrap("cli", dispatch)
        refs = [reference_kernel() for _ in range(self.workload.ref_reps)]
        cpu0, child0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            code = dispatch(argv)
            failures = [] if code == 0 else [f"exit code {code}"]
        except Exception as exc:  # a crash is a failed call, not a benchmark error
            failures = [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - start
        parent_cpu = _cpu(resource.RUSAGE_SELF) - cpu0
        child_cpu = _cpu(resource.RUSAGE_CHILDREN) - child0
        refs += [reference_kernel() for _ in range(self.workload.ref_reps)]

        outputs, digest = {}, hashlib.sha256()
        for name in call.outputs:
            path = os.path.join(self.out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    outputs[name] = handle.read()
                digest.update(name.encode() + b"\0" + outputs[name])
            elif not failures:
                failures.append(f"missing output {name}")
        if not failures:
            try:
                failures = self.workload.check(call, outputs)
            except (KeyError, ValueError) as exc:
                failures = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return Record(call, wall, statistics.median(refs), failures, digest.hexdigest(),
                      sum(map(len, outputs.values())), parent_cpu, child_cpu,
                      outputs if keep else {})


def set_scales(records: list[Record], window: int) -> None:
    """Host-speed factor per call from the median of the reference times
    measured around the ``window`` calls on each side of it and itself."""
    refs = [r.ref for r in records]
    for i, rec in enumerate(records):
        rec.scale = REF_NOMINAL_S / statistics.median(refs[max(0, i - window):i + window + 1])


def rate(records: list[Record], raw: bool = False) -> float:
    """Work units of successful calls per second spent in them."""
    ok = [r for r in records if r.ok]
    seconds = sum(r.wall * (1.0 if raw else r.scale) for r in ok)
    return sum(r.call.units for r in ok) / seconds if seconds else 0.0


# -- the untraced run ----------------------------------------------------------


def measure_rounds(runner: Runner, workload, seed: int, seconds: float):
    """Warm-up call, then whole rounds until both ``seconds`` have passed and
    ``workload.min_calls`` calls have succeeded, then the warm-up call again."""
    warm = runner.execute(workload.warm_call(seed))
    rounds: list[list[Record]] = []
    start = time.perf_counter()
    while True:
        calls = workload.round_calls(seed, len(rounds))
        rounds.append([runner.execute(c, keep=not rounds) for c in calls])
        elapsed = time.perf_counter() - start
        succeeded = sum(r.ok for batch in rounds for r in batch)
        if (elapsed >= seconds and succeeded >= workload.min_calls) or elapsed >= HARD_STOP_S:
            return warm, runner.execute(workload.warm_call(seed)), rounds


def cross_checks(runner: Runner, workload, warm: Record, again: Record,
                 first: list[Record]) -> list[dict]:
    """Checks that compare runs of the program with each other.  A failing
    check also fails the round-0 calls it covers."""
    checks = []

    def record(name: str, passed: bool, detail: str, covered: list[Record]) -> None:
        checks.append({"check": name, "pass": bool(passed), "detail": detail})
        if not passed:
            for rec in covered:
                rec.fail(f"cross-check {name} failed")

    record("repeat_call_bytes", warm.digest == again.digest and warm.failures == again.failures,
           "the warm-up call, made again after the timed rounds, gives the same output",
           first)

    if isinstance(workload, Magnetization):
        others = [runner.execute(workload.other_call(r.call), keep=True) for r in first]
        if not all(r.ok for r in first + others):
            record("direct_vs_pruned_mean_r", False, "a round-0 or reference call failed", first)
        else:
            mine = mean_r_by_n([r.outputs for r in first])
            theirs = mean_r_by_n([r.outputs for r in others])
            zs = {n: abs(mine[n][0] - theirs[n][0]) / (mine[n][1] ** 2 + theirs[n][1] ** 2) ** 0.5
                  for n in mine}
            record("direct_vs_pruned_mean_r", max(zs.values()) <= AGREEMENT_SES,
                   f"round-0 mean_r against method {workload.other_method} at "
                   f"{workload.check_replicas} replicas, "
                   f"|diff| / combined SE per n: "
                   + ", ".join(f"n={n}: {z:.2f}" for n, z in sorted(zs.items()))
                   + f" (limit {AGREEMENT_SES})", first)
    if workload.workers > 1:
        for rec in first:
            single = runner.execute(rec.call.with_workers(1))
            record(f"workers_{workload.workers}_vs_1_bytes[{rec.call.label}]",
                   single.digest == rec.digest and single.ok == rec.ok,
                   f"output at --workers {workload.workers} equals --workers 1", [rec])
    return checks


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the sorted values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload, rounds: list[list[Record]], raw: bool = False) -> dict:
    records = [r for batch in rounds for r in batch]
    times = [r.wall * (1.0 if raw else r.scale) for r in records if r.ok]
    return {
        "work_per_s": rate(records, raw),
        "call_s_p50": statistics.median(times) if times else 0.0,
        "call_s_tail": p90(times),
        "success_frac": sum(r.ok for r in records) / len(records),
    }


def measure_setup(src: str, config_path: str) -> tuple[float, float]:
    """Seconds from a fresh interpreter to a loaded config, SETUP_REPS times:
    the median of the corrected and of the raw times.

    Import cost (file reads, unmarshalling, shared-library loading) does not
    track the reference kernel, so each set-up is corrected by a fresh
    interpreter that imports numpy right after it, with no gwising code.
    """
    env = dict(os.environ, PYTHONPATH=src)

    def timed(code: str, *args: str) -> tuple[float, str]:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return time.perf_counter() - start, done.stdout.strip()

    walls, corrected = [], []
    for _ in range(SETUP_REPS):
        wall, module = timed(SETUP_CODE, config_path)
        if not os.path.abspath(module).startswith(src + os.sep):
            raise RuntimeError(f"set-up imported gwising from {module}")
        walls.append(wall)
        corrected.append(wall * SETUP_REF_NOMINAL_S / timed(SETUP_REF_CODE)[0])
    return statistics.median(corrected), statistics.median(walls)


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident memory of this process and of its largest child (0 when
    no child has ended).  Pool workers are forked, so a child's peak includes
    the pages it shares with this process."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)


# -- the traced run ------------------------------------------------------------


def measure_traced(runner: Runner, workload, seed: int, seconds: float):
    """Alternate untraced, traced and (for pooled workloads) pooled passes over
    round 0 until ``seconds`` have passed and each kind has run twice;
    untraced and traced passes use one worker.  Returns the passes by kind and
    one tracer per traced pass."""
    calls = workload.round_calls(seed, 0)
    kinds = [("untraced", 1), ("traced", 1)]
    if workload.workers > 1:
        kinds.append(("pool", workload.workers))
    passes: dict[str, list[list[Record]]] = {kind: [] for kind, _ in kinds}
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while True:
        for kind, workers in kinds:
            tracer = None
            if kind == "traced":
                tracer = Tracer()
                tracers.append(tracer)
                tracer.install(runner.gw)
            try:
                passes[kind].append([runner.execute(c.with_workers(workers), tracer)
                                     for c in calls])
            finally:
                if tracer is not None:
                    tracer.restore()
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(tracers) >= 2) or elapsed >= HARD_STOP_S:
            return passes, tracers


def work_counters(tracer: Tracer, records: list[Record]) -> dict:
    """Exact work done by one traced pass; repeats exactly at a fixed seed."""
    layers = tracer.layers()

    def units(name):
        return layers.get(name, {}).get("units", 0)

    return {
        "work.calls": len(records),
        "work.units": sum(r.call.units for r in records if r.ok),
        "work.vertices_sampled": units("tree.sample_gw") + units("tree.sample_inhomogeneous_bp"),
        "work.vertices_swept": units("ising.lyons_field") + units("capacity.capacity_recursion"),
        "work.draws": units("distributions.OffspringPmf.sample_many"),
        "work.csv_bytes": units("cli.atomic_write_text"),
        "work.sampler_empty": tracer.empty,
        "work.sampler_empty_expected": tracer.empty_expected,
    }


def merge_layers(tracers: list[Tracer]) -> dict[str, dict]:
    merged: dict[str, dict] = {}
    for tracer in tracers:
        for name, stats in tracer.layers().items():
            into = merged.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
    return merged


def traced_scale(passes: dict) -> float:
    """Host-speed factor for span times, from every traced call's reference."""
    return REF_NOMINAL_S / statistics.median(r.ref for b in passes["traced"] for r in b)


def layer_table(layers: dict, passes: dict) -> list[str]:
    """Every traced layer by self time: calls, self seconds and work units per
    traced pass, share of the traced calls' wall time, nanoseconds per unit."""
    scale, npass = traced_scale(passes), len(passes["traced"])
    scan_ns = layers["cli"]["total_ns"]
    lines = [f"{'layer (per traced pass)':46s} {'calls':>8s} {'self_s':>9s} {'share':>6s} "
             f"{'units':>10s} {'ns/unit':>9s}"]
    for name, s in sorted(layers.items(), key=lambda item: -item[1]["self_ns"]):
        per_unit = f"{s['self_ns'] * scale / s['units']:9.1f}" if s["units"] else ""
        self_s = s["self_ns"] * scale / 1e9 / npass
        lines.append(f"{name:46s} {s['calls'] / npass:8.0f} {self_s:9.4f} "
                     f"{s['self_ns'] / scan_ns:6.3f} {s['units'] / npass:10.0f} {per_unit}")
    return lines


def per_layer(workload, layers: dict, passes: dict, tracers: list[Tracer],
              imports: dict) -> dict:
    scale = traced_scale(passes)
    npass = len(passes["traced"])
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "units": 0}
    scan_ns = layers["cli"]["total_ns"]

    def per_unit(name, factor, inclusive=False, by_calls=False):
        s = layers.get(name, empty)
        denom = s["calls"] if by_calls else s["units"]
        ns = s["total_ns"] if inclusive else s["self_ns"]
        return ns * scale / denom / factor if denom else 0.0

    def share(name):
        return layers.get(name, empty)["self_ns"] / scan_ns

    def per_pass(name, key, factor=1.0):
        value = layers.get(name, empty)[key]
        return value * (scale / factor if key.endswith("_ns") else 1.0) / npass

    pool = [r for batch in passes.get("pool", []) for r in batch]
    pool_wall = sum(r.wall for r in pool)
    untraced_rate = statistics.median(rate(b) for b in passes["untraced"])
    traced_rate = statistics.median(rate(b) for b in passes["traced"])
    samples = layers.get("pruned_law.PrunedLawSampler.sample", empty)["calls"]
    metrics = {
        "tree.sample_gw.ns_per_vertex": per_unit("tree.sample_gw", 1),
        "tree.sample_gw.share": share("tree.sample_gw"),
        "tree.sample_inhomogeneous_bp.ns_per_vertex": per_unit("tree.sample_inhomogeneous_bp", 1),
        "tree.sample_inhomogeneous_bp.share": share("tree.sample_inhomogeneous_bp"),
        "tree.Tree.from_offspring_counts.ns_per_vertex":
            per_unit("tree.Tree.from_offspring_counts", 1),
        "distributions.OffspringPmf.sample_many.ns_per_draw":
            per_unit("distributions.OffspringPmf.sample_many", 1),
        "fields.sample_field.ns_per_vertex": per_unit("fields.sample_field", 1),
        "ising.lyons_field.ns_per_vertex": per_unit("ising.lyons_field", 1),
        "ising.lyons_field.share": share("ising.lyons_field"),
        "capacity.capacity_recursion.ns_per_vertex": per_unit("capacity.capacity_recursion", 1),
        "capacity.capacity_recursion.share": share("capacity.capacity_recursion"),
        "pruned_law.PrunedLawSampler.build_ms":
            per_unit("pruned_law.PrunedLawSampler.build", 1e6, inclusive=True, by_calls=True),
        "pruned_law.PrunedLawSampler.sample.ns_per_vertex":
            per_unit("pruned_law.PrunedLawSampler.sample", 1),
        "pruned_law.PrunedLawSampler.sample.empty_frac":
            sum(t.empty for t in tracers) / samples if samples else 0.0,
        "pruned_law.gamma_profile.us_per_generation": per_unit("pruned_law.gamma_profile", 1e3),
        "pruned_law.mu_star.us_per_call": per_unit("pruned_law.mu_star", 1e3, by_calls=True),
        "distributions.ztb_mixture.calls": per_pass("distributions.ztb_mixture", "calls"),
        "distributions.ztb_mixture.us_per_call":
            per_unit("distributions.ztb_mixture", 1e3, by_calls=True),
        "pruned_law.moments.share": share("pruned_law.moments"),
        "pruned_law.tv_profile.share": share("pruned_law.tv_profile"),
        "pruned_law.calibrate_constants.share": share("pruned_law.calibrate_constants"),
        "experiments.replica_rng.us_per_call":
            per_unit("experiments.replica_rng", 1e3, by_calls=True),
        "experiments.self_s": per_pass("experiments.scan", "self_ns", 1e9),
        "experiments.pool.busy_frac":
            sum(r.child_cpu for r in pool) / (pool_wall * workload.workers) if pool else 0.0,
        "experiments.pool.parent_cpu_s":
            sum(r.parent_cpu for r in pool) / len(pool) if pool else 0.0,
        "cli.load_config.us_per_call": per_unit("cli.load_config", 1e3, by_calls=True),
        "cli.atomic_write_text.bytes": per_pass("cli.atomic_write_text", "units"),
        "cli.atomic_write_text.self_s": per_pass("cli.atomic_write_text", "self_ns", 1e9),
        "setup.import.scipy_stats_s": imports["scipy.stats"],
        "setup.import.gwising_self_s": imports["gwising"],
        "trace.untraced_work_per_s": untraced_rate,
        "trace.traced_work_per_s": traced_rate,
        "trace.overhead_frac": statistics.median(
            1.0 - rate(t, raw=True) / rate(u, raw=True)
            for u, t in zip(passes["untraced"], passes["traced"])),
    }
    metrics.update(work_counters(tracers[0], passes["traced"][0]))
    return metrics


def traced_checks(passes: dict, tracers: list[Tracer], workload) -> list[dict]:
    """Every pass gives the bytes of the first untraced pass, and every traced
    pass does the same work.  A failing check fails the calls it covers."""
    reference = passes["untraced"][0]
    checks = []
    for kind, batches in passes.items():
        mismatched = [rec for batch in batches for rec, ref in zip(batch, reference)
                      if rec.digest != ref.digest or rec.ok != ref.ok]
        for rec in mismatched:
            rec.fail(f"{kind} output differs from the untraced output")
        what = {"untraced": "repeated untraced passes", "traced": "traced passes",
                "pool": f"passes at --workers {workload.workers}"}[kind]
        checks.append({"check": f"{kind}_bytes", "pass": not mismatched,
                       "detail": f"{what} give the bytes of the first untraced pass "
                                 f"({len(mismatched)} calls differ)"})
    counters = [work_counters(t, batch) for t, batch in zip(tracers, passes["traced"])]
    checks.append({"check": "work_counters_repeat",
                   "pass": all(c == counters[0] for c in counters),
                   "detail": f"{len(counters)} traced passes did identical work"})
    return checks


def import_times(src: str) -> dict:
    """Raw seconds a fresh interpreter spends importing scipy.stats once numpy
    and scipy are loaded, and then gwising.cli once its dependencies are.

    ``python -X importtime`` does not log scipy.stats itself (SciPy loads
    submodules lazily), so the stages are timed directly.
    """
    code = ("import time; t0 = time.perf_counter(); import numpy, scipy; "
            "t1 = time.perf_counter(); from scipy import stats; t2 = time.perf_counter(); "
            "import gwising.cli; t3 = time.perf_counter(); print(t2 - t1, t3 - t2)")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    scipy_stats, gwising = map(float, done.stdout.split())
    return {"scipy.stats": scipy_stats, "gwising": gwising}


# -- provenance and reporting --------------------------------------------------


def git_commit(root: str) -> str:
    """Commit of the checkout read from .git without running git; "unknown"
    outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str, args, tracing_overhead) -> dict:
    import scipy
    return {
        "commit": git_commit(root), "argv": sys.argv, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "tracing_overhead_frac": tracing_overhead,
        "reference_kernel_nominal_s": REF_NOMINAL_S,
        "setup_reference_nominal_s": SETUP_REF_NOMINAL_S,
    }


def load_gwising(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gwising", "cli.py")):
        sys.exit(f"no gwising sources at {src}: run from the root of a gwising checkout")
    sys.path.insert(0, src)
    gw = types.SimpleNamespace(**{m: importlib.import_module(f"gwising.{m}")
                                  for m in GWISING_MODULES})
    if not os.path.abspath(gw.cli.__file__).startswith(src + os.sep):
        sys.exit(f"gwising was imported from {gw.cli.__file__}, not from {src}")
    return src, gw


def report(title: str, metrics: dict, units: dict, raw: dict, checks: list[dict],
           records: list[Record], notes: list[str], table: list[str]) -> None:
    print(title)
    for note in notes:
        print(f"  {note}")
    print(f"  {'metric':52s} {'value':>14s}  unit      raw")
    for name, value in metrics.items():
        extra = f"{raw[name]:.6g}" if name in raw else ""
        print(f"  {name:52s} {value:14.6g}  {units[name]:8s}  {extra}")
    for line in table:
        print(f"  {line}")
    print("checks:")
    for check in checks:
        print(f"  [{'pass' if check['pass'] else 'FAIL'}] {check['check']}: {check['detail']}")
    failed: dict[str, list[str]] = {}
    for rec in records:
        for reason in rec.failures:
            failed.setdefault(reason, []).append(rec.call.label)
    print(f"failed calls: {sum(not r.ok for r in records)} of {len(records)}")
    for reason, labels in sorted(failed.items()):
        shown = sorted(set(labels))
        print(f"  {len(labels):4d} x {reason}  [{', '.join(shown[:6])}"
              f"{', ...' if len(shown) > 6 else ''}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    src, gw = load_gwising(root)
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        runner = Runner(gw, workload, work_dir)
        for _ in range(3):
            reference_kernel()
        raw: dict = {}
        notes: list[str] = []
        table: list[str] = []
        if args.trace == 0:
            warm, again, rounds = measure_rounds(runner, workload, args.seed, args.seconds)
            records = [r for batch in rounds for r in batch]
            checks = cross_checks(runner, workload, warm, again, rounds[0])
            set_scales(records, workload.scale_window)
            metrics = end_to_end(workload, rounds)
            raw = end_to_end(workload, rounds, raw=True)
            parent_mb, child_mb = peak_rss_mb()
            metrics["peak_rss_mb"] = max(parent_mb, child_mb)
            metrics["setup_s"], raw["setup_s"] = measure_setup(src, runner.config_path)
            succeeded = sum(r.ok for r in records)
            notes.append(f"{len(rounds)} rounds, {len(records)} calls, {succeeded} succeeded; "
                         f"call_s_tail is p90 ({succeeded - round(succeeded * 0.9)} "
                         f"calls beyond it)")
            notes.append(f"peak RSS: this process {parent_mb:.1f} MB, "
                         f"largest child {child_mb:.1f} MB")
            wanted = spec["end_to_end"]
            overhead = None
        else:
            passes, tracers = measure_traced(runner, workload, args.seed, args.seconds)
            records = [r for batches in passes.values() for batch in batches for r in batch]
            for batches in passes.values():
                for batch in batches:
                    set_scales(batch, window=len(batch))
            checks = traced_checks(passes, tracers, workload)
            layers = merge_layers(tracers)
            metrics = per_layer(workload, layers, passes, tracers, import_times(src))
            overhead = metrics["trace.overhead_frac"]
            table = layer_table(layers, passes)
            notes.append(", ".join(f"{len(b)} {kind} passes" for kind, b in passes.items())
                         + f" of {len(passes['traced'][0])} calls")
            wanted = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in wanted}
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not computed: {sorted(missing)}")
        metrics = {name: metrics[name] for name in units}
        correct = all(c["pass"] for c in checks)
        attempted, failed = len(records), sum(not r.ok for r in records)

        result = {
            "provenance": provenance(root, args, overhead), "correct": correct,
            "attempted": attempted, "failed": failed, "metrics": metrics, "raw": raw,
            "checks": checks, "notes": notes,
            "calls": [{"label": r.call.label, "seed": r.call.seed, "workers": r.call.workers,
                       "wall_s": r.wall, "ref_s": r.ref, "scale": r.scale,
                       "units": r.call.units, "csv_bytes": r.csv_bytes,
                       "failures": r.failures} for r in records],
        }
        if args.trace:
            result["layers"] = layers
        out_dir = os.path.join(BENCH_DIR, "results")
        os.makedirs(out_dir, exist_ok=True)
        out_path = os.path.join(out_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
        with open(out_path, "w") as handle:
            json.dump(result, handle, indent=1)

        report(f"gwising benchmark: workload {args.workload}, seed {args.seed}, "
               f"trace {args.trace}", metrics, units, raw, checks, records, notes, table)
        print(f"result file: {os.path.relpath(out_path, root)}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": {name: {"value": value, "unit": units[name]}
                                      for name, value in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
