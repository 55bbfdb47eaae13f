#!/usr/bin/env python3
"""Run the benchmark suite twice and print each end-to-end metric's
run-to-run spread next to its bound.

    python3 bench/selfcheck.py                            # 2 sets x 10 seeds x every workload
    python3 bench/selfcheck.py --seeds 5 --workloads exact  # only the workloads a change touches

Each of the two sets runs every workload once per seed (the sets use
different seeds).  For every (workload, metric) it prints the spread of each
set, the distance between the first and third quartile over the median, and
how far the second set's median moved from the first's, in either direction.
A metric is ``steady`` when both spreads and the move are under a third of
its bound, ``in-bound`` when they are within the bound, and ``unresolved``
otherwise: a later change that moves it by less than its spread cannot be
told apart from noise.  Run from the root of a checkout; the summary is also
written to bench/results/selfcheck.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def moved_by(first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` differs from it."""
    if not first:
        return 0.0 if first == second else float("inf")
    return abs(second - first) / first


def main(argv=None) -> int:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds per set, at least 4 (default 10)")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args(argv)
    if args.seeds < 4:
        parser.error("--seeds must be at least 4 for a quartile spread")

    values: dict = {}
    problems: list[str] = []
    for index in range(SETS):
        for i in range(args.seeds):
            seed = 1000 * index + i + 1
            for workload in args.workloads:
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    problems.append(f"{workload} seed {seed}: correct is false")
                print(f"set {index} seed {seed} {workload}: failed {result['failed']}"
                      f"/{result['attempted']}, " + ", ".join(
                          f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), [[] for _ in range(SETS)])
                    values[(workload, name)][index].append(metric["value"])

    summary = []
    print(f"\n{'workload':12s} {'metric':14s} {'bound':>6s} {'spreads':>18s} "
          f"{'move':>7s}  verdict")
    for metric in spec["end_to_end"]:
        for workload in args.workloads:
            sets = values[(workload, metric["name"])]
            bound = metric["bound"]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            move = moved_by(*medians)
            if max(*spreads, move) <= bound / 3:
                verdict = "steady"
            elif max(*spreads, move) <= bound:
                verdict = "in-bound"
            else:
                verdict = "unresolved"
            summary.append({"workload": workload, "metric": metric["name"], "bound": bound,
                            "medians": medians, "spreads": spreads, "move": move,
                            "verdict": verdict, "values": sets})
            print(f"{workload:12s} {metric['name']:14s} {bound:6.3f} "
                  f"{' '.join(f'{s:8.4f}' for s in spreads):>18s} {move:7.4f}  {verdict}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "results", "selfcheck.json"), "w") as handle:
        json.dump({"args": vars(args), "summary": summary, "problems": problems}, handle,
                  indent=1)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
