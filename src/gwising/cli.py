"""Command-line entry point.

A thin single-threaded dispatcher: parses flags, loads the JSON config
(fail-closed: unknown keys are errors), hands off to the experiments module,
and writes outputs atomically (temp file + rename, so an interrupted run
never leaves a partial file under the final name).

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 internal error (any other exception, reported on one stderr line), so a
crash never reads as a failed validation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
import tempfile
import typing

import numpy as np

from .distributions import OffspringPmf
from .experiments import (ConfigError, ExperimentConfig, rows_to_csv,
                          run_capacity_scan, run_gamma_scan,
                          run_magnetization_scan, run_tv_scan, run_validation)
from .fields import FieldMode, sample_field, survival, to_dot, prune
from .pruned_law import gamma_profile
from .tree import sample_gw

# the config keys are schema_version plus the ExperimentConfig fields, each
# under its own name except the schedule
_RENAMED = {"schedule": "p_schedule"}
_KEY_FIELDS = {_RENAMED.get(f.name, f.name): f for f in dataclasses.fields(ExperimentConfig)}
_REQUIRED_KEYS = {key for key, f in _KEY_FIELDS.items() if f.default is dataclasses.MISSING}
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
# the config mode each scan subcommand runs
_SCAN_MODES = {"gamma-profile": "gamma", "magnetization-scan": "magnetization",
               "capacity-scan": "capacity", "tv-scan": "tv"}


def _from_json(kind, value):
    if hasattr(kind, "from_json_dict"):
        return kind.from_json_dict(value)
    if typing.get_origin(kind) is tuple:
        return tuple(typing.get_args(kind)[0](v) for v in value)
    return kind(value)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-gwising-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path: str, seed_override: int | None = None,
                workers: int | None = None) -> ExperimentConfig:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - set(_KEY_FIELDS) - {"schema_version"}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if data.pop("schema_version", None) != 1:
        raise ConfigError("config must declare schema_version 1")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ConfigError(f"missing config keys {sorted(missing)}")
    if workers is not None:
        data["workers"] = workers
    values = {_KEY_FIELDS[key].name: value for key, value in data.items()}
    try:
        cfg = ExperimentConfig(**{name: _from_json(_FIELD_TYPES[name], value)
                                  for name, value in values.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config field: {exc}")
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, master_seed=seed_override)
    return cfg


def parse_pmf_spec(spec: str) -> OffspringPmf:
    """dirac<k> or comma-separated degree:mass pairs, e.g. '1:0.5,2:0.5'."""
    match = re.fullmatch(r"dirac(\d+)", spec)
    if match:
        return OffspringPmf.dirac(int(match.group(1)))
    try:
        masses = {}
        for item in spec.split(","):
            degree, mass = item.split(":")
            masses[int(degree)] = float(mass)
        return OffspringPmf.from_dict(masses)
    except Exception:
        raise ConfigError(f"cannot parse pmf spec {spec!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(prog="gwising")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)

    for name in _SCAN_MODES:
        common(sub.add_parser(name))
    validate = sub.add_parser("validate")
    validate.add_argument("--out", default=".")
    validate.add_argument("--seed", type=int, default=1)
    validate.add_argument("--instances", type=int, default=500)
    validate.add_argument("--oracle-instances", type=int, default=50)

    demo = sub.add_parser("prune-demo")
    demo.add_argument("--pmf", required=True)
    demo.add_argument("--n", type=int, required=True)
    demo.add_argument("--p", type=float, required=True)
    demo.add_argument("--out", default=".")
    demo.add_argument("--seed", type=int, default=1)
    return parser


def parse_and_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    quiet = getattr(args, "quiet", False)

    def say(message: str) -> None:
        if not quiet:
            print(message)

    try:
        if args.command == "prune-demo":
            return _run_prune_demo(args, say)
        if args.command == "validate":
            report = run_validation(args.seed, args.instances, args.oracle_instances)
            path = os.path.join(args.out, "validation.json")
            atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
            say(f"wrote {path}")
            for suite in report["suites"]:
                say(f"{suite['suite']}: max_error={suite['max_error']:.3e} "
                    f"pass={suite['pass']}")
            return 0 if report["pass"] else 1

        cfg = load_config(args.config, args.seed, args.workers)
        if cfg.mode != _SCAN_MODES[args.command]:
            raise ConfigError(f"{args.command} runs mode {_SCAN_MODES[args.command]!r}, "
                              f"not {cfg.mode!r}")
        if args.command == "magnetization-scan":
            rows = run_magnetization_scan(cfg)
            outputs = {"magnetization.csv": rows_to_csv(rows)}
        elif args.command == "gamma-profile":
            result = run_gamma_scan(cfg)
            outputs = {"gamma_profile.csv": rows_to_csv(result["rows"]),
                       "gamma_bounds.csv": rows_to_csv(result["bounds"])}
        elif args.command == "capacity-scan":
            result = run_capacity_scan(cfg)
            outputs = {"capacity.csv": rows_to_csv(result["rows"]),
                       "capacity_summary.csv": rows_to_csv(result["summary"])}
        else:
            result = run_tv_scan(cfg)
            outputs = {"tv.csv": rows_to_csv(result["rows"]),
                       "tv_summary.csv": rows_to_csv(result["summary"])}
        for name, text in outputs.items():
            path = os.path.join(args.out, name)
            atomic_write_text(path, text)
            say(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def _run_prune_demo(args, say) -> int:
    pmf = parse_pmf_spec(args.pmf)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    tree = sample_gw(pmf, args.n, rng)
    fld = sample_field(tree, FieldMode.LEAVES_ONLY, args.p, rng)
    surv = survival(tree, fld)
    outcome = prune(tree, fld)
    tree_json = json.dumps(tree.to_json_dict(), sort_keys=True,
                           separators=(",", ":")) + "\n"
    if outcome is None:
        pruned_json = json.dumps(None) + "\n"
    else:
        pruned_json = json.dumps(outcome[0].to_json_dict(), sort_keys=True,
                                 separators=(",", ":")) + "\n"
    gamma0 = float(gamma_profile(pmf, args.p, args.n).gamma[0])
    for name, text in (("tree.json", tree_json), ("pruned.json", pruned_json),
                       ("overlay.dot", to_dot(tree, fld, surv))):
        path = os.path.join(args.out, name)
        atomic_write_text(path, text)
        say(f"wrote {path}")
    say(f"root pruning probability gamma_0 = {gamma0:.6f}")
    return 0


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
