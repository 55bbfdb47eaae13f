"""In-memory span tracing of gwising's layers, for the traced benchmark run.

The tracer rebinds public functions where their callers look them up (for
example ``gwising.experiments.sample_gw``, because ``experiments`` imports it
by name) and records one span per call: name, start, end, parent span and a
work count taken from the arguments or the result.  Nothing in ``src/`` is
changed; ``restore`` puts every original back.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _result_vertices(args, kwargs, result):
    return 0 if result is None else result.num_vertices


def _tree_arg_vertices(args, kwargs, result):
    return args[0].num_vertices


def _draws(args, kwargs, result):
    return len(result)


def _depth(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["n"]


def _text_bytes(args, kwargs, result):
    return len(args[1].encode())


def _targets(gw):
    """(owner, attribute, span name, work count) for every traced function."""
    scans = [(gw.cli, attr, "experiments.scan", None) for attr in (
        "run_magnetization_scan", "run_gamma_scan", "run_capacity_scan", "run_tv_scan")]
    return scans + [
        (gw.experiments, "sample_gw", "tree.sample_gw", _result_vertices),
        (gw.pruned_law, "sample_inhomogeneous_bp", "tree.sample_inhomogeneous_bp",
         _result_vertices),
        (gw.tree.Tree, "from_offspring_counts", "tree.Tree.from_offspring_counts",
         _result_vertices),
        (gw.distributions.OffspringPmf, "sample_many",
         "distributions.OffspringPmf.sample_many", _draws),
        (gw.experiments, "sample_field", "fields.sample_field", _tree_arg_vertices),
        (gw.ising, "lyons_field", "ising.lyons_field", _tree_arg_vertices),
        (gw.capacity, "capacity_recursion", "capacity.capacity_recursion",
         _tree_arg_vertices),
        (gw.pruned_law.PrunedLawSampler, "__init__", "pruned_law.PrunedLawSampler.build",
         None),
        (gw.pruned_law.PrunedLawSampler, "sample", "pruned_law.PrunedLawSampler.sample",
         _result_vertices),
        (gw.experiments, "gamma_profile", "pruned_law.gamma_profile", _depth),
        (gw.pruned_law, "gamma_profile", "pruned_law.gamma_profile", _depth),
        (gw.pruned_law, "mu_star", "pruned_law.mu_star", None),
        (gw.pruned_law, "ztb_mixture", "distributions.ztb_mixture", None),
        (gw.experiments, "moments", "pruned_law.moments", None),
        (gw.pruned_law, "moments", "pruned_law.moments", None),
        (gw.experiments, "tv_profile", "pruned_law.tv_profile", None),
        (gw.experiments, "calibrate_constants", "pruned_law.calibrate_constants", None),
        (gw.experiments, "replica_rng", "experiments.replica_rng", None),
        (gw.cli, "load_config", "cli.load_config", None),
        (gw.cli, "atomic_write_text", "cli.atomic_write_text", _text_bytes),
    ]


class Tracer:
    """Records spans as lists ``[name, start_ns, end_ns, parent, units]``.

    Calls are single-threaded (the traced run uses one worker), so a stack of
    open spans gives each new span its parent.  ``empty`` and
    ``empty_expected`` count pruned-sampler draws that returned no tree,
    against the sum of gamma_0 over all draws.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.empty = 0
        self.empty_expected = 0.0

    def wrap(self, name, fn, units=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if units is not None:
                span[4] = units(args, kwargs, result)
            return result

        return traced

    def _sampler_units(self, args, kwargs, result):
        self.empty_expected += float(args[0].profile.gamma[0])
        if result is None:
            self.empty += 1
        return _result_vertices(args, kwargs, result)

    def install(self, gw) -> None:
        for owner, attr, name, units in _targets(gw):
            if name == "pruned_law.PrunedLawSampler.sample":
                units = self._sampler_units
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__, units))
            else:
                replacement = self.wrap(name, original, units)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self nanoseconds, work units.

        Self time is a span's duration minus the durations of its direct
        children; the root spans' total is under ``"cli"``.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "units": 0})
        for i, (name, start, end, parent, units) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - child_ns[i]
            s["units"] += units
        return dict(stats)
