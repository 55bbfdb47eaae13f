"""The traced benchmark run finds every function it hooks, and reaches it.

``bench/spans.py`` rebinds each traced function where its callers look it up,
reading the original from ``owner.__dict__``.  A renamed or dropped name
would break only ``bench/run.py --trace 1``, with a KeyError; a call that
bypasses the hooked name would leave its per-layer metrics at 0.  These
tests fail first.
"""

import importlib.util
import math
import pathlib

import pytest

import gwising
import gwising.cli  # noqa: F401  (loads gwising.cli and gwising.experiments)
from gwising.experiments import (ExperimentConfig, PSchedule, run_capacity_scan,
                                 run_magnetization_scan)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_is_defined_where_it_is_hooked():
    targets = load_spans()._targets(gwising)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert targets
    assert not missing, f"hooked names not defined where hooked: {missing}"


SAMPLER = ["distributions.OffspringPmf.sample_many", "experiments.replica_rng"]


@pytest.mark.parametrize("method, mode, layers", [
    ("direct", "magnetization", SAMPLER + ["tree.sample_gw", "fields.sample_field",
                                           "ising.lyons_field"]),
    ("pruned", "magnetization", SAMPLER + ["pruned_law.PrunedLawSampler.sample",
                                           "tree.sample_inhomogeneous_bp",
                                           "ising.lyons_field"]),
    ("pruned", "capacity", SAMPLER + ["pruned_law.PrunedLawSampler.sample",
                                      "tree.sample_inhomogeneous_bp",
                                      "capacity.capacity_recursion"]),
])
def test_every_hooked_layer_of_a_scan_is_reached(method, mode, layers):
    cfg = ExperimentConfig(gwising.OffspringPmf.from_dict({1: 0.5, 2: 0.5}),
                           math.atanh(0.8), PSchedule("threshold", 1.0), (6, 14), 40,
                           mode, master_seed=2, method=method)
    tracer = load_spans().Tracer()
    tracer.install(gwising)
    try:
        run_capacity_scan(cfg) if mode == "capacity" else run_magnetization_scan(cfg)
    finally:
        tracer.restore()
    stats = tracer.layers()
    assert {name: stats.get(name, {}).get("calls", 0) > 0 for name in layers} == \
        dict.fromkeys(layers, True)
    # every layer but the stream constructor counts its work units
    counted = [name for name in layers if name != "experiments.replica_rng"]
    assert {name: stats[name]["units"] > 0 for name in counted} == dict.fromkeys(counted, True)
