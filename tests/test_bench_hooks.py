"""The traced benchmark run finds every function it hooks.

``bench/spans.py`` rebinds each traced function where its callers look it up,
reading the original from ``owner.__dict__``.  A renamed or dropped name
would break only ``bench/run.py --trace 1``, with a KeyError; this test
fails first.
"""

import importlib.util
import pathlib

import gwising
import gwising.cli  # noqa: F401  (loads gwising.cli and gwising.experiments)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_is_defined_where_it_is_hooked():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets(gwising)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert targets
    assert not missing, f"hooked names not defined where hooked: {missing}"
