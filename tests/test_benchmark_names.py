"""The names the benchmark's tracer patches all exist in the package.

perfbench/tracing.py wraps each layer's entry point by module and
attribute name. A name the package no longer binds drops that layer's
metrics from traced runs, which the benchmark's smoke test rejects; this
check finds it in the unit suite instead.
"""

import importlib
import os

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    assert tracing.ENTRY_POINTS
    missing = [f"{module}:{attr}" for module, attr, *_ in tracing.ENTRY_POINTS
               if tracing._resolve(module, attr) is None]
    assert not missing, f"entry points the tracer cannot resolve: {missing}"
