"""The names the benchmark's tracer patches all exist in the package.

perfbench/tracing.py wraps each layer's entry point by module and
attribute name, and its counters read attributes of what those entry
points take and return. A name the package no longer binds drops that
layer's metrics from traced runs, which the benchmark's smoke test
rejects; these checks find it in the unit suite instead.
"""

import importlib
import os

import numpy as np

from memdenoise import crossbar
from memdenoise.device import DeviceModel
from memdenoise.imagecore import Dataset

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    assert tracing.ENTRY_POINTS
    missing = [f"{module}:{attr}" for module, attr, *_ in tracing.ENTRY_POINTS
               if tracing._resolve(module, attr) is None]
    assert not missing, f"entry points the tracer cannot resolve: {missing}"


def test_every_attribute_the_tracer_counts_with_exists():
    # The tracer's counters read these off matmul's crossbar and
    # load_mnist's split; a missing one fails only a traced run.
    m = crossbar.program(np.zeros((300, 200)), DeviceModel(),
                         np.random.default_rng(0))
    assert (m.rows, m.cols, m.tiles_per_polarity) == (300, 200, 8)
    data = Dataset(np.zeros((2, 4, 4), np.uint8), np.arange(2))
    assert data.images.shape == (2, 4, 4) and data.labels.tolist() == [0, 1]
