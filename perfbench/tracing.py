"""Per-layer tracing from outside the program.

The tracer replaces each layer's public entry points with a wrapper that
records a span (name, start, end, parent) and a few counts derived from
the arguments. Names are patched where callers look them up: a function
imported with ``from x import f`` is patched in the importing module.
Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children. Every instant inside an operation's root span belongs to
exactly one innermost span, so the self times of all spans add up to the
traced wall time. Each span name is the per-layer metric its self time
feeds, so the per-layer times account for the traced wall time exactly.
"""

import importlib
import json
import os
import time
from collections import Counter

import numpy as np

ROOT_SPAN = "cli.self_s"

# Shape of a dense denoiser's crossbar: 784 pixels plus the bias row.
DENSE_ARRAY = (785, 784)


def _images(counts, args, kwargs, result):
    counts["noise.images"] += np.shape(args[0])[0]


def _one_image(counts, args, kwargs, result):
    counts["noise.images"] += 1


def _load(counts, args, kwargs, result):
    counts["imagecore.bytes_read"] += (result.images.size + result.labels.size
                                       + 16 + 8)


def _program(counts, args, kwargs, result):
    counts["crossbar.program_calls"] += 1
    counts["crossbar.devices_programmed"] += int(np.prod(np.shape(args[0])))


def _matmul(counts, args, kwargs, result):
    m, xs = args[0], np.asarray(args[1])
    rows = xs.shape[0]
    phases = 2 if xs.min(initial=0.0) < 0.0 else 1
    reads = rows * m.tiles_per_polarity * phases
    counts["crossbar.matmul_calls"] += 1
    counts["crossbar.rows_read"] += rows
    counts["crossbar.tile_reads"] += reads
    counts["crossbar.two_phase_calls"] += phases == 2
    if (m.rows, m.cols) == DENSE_ARRAY:
        counts["dense_rows"] += rows
        counts["dense_tile_reads"] += reads


def _scored(counts, args, kwargs, result):
    counts["metrics.images_scored"] += 1


def _filtered(counts, args, kwargs, result):
    counts["baselines.images_filtered"] += 1


def _dense_samples(counts, args, kwargs, result):
    cfg, data = args[0], args[1]
    n = data.images.shape[0]
    counts["nets.dense.train_samples"] += cfg.epochs * (
        n if cfg.limit is None else min(n, cfg.limit))


def _cnn_sample(counts, args, kwargs, result):
    counts["nets.cnn.train_samples"] += 1


def _ckpt_bytes(counts, args, kwargs, result):
    path = args[-1] if args else kwargs["path"]
    counts["ckpt.bytes"] += os.path.getsize(path)


# (module, attribute, span metric, counter, count metrics). Attributes
# with a dot are methods, patched on the class.
ENTRY_POINTS = [
    ("memdenoise.cli", "load_mnist", "imagecore.load_s", _load,
     ("imagecore.bytes_read",)),
    ("memdenoise.cli", "corrupt_dataset", "noise.corrupt_s", _images,
     ("noise.images",)),
    ("memdenoise.classify", "corrupt_dataset", "noise.corrupt_s", _images,
     ("noise.images",)),
    ("memdenoise.nets.common", "corrupt", "noise.corrupt_s", _one_image,
     ("noise.images",)),
    ("memdenoise.nets.fusion", "corrupt", "noise.corrupt_s", _one_image,
     ("noise.images",)),
    ("memdenoise.nets.dense", "corrupt_plane", "noise.corrupt_s", None, ()),
    ("memdenoise.nets.cnn", "corrupt_plane", "noise.corrupt_s", None, ()),
    ("memdenoise.crossbar", "program", "crossbar.program_s", _program,
     ("crossbar.program_calls", "crossbar.devices_programmed")),
    ("memdenoise.crossbar", "apply_sparsity", "crossbar.sparsity_s", None, ()),
    ("memdenoise.crossbar", "matmul", "crossbar.matmul_s", _matmul,
     ("crossbar.matmul_calls", "crossbar.rows_read", "crossbar.rows_per_call",
      "crossbar.tile_reads", "crossbar.two_phase_calls",
      "crossbar.tile_reads_per_image")),
    ("memdenoise.metrics", "ssim", "metrics.ssim_s", _scored,
     ("metrics.images_scored",)),
    ("memdenoise.metrics", "mse", "metrics.mse_s", None, ()),
    ("memdenoise.baselines", "tv_denoise", "baselines.tv_s", _filtered,
     ("baselines.images_filtered",)),
    ("memdenoise.baselines", "median_filter", "baselines.median_s", _filtered,
     ("baselines.images_filtered",)),
    ("memdenoise.baselines", "gaussian_blur", "baselines.gauss_s", _filtered,
     ("baselines.images_filtered",)),
    ("memdenoise.cli", "dense_train", "nets.dense.train_self_s",
     _dense_samples, ("nets.dense.train_samples",)),
    ("memdenoise.nets.dense", "DenseDenoiser.forward_stack",
     "nets.dense.forward_self_s", None, ()),
    ("memdenoise.cli", "cnn_train", "nets.cnn.train_self_s", None, ()),
    ("memdenoise.nets.cnn", "cnn_loss_and_grads", "nets.cnn.grad_s",
     _cnn_sample, ("nets.cnn.train_samples",)),
    ("memdenoise.nets.cnn", "unfold", "nets.cnn.unfold_s", None, ()),
    ("memdenoise.nets.cnn", "unfold_stack", "nets.cnn.unfold_s", None, ()),
    ("memdenoise.nets.cnn", "CnnDenoiser.forward_stack",
     "nets.cnn.forward_self_s", None, ()),
    ("memdenoise.cli", "fusion_train", "nets.fusion.train_self_s", None, ()),
    ("memdenoise.nets.fusion", "unfold_stack", "nets.fusion.unfold_s", None,
     ()),
    ("memdenoise.nets.fusion", "FusionDenoiser.forward_stack",
     "nets.fusion.forward_self_s", None, ()),
    ("memdenoise.cli", "train_classifier", "classify.train_s", None, ()),
    ("memdenoise.cli", "evaluate", "classify.evaluate_s", None, ()),
    ("memdenoise.cli", "load_net", "ckpt.load_s", _ckpt_bytes,
     ("ckpt.bytes",)),
    ("memdenoise.nets.dense", "DenseDenoiser.save", "ckpt.save_s",
     _ckpt_bytes, ("ckpt.bytes",)),
    ("memdenoise.nets.cnn", "CnnDenoiser.save", "ckpt.save_s", _ckpt_bytes,
     ("ckpt.bytes",)),
    ("memdenoise.nets.fusion", "FusionDenoiser.save", "ckpt.save_s",
     _ckpt_bytes, ("ckpt.bytes",)),
    ("memdenoise.classify", "Classifier.save", "ckpt.save_s", _ckpt_bytes,
     ("ckpt.bytes",)),
]

SELF_METRICS = tuple(dict.fromkeys(
    [ROOT_SPAN] + [entry[2] for entry in ENTRY_POINTS]))
COUNT_METRICS = tuple(dict.fromkeys(
    name for entry in ENTRY_POINTS for name in entry[4]))


def _resolve(module_name, attr):
    """(owner, name) where `attr` is bound, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if callable(getattr(owner, name, None)) else None


class Tracer:
    """Spans and counts of the traced passes of one run."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index]
        self._stack = []
        self.counts = None
        self._patched = []
        self.absent = set()

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, fn, span, counter):
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every entry point that exists; note the metrics of the rest."""
        self.counts = Counter()
        for module_name, attr, span, counter, counted in ENTRY_POINTS:
            where = _resolve(module_name, attr)
            if where is None:
                self.absent.update((span,) + counted)
                continue
            owner, name = where
            fn = getattr(owner, name)
            self._patched.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, span, counter))

    def uninstall(self):
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def pass_metrics(self, first_span):
        """Per-layer metrics of the spans recorded since index first_span."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        metrics = dict.fromkeys(SELF_METRICS, 0.0)
        wall = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            metrics[name] += (end - start) - child[i]
            if parent < first_span:
                wall += end - start
        counts = self.counts
        for name in COUNT_METRICS:
            metrics[name] = counts[name]
        metrics["crossbar.rows_per_call"] = (
            counts["crossbar.rows_read"] / counts["crossbar.matmul_calls"]
            if counts["crossbar.matmul_calls"] else 0.0)
        metrics["crossbar.tile_reads_per_image"] = (
            counts["dense_tile_reads"] / counts["dense_rows"]
            if counts["dense_rows"] else 0.0)
        for name in self.absent:
            metrics.pop(name, None)
        return metrics, wall

    def write(self, path):
        """Spans as one JSON array of [name, start, end, parent]."""
        with open(path, "w") as f:
            json.dump(self.spans, f, separators=(",", ":"))
