"""Downstream classification harness.

Measures what denoising buys a consumer of the images: a small MLP is
pre-trained on clean data only, then scored on clean, corrupted, and
denoised versions of the test split.  The classifier is deliberately
minimal; only the accuracy deltas between those conditions carry
meaning, not its absolute strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ckpt
from .nets.common import (MAX_GAIN, TrainConfig, check_epoch, check_planes,
                          check_trained, max_abs, plane_samples,
                          training_epochs)
from .noise import NoiseSpec, corrupt_dataset

ACCURACY_CSV_HEADER = "noise,condition,accuracy,n"


@dataclass(frozen=True)
class AccuracyReport:
    """Accuracy of one (noise, pipeline) condition on n images."""

    noise: str
    condition: str
    accuracy: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")

    def csv_row(self) -> str:
        return f"{self.noise},{self.condition},{self.accuracy:.4f},{self.n}"

    def to_json(self) -> dict:
        return {"noise": self.noise, "condition": self.condition,
                "accuracy": self.accuracy, "n": self.n}


class Classifier:
    """Plane -> hidden ReLU -> 10 logits, argmax decision.

    The output layer starts at zero, so an untrained classifier emits
    identical logits and argmax falls through to class 0; training
    breaks the tie from the first update on.
    """

    def __init__(self, w1, b1, w2, b2, shape, loss_log=()):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.shape = tuple(shape)
        self.loss_log = list(loss_log)
        p, hidden = self.w1.shape
        if (p != self.shape[0] * self.shape[1] or self.b1.shape != (hidden,)
                or self.w2.shape != (hidden, 10) or self.b2.shape != (10,)):
            raise ValueError(
                "layers %r, %r, %r, %r do not fit %r planes" % (
                    self.w1.shape, self.b1.shape, self.w2.shape,
                    self.b2.shape, self.shape))
        for a in (self.w1, self.b1, self.w2, self.b2):
            if not max_abs(a) <= MAX_GAIN:  # NaN too
                raise ValueError("classifier weights must be finite and "
                                 "within 2**64")
            a.setflags(write=False)

    @classmethod
    def initial(cls, plane_size: int, hidden: int, shape, seed: int = 0):
        rng = np.random.default_rng([seed, 0x43])
        w1 = rng.normal(0.0, np.sqrt(2.0 / plane_size), (plane_size, hidden))
        return cls(w1, np.zeros(hidden), np.zeros((hidden, 10)), np.zeros(10),
                   shape)

    def logits(self, flat):
        hidden = np.maximum(0.0, flat @ self.w1 + self.b1)
        return hidden @ self.w2 + self.b2

    def predict(self, images):
        """Class labels for a stack of images."""
        flat, _ = plane_samples(check_planes(images, self.shape, "classifier"))
        return np.argmax(self.logits(flat), axis=1)

    def accuracy(self, images, labels) -> float:
        return float(np.mean(self.predict(images) == np.asarray(labels)))

    def save(self, path):
        ckpt.save(path, "classifier",
                  {"shape": list(self.shape), "loss_log": self.loss_log},
                  {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2})

    @classmethod
    def from_state(cls, meta, arrays):
        """A classifier from its checkpoint metadata and layers."""
        return cls(arrays["w1"], arrays["b1"], arrays["w2"], arrays["b2"],
                   meta["shape"], loss_log=meta["loss_log"])

    @classmethod
    def load(cls, path):
        return ckpt.load(path, {"classifier": cls.from_state})[1]


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_classifier(data, cfg: TrainConfig, hidden: int = 100):
    """SGD with cross-entropy on the clean training split.

    The CLI's recipe is cli.CLASSIFIER_RECIPE. The epoch loss log and the
    trained layers follow the same divergence rules as the denoiser
    trainers (check_epoch, check_trained).
    """
    flat, shape = plane_samples(data.images)
    labels = np.asarray(data.labels)
    if data.images.ndim == 4:
        # Channel planes were unrolled into separate samples; labels
        # repeat per channel in the same order.
        labels = np.repeat(labels, data.images.shape[3])
    if cfg.limit is not None:
        flat, labels = flat[:cfg.limit], labels[:cfg.limit]
    n, p = flat.shape
    clf = Classifier.initial(p, hidden, shape, seed=cfg.seed)
    w1, b1 = clf.w1.copy(), clf.b1.copy()
    w2, b2 = clf.w2.copy(), clf.b2.copy()
    onehot = np.eye(10)[labels]
    loss_log = []
    for epoch, eta, batches in training_epochs(cfg, n):
        loss_sum = 0.0
        for idx in batches:
            x, y = flat[idx], onehot[idx]
            pre = x @ w1 + b1
            hid = np.maximum(0.0, pre)
            prob = _softmax(hid @ w2 + b2)
            loss_sum += float(-np.sum(np.log(np.maximum(prob[np.arange(len(idx)), labels[idx]], 1e-300))))
            g_logit = (prob - y) / len(idx)
            g_w2 = hid.T @ g_logit
            g_b2 = g_logit.sum(axis=0)
            g_hid = (g_logit @ w2.T) * (pre > 0)
            g_w1 = x.T @ g_hid
            g_b1 = g_hid.sum(axis=0)
            if eta != 0.0:
                w1 -= eta * g_w1
                b1 -= eta * g_b1
                w2 -= eta * g_w2
                b2 -= eta * g_b2
        loss_log.append(loss_sum / n)
        check_epoch(epoch, loss_log)
    check_trained(loss_log, w1, b1, w2, b2)
    return Classifier(w1, b1, w2, b2, shape, loss_log=loss_log)


def evaluate(clf: Classifier, data, denoiser=None, noise: NoiseSpec | None = None,
             seed: int = 0) -> AccuracyReport:
    """Accuracy after corrupt -> (optionally denoise) -> classify.

    Every consumer downstream of the sensor is an analog stage, so the
    corrupted stack is clamped to the [0, 1] input window before it
    reaches either the denoiser or the classifier.  The report row
    names the denoiser by its class name.
    """
    images = np.asarray(data.images, dtype=np.float64)
    noise_text = ""
    if noise is not None:
        images = np.clip(corrupt_dataset(images, noise, seed), 0.0, 1.0)
        noise_text = noise.text()
    if denoiser is not None:
        images = denoiser.forward_stack(images)
        label = type(denoiser).__name__.replace("Denoiser", "").lower()
        condition = f"denoised({label})"
    else:
        condition = "noisy" if noise is not None else "clean"
    accuracy = clf.accuracy(images, data.labels)
    return AccuracyReport(noise=noise_text, condition=condition,
                          accuracy=accuracy, n=len(data.labels))
