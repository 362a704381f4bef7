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
from .imagecore import ImageShapeError, float_stack
from .nets.common import MAX_GAIN, TrainConfig, fit, max_abs
from .noise import NoiseSpec, corrupt_dataset

ACCURACY_CSV_HEADER = "noise,condition,accuracy,n"
HIDDEN = 100  # hidden units of every classifier Classifier.initial builds


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
    """Whole (h, w) or (h, w, c) image -> hidden ReLU -> 10 logits, argmax.

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
        if (p != np.prod(self.shape) or self.b1.shape != (hidden,)
                or self.w2.shape != (hidden, 10) or self.b2.shape != (10,)):
            raise ValueError(
                "layers %r, %r, %r, %r do not fit %r images" % (
                    self.w1.shape, self.b1.shape, self.w2.shape,
                    self.b2.shape, self.shape))
        for a in (self.w1, self.b1, self.w2, self.b2):
            if not max_abs(a) <= MAX_GAIN:  # NaN too
                raise ValueError("classifier weights must be finite and "
                                 "within 2**64")
            a.setflags(write=False)

    @classmethod
    def initial(cls, shape, seed: int = 0):
        size = int(np.prod(shape))
        rng = np.random.default_rng([seed, 0x43])
        w1 = rng.normal(0.0, np.sqrt(2.0 / size), (size, HIDDEN))
        return cls(w1, np.zeros(HIDDEN), np.zeros((HIDDEN, 10)), np.zeros(10),
                   shape)

    def logits(self, flat):
        hidden = np.maximum(0.0, flat @ self.w1 + self.b1)
        return hidden @ self.w2 + self.b2

    def predict(self, images):
        """Class labels for a stack of images, each clamped to the [0, 1]
        input window first; TypeError for an integer stack
        (imagecore.float_stack)."""
        images = float_stack(images)
        if images.shape[1:] != self.shape:
            raise ImageShapeError(f"images {images.shape}, classifier expects "
                                  f"{self.shape}")
        flat = np.clip(images.reshape(len(images), -1), 0.0, 1.0)
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


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_classifier(data, cfg: TrainConfig):
    """SGD with cross-entropy on the clean training split, under fit.

    The CLI's recipe is cli.CLASSIFIER_RECIPE. The epoch loss is the
    mean cross-entropy; it and the trained layers follow the denoisers'
    divergence rules.
    """
    shape = data.images.shape[1:]
    labels = np.asarray(data.labels)[:cfg.limit]
    n = len(labels)
    clf = Classifier.initial(shape, seed=cfg.seed)
    layers = [a.copy() for a in (clf.w1, clf.b1, clf.w2, clf.b2)]
    w1, b1, w2, b2 = layers
    onehot = np.eye(10)[labels]

    def step(epoch, eta, idx):
        # Only the minibatch is converted to float64 (data.floats).
        x, y = data.floats(idx).reshape(len(idx), -1), onehot[idx]
        pre = x @ w1 + b1
        hid = np.maximum(0.0, pre)
        prob = _softmax(hid @ w2 + b2)
        picked = prob[np.arange(len(idx)), labels[idx]]
        g_logit = (prob - y) / len(idx)
        g_hid = (g_logit @ w2.T) * (pre > 0)
        grads = (x.T @ g_hid, g_hid.sum(axis=0), hid.T @ g_logit,
                 g_logit.sum(axis=0))
        for a, g in zip(layers, grads):
            a -= eta * g
        return [float(-np.sum(np.log(np.maximum(picked, 1e-300))))]

    loss_log = fit(cfg, n, step, layers, lambda s: s / n)
    return Classifier(*layers, shape, loss_log=loss_log)


def evaluate(clf: Classifier, data, noise: NoiseSpec | None = None,
             seed: int = 0, denoiser=None) -> list[AccuracyReport]:
    """The accuracy rows of one noise: clean (noise None) or noisy, and,
    with a denoiser, denoised, both read from one corruption of data.

    Every consumer downstream of the sensor is an analog stage that
    clamps its own input to the [0, 1] window: the denoiser and the
    classifier (Classifier.predict).  The denoised row names the
    denoiser by its class name.
    """
    images = data.floats()
    if noise is not None:
        images = corrupt_dataset(images, noise, seed)
    rows = [("clean" if noise is None else "noisy", images)]
    if denoiser is not None:
        label = type(denoiser).__name__.replace("Denoiser", "").lower()
        rows.append((f"denoised({label})", denoiser.forward_stack(images)))
    text = "" if noise is None else noise.text()
    return [AccuracyReport(text, condition, clf.accuracy(stack, data.labels),
                           len(data.labels)) for condition, stack in rows]
