"""Single-layer dense denoiser with delta-rule training.

One crossbar layer maps a noisy plane of P pixels plus a constant-1 bias
input to a denoised plane: y = clamp(scale * W^T [x; 1]). Training is the
online delta rule (LMS), matching the analog update primitive: the weight
change is the outer product of the input with the per-pixel error,
DW[i, j] = eta * e[j] * x[i], with the error taken on the linear readout
before the clamp. The root mean squared error of each epoch is logged and
a runaway epoch aborts training.

Weights live in float during training; afterwards (or each epoch when
device_in_loop is set) they are rescaled by a power-of-two readout gain
into [-1, 1] and programmed onto differential pairs through the device
model. RGB inputs are handled per channel plane with the same weights.
"""

import numpy as np

from .. import ckpt, crossbar
from ..device import DeviceModel
from .common import (MAX_GAIN, TrainConfig, check_epoch, corrupt_plane,
                     plane_samples, stack_from_planes, trained_gain)


class DenseDenoiser:
    """A programmed (P+1) x P crossbar layer plus its readout gain."""

    def __init__(self, weights, scale, shape, tiled=None, train_noise="",
                 rmse_log=(), device=None, program_seed=0):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.scale = float(scale)
        self.shape = tuple(shape)
        p = self.shape[0] * self.shape[1]
        if self.weights.shape != (p + 1, p):
            raise ValueError("weights %r, expected %r"
                             % (self.weights.shape, (p + 1, p)))
        if not 0.0 < self.scale <= MAX_GAIN:
            raise ValueError("readout gain %g is not in (0, 2**64]"
                             % self.scale)
        if not (-self.scale <= self.weights.min()
                and self.weights.max() <= self.scale):
            raise ValueError("weights exceed the readout gain %g (or are NaN)"
                             % self.scale)
        self.train_noise = train_noise
        self.rmse_log = list(rmse_log)
        self.device = device if device is not None else DeviceModel()
        self.program_seed = int(program_seed)
        self.weights.setflags(write=False)
        if tiled is None:
            tiled = crossbar.program(
                self.weights / self.scale, self.device,
                np.random.default_rng([self.program_seed, 0x70]))
        elif (tiled.rows, tiled.cols) != self.weights.shape:
            raise ValueError("crossbar %r, weights %r"
                             % ((tiled.rows, tiled.cols), self.weights.shape))
        self.tiled = tiled

    @classmethod
    def identity(cls, h, w):
        """Pass-through net: diagonal 1, bias row 0, unit gain."""
        p = h * w
        weights = np.zeros((p + 1, p))
        weights[:p] = np.eye(p)
        return cls(weights, 1.0, (h, w))

    def reprogram(self, dev, seed=0):
        """Same float weights, freshly programmed through another device."""
        return DenseDenoiser(self.weights, self.scale, self.shape,
                             train_noise=self.train_noise,
                             rmse_log=self.rmse_log, device=dev,
                             program_seed=seed)

    def with_sparsity(self, dropout_frac, prune_frac, seed=0):
        """Masked copy: dropout on input rows, pruning on device pairs."""
        tiled = crossbar.apply_sparsity(
            self.tiled, dropout_frac, prune_frac,
            np.random.default_rng([seed, 0x5A]))
        return DenseDenoiser(self.weights, self.scale, self.shape, tiled=tiled,
                             train_noise=self.train_noise,
                             rmse_log=self.rmse_log, device=self.device,
                             program_seed=self.program_seed)

    def forward_flat(self, flat):
        """Denoise a batch of flattened planes, (n, P) -> (n, P)."""
        flat = np.clip(np.asarray(flat, dtype=np.float64), 0.0, 1.0)
        x = np.hstack([flat, np.ones((flat.shape[0], 1))])
        y = crossbar.matmul(self.tiled, x) * self.scale
        return np.clip(y, 0.0, 1.0)

    def forward(self, img):
        """Denoise one image; channels are independent planes."""
        img = np.asarray(img, dtype=np.float64)
        h, w = self.shape
        if img.shape[:2] != (h, w):
            raise ValueError("image %r, net expects %r" % (img.shape, self.shape))
        if img.ndim == 2:
            return self.forward_flat(img.reshape(1, -1))[0].reshape(h, w)
        out = np.empty_like(img)
        for c in range(img.shape[2]):
            out[:, :, c] = self.forward_flat(
                img[:, :, c].reshape(1, -1))[0].reshape(h, w)
        return out

    def forward_stack(self, images):
        """Denoise a stack of images in one batched readout."""
        images = np.asarray(images, dtype=np.float64)
        flat, _ = plane_samples(images)
        return stack_from_planes(self.forward_flat(flat), images)

    def state(self):
        """Checkpoint metadata and named arrays, programmed state included."""
        meta = {
            "shape": list(self.shape),
            "scale": self.scale,
            "train_noise": self.train_noise,
            "rmse_log": self.rmse_log,
            "levels": self.device.levels,
            "variation_sigma": self.device.variation_sigma,
            "program_seed": self.program_seed,
        }
        return meta, {"weights": self.weights, **self.tiled.state()}

    @classmethod
    def from_state(cls, meta, arrays):
        """Inverse of state()."""
        dev = DeviceModel(levels=meta["levels"],
                          variation_sigma=meta["variation_sigma"])
        return cls(arrays["weights"], meta["scale"], meta["shape"],
                   tiled=crossbar.restore(arrays, dev),
                   train_noise=meta["train_noise"],
                   rmse_log=meta["rmse_log"], device=dev,
                   program_seed=meta["program_seed"])

    def save(self, path):
        ckpt.save(path, "dense", *self.state())

    @classmethod
    def load(cls, path):
        return ckpt.load(path, {"dense": cls.from_state})[1]


def dense_train(cfg: TrainConfig, data):
    """Train a dense denoiser on clean images with on-the-fly corruption.

    Every epoch draws fresh noise per sample from substream
    [seed, epoch, sample], shuffles with the config seed, and applies
    delta-rule updates (mean over the batch). Epoch RMSE is logged; a
    runaway epoch (see check_epoch) raises TrainingDivergence.

    The input, error and update buffers are allocated once per run; each
    in-place step is the same IEEE operation as its allocating form, so
    the trained bits do not depend on the buffering.
    """
    clean, shape = plane_samples(data.images)
    if cfg.limit is not None:
        clean = clean[:cfg.limit]
    n, p = clean.shape
    weights = np.zeros((p + 1, p))
    if cfg.init == "identity":
        weights[:p] = np.eye(p)
    rng = np.random.default_rng([cfg.seed, 0x5F])
    rmse_log = []
    spec = cfg.train_noise
    rows = min(cfg.batch, n)
    x_buf = np.ones((rows, p + 1))  # column p is the bias input, set once
    err_buf = np.empty((rows, p))
    g = np.empty((p + 1, p))
    for epoch in range(1, cfg.epochs + 1):
        eta = cfg.learning_rate / np.sqrt(epoch)
        perm = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, cfg.batch):
            idx = perm[start:start + cfg.batch]
            x, err = x_buf[:len(idx)], err_buf[:len(idx)]
            for row, i in zip(x, idx):
                row[:p] = corrupt_plane(clean[i], shape, spec,
                                        [cfg.seed, epoch, int(i)])
            np.matmul(x, weights, out=err)
            np.subtract(clean[idx], err, out=err)
            if eta != 0.0:
                np.matmul(x.T, err, out=g)
                g *= eta / len(idx)
                weights += g
            np.multiply(err, err, out=err)  # err is spent: square in place
            sq_sum += float(np.sum(err))
        rmse_log.append(float(np.sqrt(sq_sum / (n * p))))
        check_epoch(epoch, rmse_log)
        if cfg.device_in_loop and not cfg.device.ideal:
            s = trained_gain(np.abs(weights).max(), rmse_log)
            tiled = crossbar.program(
                weights / s, cfg.device,
                np.random.default_rng([cfg.seed, 0x71, epoch]))
            weights = s * tiled.effective_weights()
    scale = trained_gain(np.abs(weights).max(), rmse_log)
    return DenseDenoiser(weights, scale, shape,
                         train_noise=spec.text(), rmse_log=rmse_log,
                         device=cfg.device, program_seed=cfg.seed)
