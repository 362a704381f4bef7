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
from ..imagecore import map_planes
from .common import (Layer, TrainConfig, corrupt_plane, device_args,
                     device_meta, fit, training_planes)


class DenseDenoiser:
    """A programmed (P+1) x P crossbar layer plus its readout gain."""

    @staticmethod
    def crossbar_layers(shape):
        """(rows, cols, reads per plane) of each crossbar for (h, w) planes:
        one (P+1) x P array, P pixels plus the bias input, read once."""
        p = shape[0] * shape[1]
        return ((p + 1, p, 1),)

    def __init__(self, weights, shape, tiled=None, train_noise="",
                 rmse_log=(), device=None, program_seed=0):
        weights = np.asarray(weights, dtype=np.float64)
        self.shape = tuple(shape)
        (rows, cols, _), = self.crossbar_layers(self.shape)
        if weights.shape != (rows, cols):
            raise ValueError("weights %r, expected %r"
                             % (weights.shape, (rows, cols)))
        self.train_noise = train_noise
        self.rmse_log = list(rmse_log)
        self.device = device if device is not None else DeviceModel()
        self.program_seed = int(program_seed)
        self.layer = Layer(weights, self.device, np.random.default_rng(
            [self.program_seed, 0x70]), tiled)

    def reprogram(self, dev, seed=0):
        """Same float weights, freshly programmed through another device."""
        return DenseDenoiser(self.layer.weights, self.shape,
                             train_noise=self.train_noise,
                             rmse_log=self.rmse_log, device=dev,
                             program_seed=seed)

    def with_sparsity(self, dropout_frac, prune_frac, seed=0):
        """Masked copy: dropout on input rows, pruning on device pairs."""
        tiled = crossbar.apply_sparsity(
            self.layer.tiled, dropout_frac, prune_frac,
            np.random.default_rng([seed, 0x5A]))
        return DenseDenoiser(self.layer.weights, self.shape, tiled=tiled,
                             train_noise=self.train_noise,
                             rmse_log=self.rmse_log, device=self.device,
                             program_seed=self.program_seed)

    def forward_stack(self, images):
        """Denoise a stack of images, one batched readout per map_planes
        chunk (the clamp, bias column and readout hold about 4 planes);
        readout rows are independent, so chunking changes only memory."""
        def forward(planes):
            x = np.ones((len(planes), planes[0].size + 1))  # bias column last
            np.clip(planes.reshape(len(planes), -1), 0.0, 1.0, out=x[:, :-1])
            y = self.layer.read(x)
            return np.clip(y, 0.0, 1.0, out=y)

        return map_planes(forward, images, 4 * self.shape[0] * self.shape[1],
                          self.shape, "dense net")

    def state(self):
        """Checkpoint metadata and named arrays, programmed state included;
        from_state checks the stored scale (the gain) against the weights."""
        meta = {"shape": list(self.shape), "scale": self.layer.gain,
                "train_noise": self.train_noise, **device_meta(self)}
        return meta, {"weights": self.layer.weights, **self.layer.tiled.state()}

    @classmethod
    def from_state(cls, meta, arrays):
        """Inverse of state(). The mapped pages are dropped (ckpt.release)
        once restore has built the readout matrix and again once the checks
        have read the weights: a fusion checkpoint's members are held one
        at a time, and no readout faults them back in."""
        tiled = crossbar.restore(arrays)
        ckpt.release(*tiled.state().values())
        net = cls(arrays["weights"], meta["shape"], tiled=tiled,
                  train_noise=meta["train_noise"], **device_args(meta))
        if meta["scale"] != net.layer.gain:
            raise ValueError("stored readout gain %r, weights give %g"
                             % (meta["scale"], net.layer.gain))
        ckpt.release(arrays["weights"])
        return net

    def save(self, path):
        ckpt.save(path, "dense", *self.state())


def dense_train(cfg: TrainConfig, data):
    """Train a dense denoiser on clean planes corrupted afresh each epoch,
    sample i in epoch e from substream [seed, e, i], by the delta rule
    (mean update over the batch) under fit."""
    clean, shape = training_planes(data, cfg)
    n, p = clean.shape
    weights = np.zeros((p + 1, p))
    if cfg.init == "identity":
        weights[:p] = np.eye(p)

    def step(epoch, eta, idx):
        x = np.ones((len(idx), p + 1))  # bias column last
        for row, i in zip(x, idx):
            row[:p] = corrupt_plane(clean[i], shape, cfg.train_noise,
                                    [cfg.seed, epoch, int(i)])
        err = clean[idx] - x @ weights
        weights[...] += (eta / len(idx)) * (x.T @ err)
        return [float(np.sum(err * err))]

    rmse_log = fit(cfg, n, step, [weights],
                   lambda s: float(np.sqrt(s / (n * p))), in_loop=[weights])
    return DenseDenoiser(weights, shape, train_noise=cfg.train_noise.text(),
                         rmse_log=rmse_log, device=cfg.device,
                         program_seed=cfg.seed)
