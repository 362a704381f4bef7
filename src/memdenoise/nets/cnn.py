"""Convolutional denoiser: conv, pool, 3D conv, conv, upsample.

The layer chain is conv1 (KERNELS = 8 kernels, 3 x 3, zero-pad same) ->
ReLU -> 2x2 max pool -> one 3D kernel collapsing the 8 feature maps into a
single plane -> ReLU -> conv2 -> 2x nearest upsample -> clamp. All
layers are bias free. Inference executes every convolution as a crossbar
readout on unfolded (im2col) patch matrices; kernels are rescaled by a
per-layer power-of-two gain so conductances stay inside [-1, 1]. Every
activation entering a crossbar is non-negative here (input pixels, ReLU
outputs), so single-phase readout suffices.

Inference reads a stack a chunk of planes at a time. Each layer unfolds
the whole chunk at once and reads it as a stack of per-plane patch
matrices, so every plane gets the bits it would get alone.

Training is plain SGD on the mean squared error of the pre-clamp output,
with gradients derived by hand: the pool routes its gradient to the
argmax position, the upsample sums over its 2x2 fan-out, and kernel
gradients accumulate over all patch positions. A central finite
difference oracle validates them in the test suite. A minibatch runs
forward and backward as one (B, h, w) stack, one window unfold per layer
input. The kernel-gradient products stay one per sample, and the trainer
adds losses and gradients in sample order, so the batched trainer gives
the bits of the per-sample one.
"""

import numpy as np

from .. import ckpt
from ..device import DeviceModel
from ..imagecore import map_planes
from .common import (Layer, TrainConfig, corrupt_plane, device_args,
                     device_meta, fit, training_planes)


def _windows(x, k):
    # (..., h, w) -> (..., h, w, k, k) view of the zero-padded windows
    pad = k // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)])
    return np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(-2, -1))


def _patches(x, k):
    # (..., h, w) -> contiguous (..., h, w, k*k) patch of every pixel
    return _windows(x, k).reshape(x.shape + (k * k,))


def conv_same(x, kern):
    """2-D correlation with zero padding keeping the spatial shape.

    x: (..., h, w) batch of planes; kern: (k, k). Vectorized over leading
    axes via an unfolded patch matrix.
    """
    k = kern.shape[0]
    return _patches(x, k) @ kern.reshape(k * k)


def unfold(x, k=3):
    """im2col: (..., h, w) -> (..., h*w, k*k) zero-padded same-size patches."""
    *lead, h, w = x.shape
    return _patches(x, k).reshape(*lead, h * w, k * k)


def unfold_stack(x, k=3):
    """im2col over channels: (..., c, h, w) -> (..., h*w, c*k*k), channel-major."""
    *lead, c, h, w = x.shape
    win = np.moveaxis(_windows(x, k), -5, -3)
    return win.reshape(*lead, h * w, c * k * k)


def _maxpool(a):
    # (..., h, w) -> pooled (..., h/2, w/2) plus flat argmax in each 2x2 cell
    *lead, h, w = a.shape
    cells = a.reshape(*lead, h // 2, 2, w // 2, 2).swapaxes(-3, -2)
    cells = cells.reshape(*lead, h // 2, w // 2, 4)
    idx = np.argmax(cells, axis=-1)
    out = np.take_along_axis(cells, idx[..., None], axis=-1)[..., 0]
    return out, idx


def _maxpool_back(g, idx, shape):
    *lead, h, w = shape
    cells = np.zeros(g.shape + (4,))
    np.put_along_axis(cells, idx[..., None], g[..., None], axis=-1)
    return cells.reshape(*lead, h // 2, w // 2, 2, 2).swapaxes(
        -3, -2).reshape(shape)


def _upsample(y):
    return np.repeat(np.repeat(y, 2, axis=-2), 2, axis=-1)


def _upsample_back(g):
    *lead, h, w = g.shape
    return g.reshape(*lead, h // 2, 2, w // 2, 2).sum(axis=(-3, -1))


KERNELS, KSIZE = 8, 3  # conv1's kernels and side, the only ones a CNN loads


class CnnDenoiser:
    """Trained kernels plus their crossbar layers m1, m3 and m2: each
    kernel unfolded to a (patch, output) matrix, programmed at its own
    gain in that order from the [program_seed, 0x70] stream."""

    @staticmethod
    def crossbar_layers(shape):
        """(rows, cols, reads per plane) of m1, m3 and m2 for (h, w) planes
        and KERNELS kernels of KSIZE sides: m1 reads a patch per pixel, m3
        and m2 one per pooled pixel of the plane padded as forward_stack
        pads it."""
        h, w = shape
        n, kk = (h + h % 2) * (w + w % 2), KSIZE * KSIZE
        return (kk, KERNELS, n), (KERNELS * kk, 1, n // 4), (kk, 1, n // 4)

    def __init__(self, k1, k3, k2, train_noise="", rmse_log=(),
                 device=None, program_seed=0):
        self.k1 = np.asarray(k1, dtype=np.float64)  # (K, k, k)
        self.k3 = np.asarray(k3, dtype=np.float64)  # (K, k, k)
        self.k2 = np.asarray(k2, dtype=np.float64)  # (k, k)
        if self.k1.shape != (KERNELS, KSIZE, KSIZE):
            raise ValueError(f"k1 is {self.k1.shape}, not the {KERNELS} "
                             f"{KSIZE}x{KSIZE} kernels of a cnn")
        if self.k3.shape != self.k1.shape or self.k2.shape != (KSIZE, KSIZE):
            raise ValueError("kernels %r, %r, %r do not fit together"
                             % (self.k1.shape, self.k3.shape, self.k2.shape))
        self.train_noise = train_noise
        self.rmse_log = list(rmse_log)
        self.device = device if device is not None else DeviceModel()
        self.program_seed = int(program_seed)
        kk = KSIZE * KSIZE
        rng = np.random.default_rng([self.program_seed, 0x70])
        self.m1 = Layer(self.k1.reshape(KERNELS, kk).T, self.device, rng)
        self.m3 = Layer(self.k3.reshape(KERNELS * kk, 1), self.device, rng)
        self.m2 = Layer(self.k2.reshape(kk, 1), self.device, rng)

    def _forward_linear(self, x):
        # crossbar route: every convolution is a patch-matrix readout. The
        # chunk's (b, h, w) planes are read as a stack of b patch matrices,
        # so each plane gets the bits it would get alone: with rows
        # concatenated, BLAS kernels group rows across plane boundaries
        # whenever a plane's row count is not a multiple of their unroll.
        b, h, w = x.shape
        x = np.clip(x, 0.0, 1.0)
        a1 = self.m1.read(unfold(x, KSIZE))
        a1 = np.maximum(a1, 0.0).reshape(b, h, w, KERNELS)
        p, _ = _maxpool(a1.transpose(0, 3, 1, 2))
        y3 = self.m3.read(unfold_stack(p, KSIZE))
        a3 = np.maximum(y3, 0.0).reshape(b, h // 2, w // 2)
        y2 = self.m2.read(unfold(a3, KSIZE))
        return _upsample(y2.reshape(b, h // 2, w // 2))

    def forward_stack(self, images):
        """Denoise an (n, h, w) or (n, h, w, c) stack; channels are planes.

        Shape preserving: odd sides are reflect-padded on the way in and
        cropped on the way out. Planes run through the crossbars a chunk
        at a time (see map_planes), so the patch matrices stay about
        4 MB however long the stack is.
        """
        h, w = np.shape(images)[1:3]

        def forward(x):
            if h % 2 or w % 2:
                x = np.pad(x, ((0, 0), (0, h % 2), (0, w % 2)), mode="reflect")
            return np.clip(self._forward_linear(x)[:, :h, :w], 0.0, 1.0)

        # widest patches: the 3D stage's h*w/4 x KERNELS*k*k
        return map_planes(forward, images, h * w // 4 * KERNELS * KSIZE ** 2)

    def save(self, path):
        meta = {"train_noise": self.train_noise, **device_meta(self)}
        ckpt.save(path, "cnn", meta, {"k1": self.k1, "k3": self.k3, "k2": self.k2})

    @classmethod
    def from_state(cls, meta, arrays):
        """A CNN from its checkpoint metadata and kernels, programmed anew."""
        return cls(arrays["k1"], arrays["k3"], arrays["k2"],
                   train_noise=meta["train_noise"], **device_args(meta))


def _float_forward(x, k1, k3, k2):
    """Float forward pass of a (B, h, w) stack: pre-clamp output and cache.

    Each layer's input is unfolded once into a patch array shared by all
    its kernels (and kept for the kernel gradients); every product is a
    per-plane (w, k*k) @ (k*k,) product, the one a lone sample runs.
    """
    kn, ks = k1.shape[0], k1.shape[1]
    px = _patches(x, ks)
    y1 = np.stack([px @ k1[k].reshape(-1) for k in range(kn)], axis=1)
    p, idx = _maxpool(np.maximum(y1, 0.0))
    pp = _patches(p, ks)
    y3 = np.zeros(x.shape[:1] + p.shape[2:])
    for k in range(kn):
        y3 += pp[:, k] @ k3[k].reshape(-1)
    pa3 = _patches(np.maximum(y3, 0.0), ks)
    out = _upsample(pa3 @ k2.reshape(-1))
    return out, (px, y1, idx, pp, y3, pa3)


def _kernel_grads(patches, g):
    # Per-sample kernel gradients, one (k*k, P) @ (P,) product each, so
    # every sample's sum runs as it would alone:
    # (B, h, w, k*k) patches, (B, h, w) gradient planes -> (B, k*k)
    kk = patches.shape[-1]
    return np.stack([patches[b].reshape(-1, kk).T @ g[b].reshape(-1)
                     for b in range(len(g))])


def _float_backward(g_out, cache, k1, k3, k2):
    """Per-sample gradients of each sample's loss wrt the kernel tensors.

    Returns (B, K, k, k), (B, K, k, k) and (B, k, k) arrays.
    """
    px, y1, idx, pp, y3, pa3 = cache
    kn, ks = k1.shape[0], k1.shape[1]
    g_y2 = _upsample_back(g_out)
    g_k2 = _kernel_grads(pa3, g_y2)
    g_y3 = conv_same(g_y2, k2[::-1, ::-1]) * (y3 > 0)
    g_k3 = np.stack([_kernel_grads(pp[:, k], g_y3) for k in range(kn)], axis=1)
    pg = _patches(g_y3, ks)
    g_p = np.stack([pg @ k3[k][::-1, ::-1].reshape(-1) for k in range(kn)],
                   axis=1)
    g_y1 = _maxpool_back(g_p, idx, y1.shape) * (y1 > 0)
    g_k1 = np.stack([_kernel_grads(px, g_y1[:, k]) for k in range(kn)], axis=1)
    return (g_k1.reshape((-1,) + k1.shape),
            g_k3.reshape((-1,) + k3.shape), g_k2.reshape((-1,) + k2.shape))


def cnn_loss_and_grads(x, target, k1, k3, k2):
    """Mean squared pre-clamp errors of a (B, h, w) stack against its
    targets, and their kernel gradients with a leading sample axis. Each
    sample's numbers are the bits it would get alone.
    """
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    out, cache = _float_forward(x, k1, k3, k2)
    err = out - target
    loss = np.mean(err * err, axis=(1, 2))
    g_out = 2.0 * err / (err.shape[1] * err.shape[2])
    return loss, _float_backward(g_out, cache, k1, k3, k2)


def cnn_train(cfg: TrainConfig, data):
    """SGD training of the convolutional denoiser under fit, from a
    seeded Gaussian kernel init; each update averages the batch's
    gradients, added per sample in sample order (that order fixes the
    trained bits)."""
    clean, shape = training_planes(data, cfg)
    rng = np.random.default_rng([cfg.seed, 0x31])
    # The 3D stage squeezes through one ReLU plane; a zero-mean start
    # leaves it dead, so k3 opens as a positive averaging kernel and k2
    # as a noisy center tap while k1 stays free to specialize.
    k1 = rng.normal(0.0, 0.3, size=(KERNELS, KSIZE, KSIZE))
    k3 = (1.0 / (KERNELS * KSIZE * KSIZE)
          + rng.normal(0.0, 0.02, size=(KERNELS, KSIZE, KSIZE)))
    k2 = rng.normal(0.0, 0.02, size=(KSIZE, KSIZE))
    k2[KSIZE // 2, KSIZE // 2] += 1.0

    def step(epoch, eta, idx):
        noisy = np.stack([
            corrupt_plane(clean[i], shape, cfg.train_noise,
                          [cfg.seed, epoch, int(i)]) for i in idx])
        loss, grads = cnn_loss_and_grads(
            noisy.reshape(-1, *shape), clean[idx].reshape(-1, *shape),
            k1, k3, k2)
        for k, d in zip((k1, k3, k2), grads):
            g = np.zeros_like(k)
            for b in range(len(idx)):
                g += d[b]
            if eta != 0.0:
                k -= (eta / len(idx)) * g
        return loss

    n = len(clean)
    rmse_log = fit(cfg, n, step, (k1, k3, k2), lambda s: float(np.sqrt(s / n)))
    return CnnDenoiser(k1, k3, k2, train_noise=cfg.train_noise.text(),
                       rmse_log=rmse_log, device=cfg.device,
                       program_seed=cfg.seed)
