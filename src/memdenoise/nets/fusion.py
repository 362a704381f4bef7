"""Noise-blind denoising: a bank of per-noise nets merged by 3D convolution.

Each member is a trained single-layer denoiser for one corruption
setting.  An input of unknown corruption runs through every member, the
member outputs are stacked into planes, and a single trained
depth x k x k kernel collapses the stack back to one image.  Only that
kernel is trainable here; members stay frozen.

Training reads each member once per minibatch and unfolds the whole
minibatch at once; the kernel update adds its per-sample terms in sample
order.  The member readouts stay one per minibatch and are not merged
into larger ones: a 1-row readout takes another BLAS path than a
multi-row one, so merging would change the bits of batch-1 runs and of
1-sample tail batches.
"""

from __future__ import annotations

import numpy as np

from .. import ckpt, crossbar
from ..device import DeviceModel
from ..noise import NoiseSpec, corrupt, parse_spec
from .common import (TrainConfig, check_epoch, check_planes, chunk_planes,
                     plane_samples, pow2_scale, stack_from_planes,
                     trained_gain)
from .cnn import conv_same, unfold_stack
from .dense import DenseDenoiser


class FusionDenoiser:
    """Frozen member bank plus one programmed fusion kernel."""

    def __init__(self, members, kernel, member_noises=None, tiled=None,
                 rmse_log=(), device=None, program_seed=0):
        self.members = tuple(members)
        if not self.members:
            raise ValueError("at least one member is required")
        shapes = {m.shape for m in self.members}
        if len(shapes) != 1:
            raise ValueError(f"members disagree on plane shape: {shapes}")
        self.shape = self.members[0].shape
        self.kernel = np.asarray(kernel, dtype=np.float64)
        if (self.kernel.ndim != 3
                or self.kernel.shape[0] != len(self.members)
                or self.kernel.shape[1] != self.kernel.shape[2]
                or self.kernel.shape[1] % 2 == 0):
            raise ValueError(
                f"kernel must be (members, k, k) with odd k, got {self.kernel.shape}")
        if member_noises is None:
            member_noises = tuple(m.train_noise for m in self.members)
        self.member_noises = tuple(member_noises)
        if len(self.member_noises) != len(self.members):
            raise ValueError("one noise label per member is required")
        self.rmse_log = list(rmse_log)
        self.device = device if device is not None else DeviceModel()
        self.program_seed = int(program_seed)
        self.kernel.setflags(write=False)
        self.scale = pow2_scale(np.abs(self.kernel).max())
        if tiled is None:
            tiled = crossbar.program(
                self.kernel.reshape(-1, 1) / self.scale, self.device,
                np.random.default_rng([self.program_seed, 0x70]))
        elif (tiled.rows, tiled.cols) != (self.kernel.size, 1):
            raise ValueError(f"crossbar {(tiled.rows, tiled.cols)}, kernel "
                             f"needs {(self.kernel.size, 1)}")
        self.tiled = tiled

    def forward_stack(self, images):
        """Denoise an (n, h, w) or (n, h, w, c) stack; channels are planes.

        Each member reads the whole stack in one batched readout. The
        fusion readout runs a chunk of planes at a time over one patch
        matrix; its rows are independent, so chunking changes only the
        memory held. Member outputs sit in [0, 1], so the fusion readout
        runs in a single non-negative input phase.
        """
        images = check_planes(images, self.shape, "fusion net")
        flat, (h, w) = plane_samples(images)
        member_out = np.stack(
            [m.forward_flat(flat) for m in self.members], axis=1)
        planes = member_out.reshape(len(flat), len(self.members), h, w)
        out = np.empty((len(flat), h * w))
        step = chunk_planes(h * w * self.kernel.size)
        for lo in range(0, len(flat), step):
            patches = unfold_stack(planes[lo:lo + step], self.kernel.shape[1])
            y = crossbar.matmul(self.tiled,
                                patches.reshape(-1, self.kernel.size))
            del patches
            out[lo:lo + step] = np.clip(y[:, 0] * self.scale,
                                        0.0, 1.0).reshape(-1, h * w)
        return stack_from_planes(out, images)

    def forward_direct(self, img):
        """Float reference path: explicit sliding-window fusion."""
        img = np.asarray(img, dtype=np.float64)
        planes = np.stack([m.forward_stack(img[None])[0]
                           for m in self.members])
        y = sum(conv_same(planes[m], self.kernel[m])
                for m in range(len(self.members)))
        return np.clip(y, 0.0, 1.0)

    def reprogram(self, dev, seed=0):
        """Same members and float kernel, kernel freshly programmed."""
        return FusionDenoiser(self.members, self.kernel,
                              member_noises=self.member_noises,
                              rmse_log=self.rmse_log, device=dev,
                              program_seed=seed)

    def save(self, path):
        """One checkpoint: the kernel's state plus every member's, by name."""
        meta = {
            "member_noises": list(self.member_noises),
            "rmse_log": self.rmse_log,
            "levels": self.device.levels,
            "variation_sigma": self.device.variation_sigma,
            "program_seed": self.program_seed,
            "members": [],
        }
        arrays = {"kernel": self.kernel, **self.tiled.state()}
        for i, member in enumerate(self.members):
            member_meta, member_arrays = member.state()
            meta["members"].append(member_meta)
            arrays.update((f"members.{i}.{name}", a)
                          for name, a in member_arrays.items())
        ckpt.save(path, "fusion", meta, arrays)

    @classmethod
    def from_state(cls, meta, arrays):
        """A fusion net from its checkpoint metadata and arrays."""
        members = []
        for i, member_meta in enumerate(meta["members"]):
            pre = f"members.{i}."
            members.append(DenseDenoiser.from_state(member_meta, {
                name[len(pre):]: a for name, a in arrays.items()
                if name.startswith(pre)}))
        dev = DeviceModel(levels=meta["levels"],
                          variation_sigma=meta["variation_sigma"])
        return cls(members, arrays["kernel"],
                   member_noises=meta["member_noises"],
                   tiled=crossbar.restore(arrays, dev),
                   rmse_log=meta["rmse_log"], device=dev,
                   program_seed=meta["program_seed"])

    @classmethod
    def load(cls, path):
        return ckpt.load(path, {"fusion": cls.from_state})[1]


def fusion_init(member_count: int, size: int = 3, kind: str = "zero"):
    """Starting kernel: all zeros, or the member average pass-through."""
    kernel = np.zeros((member_count, size, size))
    if kind == "identity":
        kernel[:, size // 2, size // 2] = 1.0 / member_count
    return kernel


def fusion_train(cfg: TrainConfig, members, data, size: int = 3, noises=None):
    """Train the fusion kernel over frozen members by the delta rule.

    cfg.clean_fraction of the samples pass through the members
    uncorrupted; the rest draw one of ``noises`` uniformly (default: the
    members' own recorded corruption settings).  The error is taken on
    the linear fusion output against the clean plane, and the kernel
    update is the pixel-mean of error times patch, which keeps the
    learning-rate scale of the single-layer rule.
    """
    members = tuple(members)
    if noises is not None:
        specs = [s if isinstance(s, NoiseSpec) else parse_spec(s) for s in noises]
    elif cfg.clean_fraction < 1.0:
        specs = [parse_spec(m.train_noise) for m in members]
    else:
        specs = []
    clean, shape = plane_samples(data.images)
    if cfg.limit is not None:
        clean = clean[:cfg.limit]
    n, p = clean.shape
    kflat = fusion_init(len(members), size, cfg.init).reshape(-1)
    rng = np.random.default_rng([cfg.seed, 0x5F])
    rmse_log = []
    for epoch in range(1, cfg.epochs + 1):
        eta = cfg.learning_rate / np.sqrt(epoch)
        perm = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, cfg.batch):
            idx = perm[start:start + cfg.batch]
            inputs = np.empty((len(idx), p))
            for row, i in enumerate(idx):
                sample_rng = np.random.default_rng([cfg.seed, epoch, int(i)])
                if sample_rng.random() < cfg.clean_fraction:
                    inputs[row] = clean[i]
                else:
                    spec = specs[sample_rng.integers(len(specs))]
                    inputs[row] = np.clip(
                        corrupt(clean[i].reshape(shape), spec, sample_rng),
                        0.0, 1.0).reshape(-1)
            # One batched readout per member and one unfold per minibatch.
            # The kernel update stays per sample, in sample order.
            planes = np.stack([m.forward_flat(inputs) for m in members], axis=1)
            patches = unfold_stack(
                planes.reshape(len(idx), len(members), *shape), size)
            grad = np.zeros_like(kflat)
            for row, i in enumerate(idx):
                err = clean[i] - patches[row] @ kflat
                sq_sum += float(err @ err)
                grad += patches[row].T @ err / p
            if eta != 0.0:
                kflat += (eta / len(idx)) * grad
        rmse_log.append(float(np.sqrt(sq_sum / (n * p))))
        check_epoch(epoch, rmse_log)
        if cfg.device_in_loop and not cfg.device.ideal:
            s = trained_gain(np.abs(kflat).max(), rmse_log)
            tiled = crossbar.program(
                kflat.reshape(-1, 1) / s, cfg.device,
                np.random.default_rng([cfg.seed, 0x71, epoch]))
            kflat = (s * tiled.effective_weights()).reshape(-1)
    trained_gain(np.abs(kflat).max(), rmse_log)  # diverged weights raise
    kernel = kflat.reshape(len(members), size, size)
    return FusionDenoiser(members, kernel, rmse_log=rmse_log,
                          device=cfg.device, program_seed=cfg.seed)
