"""Noise-blind denoising: a bank of per-noise nets merged by 3D convolution.

Each member is a trained single-layer denoiser for one corruption
setting.  An input of unknown corruption runs through every member, the
member outputs are stacked into planes, and a single trained
depth x k x k kernel collapses the stack back to one image.  Only that
kernel is trainable here; members stay frozen.

Training reads the members ahead of the kernel steps: their outputs
depend only on the shuffled sample order and the per-sample noise draws,
never on the kernel.  fit hands over each epoch's minibatches first, and
each member then denoises a block of whole consecutive minibatches
(about 2**19 member outputs) with its forward_stack: one readout while
the block is within a member's chunk (at most 83 rows for 8 members at
28x28, against 167, unless one minibatch is larger).  A child process
forked for the epoch (procs.ReadAhead) corrupts each block's samples and
reads all members but the last while the steps run, and pipes the blocks
over, pickled, in order and at most about one block ahead; the steps
read the last member from the noisy inputs each block carries in its
slot.  For the paper's bank of 8 that splits the work about evenly: the
child's corruption and 7 readouts against the steps' unfolds, updates
and 1 readout.  With one CPU the blocks are made inline, each as its
first step needs it.  Each step unfolds its own minibatch's rows of the
block and adds the kernel update's per-sample terms in sample order.  A
multi-row minibatch's rows of a block readout have the bits of its own
readout, so blocking keeps the bits; a 1-row readout takes another BLAS
path, so a 1-sample minibatch (batch 1, or a 1-sample tail) is still
read on its own.
"""

from __future__ import annotations

import numpy as np

from .. import ckpt, crossbar
from ..device import DeviceModel
from ..imagecore import map_planes, plane_chunks
from ..noise import corrupt, parse_spec
from ..procs import ReadAhead
from .common import (Layer, TrainConfig, device_args, device_meta, fit,
                     training_planes)
from .cnn import unfold_stack
from .dense import DenseDenoiser


class FusionDenoiser:
    """Frozen member bank plus one programmed fusion kernel."""

    def __init__(self, members, kernel, tiled=None, rmse_log=(), device=None,
                 program_seed=0):
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
        self.rmse_log = list(rmse_log)
        self.device = device if device is not None else DeviceModel()
        self.program_seed = int(program_seed)
        self.kernel.setflags(write=False)
        self.layer = Layer(self.kernel.reshape(-1, 1), self.device,
                           np.random.default_rng([self.program_seed, 0x70]),
                           tiled)

    def forward_stack(self, images):
        """Denoise an (n, h, w) or (n, h, w, c) stack; channels are planes.

        Two levels of chunks: each member denoises an outer map_planes
        chunk, sized by the member outputs, with its forward_stack; the
        fusion readout then reads the outer chunk's planes an inner
        plane_chunks chunk at a time, sized by its patch matrix. Readout
        rows are independent, so chunking changes only the memory held.
        """
        (h, w), depth, size = self.shape, len(self.members), self.kernel.size

        def forward(chunk):
            planes = np.empty((len(chunk), depth, h, w))
            for j, member in enumerate(self.members):
                planes[:, j] = member.forward_stack(chunk)
            fused = np.empty(chunk.shape)
            for inner in plane_chunks(len(planes), h * w * size):
                patches = unfold_stack(planes[inner], self.kernel.shape[1])
                y = self.layer.read(patches.reshape(-1, size))
                del patches
                fused[inner] = np.clip(y[:, 0], 0.0, 1.0).reshape(-1, h, w)
            return fused

        return map_planes(forward, images, depth * h * w, self.shape,
                          "fusion net")

    def save(self, path):
        """One checkpoint: the kernel's state plus every member's, by name;
        from_state checks the stored member_noises against the members."""
        meta = {"member_noises": [m.train_noise for m in self.members],
                "members": [], **device_meta(self)}
        arrays = {"kernel": self.kernel, **self.layer.tiled.state()}
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
        net = cls(members, arrays["kernel"], tiled=crossbar.restore(arrays),
                  **device_args(meta))
        noises = [m.train_noise for m in members]
        if meta["member_noises"] != noises:
            raise ValueError(f"stored member noises {meta['member_noises']!r}, "
                             f"members were trained on {noises!r}")
        return net


def fusion_init(member_count: int, size: int = 3, kind: str = "zero"):
    """Starting kernel: all zeros, or the member average pass-through."""
    kernel = np.zeros((member_count, size, size))
    if kind == "identity":
        kernel[:, size // 2, size // 2] = 1.0 / member_count
    return kernel


def minibatch_runs(batches, per_block):
    """The minibatches in order, grouped into runs of at most per_block.

    A 1-sample minibatch (batch 1, or a 1-sample tail) is a run of its
    own: a 1-row readout takes another BLAS path than a multi-row one,
    so reading it inside a larger block would change its bits.
    """
    run = []
    for idx in batches:
        if run and (len(run) == per_block or len(idx) == 1):
            yield run
            run = []
        run.append(idx)
    if run:
        yield run


def fusion_train(cfg: TrainConfig, members, data, size: int = 3):
    """Train the fusion kernel over frozen members by the delta rule
    under fit.

    cfg.clean_fraction of the samples pass through the members
    uncorrupted; the rest draw one of the members' own recorded
    corruption settings uniformly.  The error is taken on the linear
    fusion output against the clean plane, and the kernel update is the
    pixel-mean of error times patch, which keeps the learning-rate scale
    of the single-layer rule.
    """
    specs = ([parse_spec(m.train_noise) for m in members]
             if cfg.clean_fraction < 1.0 else [])
    clean, shape = training_planes(data, cfg)
    n, p = clean.shape
    depth = len(members)
    kflat = fusion_init(depth, size, cfg.init).reshape(-1)
    # Minibatches per block: about 2**19 member outputs, the plane_chunks
    # budget, so the block held does not grow with n.
    per_block = max(1, 2 ** 19 // (depth * p * cfg.batch))

    def member_blocks(epoch, runs):
        # The (rows, members, h, w) member outputs of each run of
        # minibatches, but for the last member's slot, which holds the
        # inputs. They do not depend on the kernel, so each run is
        # corrupted and read ahead of its steps, one readout per member
        # (the members clamp their inputs).
        for run in runs:
            rows = np.concatenate(run)
            planes = np.empty((len(rows), depth, *shape))
            inputs = planes[:, -1]
            for row, i in enumerate(rows):
                sample_rng = np.random.default_rng([cfg.seed, epoch, int(i)])
                inputs[row] = clean[i].reshape(shape)
                if sample_rng.random() >= cfg.clean_fraction:
                    spec = specs[sample_rng.integers(len(specs))]
                    inputs[row] = corrupt(inputs[row], spec, sample_rng)
            for j, member in enumerate(members[:-1]):
                planes[:, j] = member.forward_stack(inputs)
            yield planes

    def minibatch_planes(blocks, runs):
        for planes, run in zip(blocks, runs):
            planes[:, -1] = members[-1].forward_stack(planes[:, -1])
            lo = 0
            for idx in run:
                yield planes[lo:lo + len(idx)]
                lo += len(idx)

    reader, feed = ReadAhead(), None

    def plan(epoch, batches):
        # Each epoch's member blocks are made by a child forked now (or
        # inline, with one CPU) and taken by the steps in order, which
        # read the last member themselves.
        nonlocal feed
        runs = list(minibatch_runs(batches, per_block))
        feed = minibatch_planes(reader.start(member_blocks(epoch, runs)), runs)

    def step(epoch, eta, idx):
        # One unfold per minibatch; the update stays per sample.
        patches = unfold_stack(next(feed), size)
        grad = np.zeros_like(kflat)
        terms = []
        for row, i in enumerate(idx):
            err = clean[i] - patches[row] @ kflat
            terms.append(float(err @ err))
            grad += patches[row].T @ err / p
        if eta != 0.0:
            kflat[...] += (eta / len(idx)) * grad
        return terms

    try:
        rmse_log = fit(cfg, n, step, [kflat],
                       lambda s: float(np.sqrt(s / (n * p))), in_loop=[kflat],
                       plan=plan)
    finally:
        reader.close()
    kernel = kflat.reshape(depth, size, size)
    return FusionDenoiser(members, kernel, rmse_log=rmse_log,
                          device=cfg.device, program_seed=cfg.seed)
