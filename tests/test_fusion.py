import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import conv_same, identity_dense, running, same_bits
from memdenoise import ckpt, crossbar, procs
from memdenoise.device import DeviceModel
from memdenoise.imagecore import Dataset, plane_chunks, plane_samples
from memdenoise.nets.cnn import unfold_stack
from memdenoise.nets.common import (TrainConfig, TrainingDivergence,
                                    pow2_scale)
from memdenoise.nets.dense import DenseDenoiser, dense_train
from memdenoise.nets import fusion as fusion_module
from memdenoise.nets.fusion import FusionDenoiser, fusion_init, fusion_train
from memdenoise.noise import corrupt, parse_spec
from memdenoise.procs import WorkerError

# Checkpoint kinds ckpt.load accepts here
FUSION = {"fusion": FusionDenoiser.from_state}
FORK = multiprocessing.get_context("fork")


def on_each_feed(monkeypatch, train):
    """(cpus, train()) for each CPU count the read-ahead may see: 1 makes
    the member blocks inline, 2 and 4 in a forked child."""
    for cpus in (1, 2, 4):
        monkeypatch.setattr(procs, "cpus", lambda c=cpus: c)
        yield cpus, train()


def recorded_reads(monkeypatch, nets, fault=None):
    """A queue that each member readout puts (member, rows, pid) into,
    from whichever process reads; in a forked child, fault(), if given,
    then runs in place of the readout."""
    parent, reads = os.getpid(), FORK.SimpleQueue()
    for j, net in enumerate(nets):
        def forward_stack(images, read=net.forward_stack, j=j):
            reads.put((j, len(images), os.getpid()))
            if fault is not None and os.getpid() != parent:
                fault()
            return read(images)
        monkeypatch.setattr(net, "forward_stack", forward_stack)
    return reads


def drained(queue):
    items = []
    while not queue.empty():
        items.append(queue.get())
    return items


def direct_route(fused, img):
    """Float reference path: explicit sliding-window fusion."""
    planes = [m.forward_stack(img[None])[0] for m in fused.members]
    y = sum(conv_same(plane, k) for plane, k in zip(planes, fused.kernel))
    return np.clip(y, 0.0, 1.0)


def member_bank(rng, h=8, w=8, count=3):
    """Small trained members over distinct corruptions."""
    imgs = rng.random((16, h, w))
    ds = Dataset(imgs, np.zeros(16, dtype=np.int64))
    texts = ("gaussian:0.05", "sp:0.1", "speckle:1")[:count]
    nets = []
    for text in texts:
        cfg = TrainConfig(parse_spec(text), learning_rate=0.05, epochs=1,
                          batch=4, seed=3)
        nets.append(dense_train(cfg, ds))
    return nets, ds


def member_bank_28(rng, n):
    """Three untrained near-identity 28x28 members and n random images.
    At 28x28 BLAS reads a 1-row or an odd member product with other
    kernels than an even one, which 8x8 members do not show."""
    p = 28 * 28
    nets = [DenseDenoiser(np.vstack([np.eye(p), np.zeros((1, p))])
                          + rng.normal(0, 0.01, (p + 1, p)), (28, 28),
                          train_noise=text)
            for text in ("gaussian:0.05", "sp:0.1", "speckle:1")]
    return nets, Dataset(rng.random((n, 28, 28)), np.zeros(n, np.int64))


def per_sample_fusion_train(cfg, members, data, size=3):
    """Reference trainer: one patch matrix and update term per sample.

    Each minibatch is corrupted and read by the members on its own, inside
    the SGD loop, where the trainer reads blocks of minibatches ahead of
    the steps. The == cases thus pin that a minibatch's rows of a block
    readout have the bits of its own readout, a 1-sample minibatch's too.
    """
    specs = [parse_spec(m.train_noise) for m in members]
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
            planes_all = np.stack(
                [m.forward_stack(inputs.reshape(-1, *shape)) for m in members],
                axis=1)
            grad = np.zeros_like(kflat)
            for row, i in enumerate(idx):
                patches = unfold_stack(planes_all[row], size)
                err = clean[i] - patches @ kflat
                sq_sum += float(err @ err)
                grad += patches.T @ err / p
            if eta != 0.0:
                kflat += (eta / len(idx)) * grad
        rmse_log.append(float(np.sqrt(sq_sum / (n * p))))
        if cfg.device_in_loop and not cfg.device.ideal:
            s = pow2_scale(np.abs(kflat).max())
            tiled = crossbar.program(
                kflat.reshape(-1, 1) / s, cfg.device,
                np.random.default_rng([cfg.seed, 0x71, epoch]))
            kflat = (s * tiled.effective_weights()).reshape(-1)
    return kflat.reshape(len(members), size, size), rmse_log


class TestConstruction:
    def test_kernel_shape_checked(self, rng):
        nets, _ = member_bank(rng)
        FusionDenoiser(nets, fusion_init(3))
        with pytest.raises(ValueError):
            FusionDenoiser(nets, np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            FusionDenoiser(nets, np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            FusionDenoiser([], np.zeros((0, 3, 3)))

    def test_members_must_share_shape(self, rng):
        nets, _ = member_bank(rng)
        odd = identity_dense(6, 6)
        with pytest.raises(ValueError):
            FusionDenoiser(list(nets[:2]) + [odd], fusion_init(3))

    def test_member_noises_recorded(self, rng, tmp_path):
        nets, _ = member_bank(rng)
        FusionDenoiser(nets, fusion_init(3)).save(tmp_path / "f.bin")
        _, meta = ckpt.load(tmp_path / "f.bin", {"fusion": lambda m, a: m})
        assert meta["member_noises"] == ["gaussian:0.05", "sp:0.1", "speckle:1"]

    def test_init_kinds(self):
        zero = fusion_init(4, 3, "zero")
        assert not zero.any()
        ident = fusion_init(4, 3, "identity")
        assert ident[:, 1, 1] == pytest.approx([0.25] * 4)
        assert ident.sum() == pytest.approx(1.0)


class TestForward:
    def test_one_hot_kernel_selects_one_member(self, rng):
        nets, _ = member_bank(rng)
        kernel = np.zeros((3, 3, 3))
        kernel[1, 1, 1] = 1.0
        fused = FusionDenoiser(nets, kernel)
        imgs = rng.random((1, 8, 8))
        np.testing.assert_allclose(fused.forward_stack(imgs),
                                   nets[1].forward_stack(imgs), atol=1e-12)

    def test_zero_kernel_gives_black(self, rng):
        nets, _ = member_bank(rng)
        fused = FusionDenoiser(nets, fusion_init(3, kind="zero"))
        assert not fused.forward_stack(rng.random((1, 8, 8))).any()

    def test_identity_init_averages_members(self, rng):
        nets, _ = member_bank(rng)
        fused = FusionDenoiser(nets, fusion_init(3, kind="identity"))
        imgs = rng.random((1, 8, 8))
        want = np.clip(np.mean([m.forward_stack(imgs) for m in nets], axis=0),
                       0, 1)
        np.testing.assert_allclose(fused.forward_stack(imgs), want, atol=1e-12)

    def test_crossbar_route_equals_direct_route(self, rng):
        nets, _ = member_bank(rng)
        kernel = rng.normal(0, 0.1, (3, 3, 3))
        kernel[:, 1, 1] += 1 / 3
        fused = FusionDenoiser(nets, kernel)
        img = rng.random((8, 8))
        a = fused.forward_stack(img[None])[0]
        b = direct_route(fused, img)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_forward_stack_matches_per_image(self, rng):
        # At 28x28 a lone image's 1-row member readouts take other BLAS
        # kernels than the 5-row ones but for the row rule
        nets, ds = member_bank_28(rng, 5)
        kernel = rng.normal(0, 0.1, (3, 3, 3))
        fused = FusionDenoiser(nets, kernel)
        imgs = ds.floats()
        out = fused.forward_stack(imgs)
        for i in range(5):
            assert np.array_equal(out[i], fused.forward_stack(imgs[i:i + 1])[0])

    def test_forward_stack_matches_per_image_at_an_odd_plane_size(self, rng):
        # A 5x6 plane has 30 pixels, not a multiple of 4, so one flat
        # product's 1-column rows would not have the bits of a lone
        # plane's: the fusion kernel reads a stack of per-plane matrices.
        p = 5 * 6
        nets = [DenseDenoiser(np.vstack([np.eye(p), np.zeros((1, p))])
                              + rng.normal(0, 0.01, (p + 1, p)), (5, 6))
                for _ in range(3)]
        fused = FusionDenoiser(nets, rng.normal(0, 0.1, (3, 3, 3)))
        imgs = rng.random((12, 5, 6))
        out = fused.forward_stack(imgs)
        for i in range(12):
            assert same_bits(fused.forward_stack(imgs[i:i + 1])[0], out[i])
        assert same_bits(fused.forward_stack(imgs[3:8]), out[3:8])

    def test_forward_stack_rgb(self, rng):
        nets, _ = member_bank_28(rng, 1)
        fused = FusionDenoiser(nets, fusion_init(3, kind="identity"))
        imgs = rng.random((2, 28, 28, 3))
        out = fused.forward_stack(imgs)
        assert out.shape == (2, 28, 28, 3)
        assert np.array_equal(out[0], fused.forward_stack(imgs[:1])[0])

    def test_forward_stack_bits_equal_per_plane_unfold(self, rng):
        # 4500 planes of 8x8 span two outer chunks of member outputs and
        # 16 inner chunks of 64 x 27 patches; each inner chunk's one unfold
        # must equal the per-plane patch matrices stacked up.
        nets, _ = member_bank(rng)
        fused = FusionDenoiser(nets, rng.normal(0, 0.2, (3, 3, 3)))
        imgs = rng.random((1500, 8, 8, 3))
        flat, _ = plane_samples(imgs)
        want = []
        for outer in plane_chunks(len(flat), 3 * 64):
            member_out = np.stack(
                [m.forward_stack(flat[outer].reshape(-1, 8, 8)) for m in nets],
                axis=1)
            for inner in plane_chunks(len(member_out), 64 * 27):
                patches = np.concatenate(
                    [unfold_stack(planes.reshape(3, 8, 8), 3)
                     for planes in member_out[inner]])
                want.append(crossbar.matmul(fused.layer.tiled, patches)[:, 0])
        assert len(want) == 16
        want = np.clip(np.concatenate(want) * fused.layer.gain, 0.0, 1.0)
        want = want.reshape(1500, 3, 8, 8).transpose(0, 2, 3, 1)
        assert np.array_equal(fused.forward_stack(imgs), want)

    def test_chunked_readouts_equal_whole_stack_readouts(self, rng):
        # Outer chunks of 222, 222 and 1 28x28 planes (an odd or a 1-row
        # member product takes other BLAS kernels at 28x28), against one
        # readout of the whole stack per member and one fusion readout of
        # its whole patch matrix.
        p = 28 * 28
        members = [DenseDenoiser(np.vstack([np.eye(p), np.zeros((1, p))])
                                 + rng.normal(0, 0.01, (p + 1, p)), (28, 28))
                   for _ in range(3)]
        fused = FusionDenoiser(members, rng.normal(0, 0.2, (3, 3, 3)))
        step = plane_chunks(10 ** 6, 3 * p)[0].stop
        imgs = rng.random((2 * step + 1, 28, 28))
        assert [c.stop - c.start for c in plane_chunks(
            len(imgs), 3 * p)] == [step, step, 1]
        flat, _ = plane_samples(imgs)
        x = np.hstack([np.clip(flat, 0.0, 1.0), np.ones((len(flat), 1))])
        planes = np.stack([np.clip(m.layer.read(x), 0.0, 1.0)
                           for m in members], axis=1)
        patches = unfold_stack(planes.reshape(-1, 3, 28, 28), 3)
        want = fused.layer.read(patches.reshape(-1, 27))[:, 0]
        want = np.clip(want, 0.0, 1.0).reshape(imgs.shape)
        assert np.array_equal(fused.forward_stack(imgs), want)

    def test_forward_stack_memory_does_not_grow_with_the_stack(self, rng):
        # Peak traced allocation of a forward pass, less its output, is
        # one chunk's working set: the same for 3 and 12 outer chunks.
        p = 8 * 8
        members = [DenseDenoiser(np.vstack([np.eye(p), np.zeros((1, p))])
                                 + rng.normal(0, 0.01, (p + 1, p)), (8, 8))
                   for _ in range(8)]
        fused = FusionDenoiser(members, rng.normal(0, 0.1, (8, 3, 3)))
        n = 3 * plane_chunks(10 ** 6, 8 * p)[0].stop

        def growth(imgs):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = fused.forward_stack(imgs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - before - out.nbytes

        small = growth(rng.random((n, 8, 8)))
        large = growth(rng.random((4 * n, 8, 8)))
        assert large < 1.25 * small, (small, large)

    def test_shape_mismatch_rejected(self, rng):
        nets, _ = member_bank(rng)
        fused = FusionDenoiser(nets, fusion_init(3))
        with pytest.raises(ValueError):
            fused.forward_stack(rng.random((1, 6, 6)))

    def test_output_clamped(self, rng):
        nets, _ = member_bank(rng)
        kernel = np.full((3, 3, 3), 1.0)
        fused = FusionDenoiser(nets, kernel)
        out = fused.forward_stack(rng.random((1, 8, 8)))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestTraining:
    @pytest.mark.parametrize("batch,limit,device_in_loop", [
        (1, 8, False), (4, 8, False), (4, 10, False), (4, 10, True)],
        ids=["batch-1", "batch-4", "ragged-tail", "device-in-loop"])
    def test_minibatch_unfold_bits_equal_per_sample(
            self, rng, monkeypatch, batch, limit, device_in_loop):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.1,
                          epochs=2, batch=batch, seed=4, limit=limit,
                          device=DeviceModel(levels=16, variation_sigma=0.05),
                          device_in_loop=device_in_loop)
        kernel, rmse_log = per_sample_fusion_train(cfg, nets, ds)
        for _, fused in on_each_feed(
                monkeypatch, lambda: fusion_train(cfg, nets, ds)):
            assert np.array_equal(fused.kernel, kernel)
            assert fused.rmse_log == rmse_log

    # 3 x 784 member outputs per sample: a block is 2**19 // 2352 = 222
    # samples' worth of whole minibatches (3 of 72, 27 of 8).
    @pytest.mark.parametrize("batch,limit,device_in_loop", [
        (72, 300, False), (8, 17, False), (8, 40, True)],
        ids=["batch-72-two-blocks", "one-sample-tail", "device-in-loop"])
    def test_blocked_readouts_bits_equal_per_sample_at_28x28(
            self, rng, monkeypatch, batch, limit, device_in_loop):
        nets, ds = member_bank_28(rng, limit)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.05,
                          epochs=2, batch=batch, seed=4, limit=limit,
                          device=DeviceModel(levels=16, variation_sigma=0.05),
                          device_in_loop=device_in_loop)
        kernel, rmse_log = per_sample_fusion_train(cfg, nets, ds)
        for _, fused in on_each_feed(
                monkeypatch, lambda: fusion_train(cfg, nets, ds)):
            assert np.array_equal(fused.kernel, kernel)
            assert fused.rmse_log == rmse_log

    def test_members_read_once_per_block(self, rng, monkeypatch):
        # 300 samples in 38 minibatches of 8 (the last 4) make 2 blocks of
        # at most 27 minibatches per epoch: each member reads twice an
        # epoch, not 38 times. With more than one CPU, one child forked
        # per epoch reads all members but the last, which this process
        # reads; the two processes' reads may interleave.
        nets, ds = member_bank_28(rng, 300)
        reads = recorded_reads(monkeypatch, nets)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.05,
                          epochs=2, batch=8, seed=4, limit=300)
        for cpus, _ in on_each_feed(monkeypatch,
                                    lambda: fusion_train(cfg, nets, ds)):
            got = drained(reads)
            assert sorted(rows for _, rows, _ in got) == sorted(
                2 * (3 * [216] + 3 * [84]))
            for j in range(3):
                assert [rows for k, rows, _ in got if k == j] == 2 * [216, 84]
            for epoch in (got[:6], got[6:]):
                assert {pid for j, _, pid in epoch if j == 2} == {os.getpid()}
                readers = {pid for j, _, pid in epoch if j < 2}
                assert len(readers) == 1
                assert (os.getpid() in readers) == (cpus == 1)
        reads.close()

    def test_a_one_sample_tail_joins_its_block(self, rng, monkeypatch):
        # 17 samples in minibatches of 8, 8 and 1: each member reads one
        # 17-row block an epoch, the tail's row inside it.
        nets, ds = member_bank_28(rng, 17)
        reads = recorded_reads(monkeypatch, nets)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.05,
                          epochs=2, batch=8, seed=4, limit=17)
        for _ in on_each_feed(monkeypatch, lambda: fusion_train(cfg, nets, ds)):
            got = drained(reads)
            for j in range(3):
                assert [rows for k, rows, _ in got if k == j] == [17, 17]
        reads.close()

    def test_least_squares_oracle_on_synthetic_mix(self, rng):
        # With k=1 kernels the fusion layer is plain linear regression on
        # member outputs; the closed-form LS solution bounds what the
        # delta rule can reach, and enough epochs get close to it.
        nets, ds = member_bank(rng)
        spec_texts = [m.train_noise for m in nets]
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.2,
                          epochs=12, batch=4, seed=5, clean_fraction=0.5)
        fused = fusion_train(cfg, nets, ds, size=1)

        # assemble the same regression problem the trainer saw
        clean = ds.images.reshape(16, -1)
        rows_x, rows_y = [], []
        from memdenoise.noise import corrupt
        for epoch in (1,):
            for i in range(16):
                srng = np.random.default_rng([5, epoch, i])
                if srng.random() < 0.5:
                    x = clean[i]
                else:
                    spec = parse_spec(spec_texts[srng.integers(len(spec_texts))])
                    x = np.clip(corrupt(clean[i].reshape(8, 8), spec, srng),
                                0, 1).reshape(-1)
                planes = np.stack([m.forward_stack(x.reshape(1, 8, 8))[0]
                                   for m in nets])
                rows_x.append(planes.reshape(3, -1).T)
                rows_y.append(clean[i])
        X = np.concatenate(rows_x)
        y = np.concatenate(rows_y)
        w_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid_ls = float(np.mean((X @ w_ls - y) ** 2))
        resid_net = float(np.mean((X @ fused.kernel.reshape(3) - y) ** 2))
        assert resid_net <= resid_ls + 0.005

    def test_training_improves_over_zero_init(self, rng):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.1,
                          epochs=3, batch=4, seed=6, init="zero")
        fused = fusion_train(cfg, nets, ds)
        assert fused.rmse_log[-1] < fused.rmse_log[0]
        assert len(fused.rmse_log) == 3

    @pytest.mark.parametrize("lr", [1e30, 1e300])
    def test_runaway_first_epoch_diverges(self, rng, lr):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=lr,
                          epochs=1, batch=4, seed=6, init="zero")
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergence) as info:
            fusion_train(cfg, nets, ds)
        assert info.value.epoch == 1 and len(info.value.rmse_log) == 1

    def test_zero_epochs_returns_init_kernel(self, rng):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), epochs=0, seed=1,
                          init="identity")
        fused = fusion_train(cfg, nets, ds)
        np.testing.assert_array_equal(fused.kernel,
                                      fusion_init(3, 3, "identity"))
        assert fused.rmse_log == []

    @pytest.mark.parametrize("init", ["zero", "identity"])
    def test_zero_learning_rate_keeps_init_kernel(self, rng, init):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.0,
                          epochs=2, batch=4, seed=1, init=init)
        fused = fusion_train(cfg, nets, ds)
        assert same_bits(fused.kernel, fusion_init(3, 3, init))

    def test_same_seed_reproduces(self, rng):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.05,
                          epochs=2, batch=4, seed=9)
        a = fusion_train(cfg, nets, ds)
        b = fusion_train(cfg, nets, ds)
        np.testing.assert_array_equal(a.kernel, b.kernel)
        assert a.rmse_log == b.rmse_log


def raises(error):
    def fail(*args):
        raise error
    return fail


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


# Every way out of fusion_train: (learning rate, fault in the read-ahead
# child's readouts, fault in the steps, what fusion_train raises and its
# message).
WAYS_OUT = {
    "success": (0.05, None, None, None, None),
    "divergence": (1e300, None, None, TrainingDivergence, "^diverged"),
    "step-error": (0.05, None, raises(OSError("disk gone")), OSError,
                   "^disk gone$"),
    "interrupt": (0.05, None, raises(KeyboardInterrupt()), KeyboardInterrupt,
                  None),
    "child-error": (0.05, raises(ValueError("boom")), None, WorkerError,
                    "^the read-ahead process raised ValueError: boom$"),
    "child-killed": (0.05, killed, None, WorkerError,
                     "^a worker process died$"),
}


class TestReadAheadChild:
    @pytest.mark.parametrize("way", sorted(WAYS_OUT))
    def test_no_child_is_left_running(self, rng, monkeypatch, way):
        # 2 blocks an epoch of 4 MB each, more than a pipe holds: a child
        # the steps stop reading blocks writing its next block.
        lr, child_fault, step_fault, error, match = WAYS_OUT[way]
        monkeypatch.setattr(procs, "cpus", lambda: 2)
        nets, ds = member_bank_28(rng, 300)
        reads = recorded_reads(monkeypatch, nets, child_fault)
        if step_fault is not None:
            monkeypatch.setattr(fusion_module, "unfold_stack", step_fault)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=lr,
                          epochs=2, batch=8, seed=4, limit=300)
        with np.errstate(over="ignore", invalid="ignore"), (
                pytest.raises(error, match=match) if error
                else contextlib.nullcontext()):
            fusion_train(cfg, nets, ds)
        children = {pid for _, _, pid in drained(reads)} - {os.getpid()}
        reads.close()
        assert children
        # Each child was waited for: it is neither running nor a zombie.
        # (Checked first: active_children reaps the children that ended.)
        for pid in children:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert multiprocessing.active_children() == []

    def test_child_ends_when_the_trainer_is_killed(self):
        # The trainer prints its read-ahead child's pid and then never
        # reads a block, so the child waits writing its first 4 MB block.
        # Killed with SIGKILL, the trainer runs no cleanup; the child must
        # find the pipe without a reader and end by itself.
        src = os.path.dirname(os.path.dirname(procs.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        trainer = subprocess.Popen([sys.executable, "-c", STALLED_TRAINER],
                                   env=env, stdout=subprocess.PIPE, text=True)
        try:
            child = int(trainer.stdout.readline())
            assert running(child)
        finally:
            trainer.kill()
            trainer.wait()
            trainer.stdout.close()
        deadline = time.monotonic() + 30
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = running(child)
        if left:
            os.kill(child, signal.SIGKILL)
        assert not left


# Trains fusion over 28x28 members with two CPUs, prints the read-ahead
# child's pid once it is started, then sleeps instead of reading blocks.
STALLED_TRAINER = """
import time
import numpy as np
from memdenoise import procs
from memdenoise.imagecore import Dataset
from memdenoise.nets.common import TrainConfig
from memdenoise.nets.dense import DenseDenoiser
from memdenoise.nets.fusion import fusion_train
from memdenoise.noise import parse_spec

start = procs.ReadAhead.start

def stalled(self, *args):
    start(self, *args)
    print(self._child.pid, flush=True)
    time.sleep(600)

procs.cpus = lambda: 2
procs.ReadAhead.start = stalled
p = 28 * 28
nets = [DenseDenoiser(np.vstack([np.eye(p), np.zeros((1, p))]), (28, 28),
                      train_noise=text) for text in ("gaussian:0.05", "sp:0.1")]
images = np.random.default_rng(0).random((300, 28, 28))
fusion_train(TrainConfig(parse_spec("gaussian:0.05"), batch=8, seed=4),
             nets, Dataset(images, np.zeros(300, np.int64)))
"""


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        nets, ds = member_bank(rng)
        kernel = rng.normal(0, 0.1, (3, 3, 3))
        fused = FusionDenoiser(nets, kernel, rmse_log=[0.3, 0.2])
        path = tmp_path / "fusion.bin"
        fused.save(path)
        back = ckpt.load(path, FUSION)[1]
        np.testing.assert_array_equal(back.kernel, fused.kernel)
        assert [m.train_noise for m in back.members] == \
            ["gaussian:0.05", "sp:0.1", "speckle:1"]
        assert back.rmse_log == [0.3, 0.2]
        imgs = rng.random((2, 8, 8))
        np.testing.assert_array_equal(back.forward_stack(imgs),
                                      fused.forward_stack(imgs))

    def test_reserialization_is_byte_identical(self, rng, tmp_path):
        nets, _ = member_bank(rng)
        fused = FusionDenoiser(nets, fusion_init(3, kind="identity"),
                               device=DeviceModel(levels=16,
                                                  variation_sigma=0.05))
        fused.save(tmp_path / "a.bin")
        ckpt.load(tmp_path / "a.bin", FUSION)[1].save(tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == \
            (tmp_path / "b.bin").read_bytes()

    def test_programmed_state_survives(self, rng, tmp_path):
        # Variation draws and masks are state: the loaded net keeps them.
        nets, _ = member_bank(rng)
        nets[1] = nets[1].with_sparsity(0.1, 0.2, seed=4)
        fused = FusionDenoiser(nets, rng.normal(0, 0.2, (3, 3, 3)),
                               device=DeviceModel(variation_sigma=0.05),
                               program_seed=9)
        fused.save(tmp_path / "f.bin")
        back = ckpt.load(tmp_path / "f.bin", FUSION)[1]
        for got, want in zip([n.layer.tiled for n in (back, *back.members)],
                             [n.layer.tiled for n in (fused, *fused.members)]):
            for name, a in want.state().items():
                assert np.array_equal(getattr(got, name), a)
        imgs = rng.random((4, 8, 8))
        assert np.array_equal(back.forward_stack(imgs), fused.forward_stack(imgs))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTFUSED" + bytes(32))
        with pytest.raises(ValueError, match="not a recognized checkpoint"):
            ckpt.load(path, FUSION)[1]
