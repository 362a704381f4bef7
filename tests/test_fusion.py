import numpy as np
import pytest

from memdenoise import ckpt, crossbar
from memdenoise.device import DeviceModel
from memdenoise.imagecore import Dataset
from memdenoise.nets.cnn import conv_same, unfold_stack
from memdenoise.nets.common import (TrainConfig, TrainingDivergence,
                                    chunk_planes, plane_samples,
                                    pow2_scale)
from memdenoise.nets.dense import DenseDenoiser, dense_train
from memdenoise.nets.fusion import FusionDenoiser, fusion_init, fusion_train
from memdenoise.noise import corrupt, parse_spec


def direct_route(fused, img):
    """Float reference path: explicit sliding-window fusion."""
    planes = [m.forward_stack(img[None])[0] for m in fused.members]
    y = sum(conv_same(plane, k) for plane, k in zip(planes, fused.kernel))
    return np.clip(y, 0.0, 1.0)


def member_bank(rng, h=8, w=8, count=3):
    """Small trained members over distinct corruptions."""
    imgs = rng.random((16, h, w))
    ds = Dataset(imgs, np.zeros(16, dtype=np.int64), "train")
    texts = ("gaussian:0.05", "sp:0.1", "speckle:1")[:count]
    nets = []
    for text in texts:
        cfg = TrainConfig(parse_spec(text), learning_rate=0.05, epochs=1,
                          batch=4, seed=3)
        nets.append(dense_train(cfg, ds))
    return nets, ds


def per_sample_fusion_train(cfg, members, data, size=3):
    """Reference trainer: one patch matrix and update term per sample.

    Member readouts stay one per minibatch, as in the trainer: a 1-row
    readout takes another BLAS path than a multi-row one, so only the
    minibatch grouping fixes the member outputs' bits.
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
            planes_all = np.stack([m.forward_flat(inputs) for m in members],
                                  axis=1)
            grad = np.zeros_like(kflat)
            for row, i in enumerate(idx):
                patches = unfold_stack(
                    planes_all[row].reshape(len(members), *shape), size)
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
        odd = DenseDenoiser.identity(6, 6)
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
        # row-independent readout; the members' 1-row readouts take
        # another BLAS path, so a lone image may differ in the last ulp
        nets, _ = member_bank(rng)
        kernel = rng.normal(0, 0.1, (3, 3, 3))
        fused = FusionDenoiser(nets, kernel)
        imgs = rng.random((5, 8, 8))
        out = fused.forward_stack(imgs)
        for i in range(5):
            np.testing.assert_allclose(
                out[i], fused.forward_stack(imgs[i:i + 1])[0], atol=1e-12)

    def test_forward_stack_rgb(self, rng):
        nets, _ = member_bank(rng)
        fused = FusionDenoiser(nets, fusion_init(3, kind="identity"))
        imgs = rng.random((2, 8, 8, 3))
        out = fused.forward_stack(imgs)
        assert out.shape == (2, 8, 8, 3)
        np.testing.assert_allclose(out[0], fused.forward_stack(imgs[:1])[0],
                                   atol=1e-12)

    def test_forward_stack_bits_equal_per_plane_unfold(self, rng):
        # 4500 planes of 8x8 (64 x 27 patches) span 15 inference chunks;
        # each chunk's one unfold must equal the per-plane patch matrices
        # stacked up.
        nets, _ = member_bank(rng)
        fused = FusionDenoiser(nets, rng.normal(0, 0.2, (3, 3, 3)))
        imgs = rng.random((1500, 8, 8, 3))
        flat, _ = plane_samples(imgs)
        member_out = np.stack([m.forward_flat(flat) for m in nets], axis=1)
        want = []
        step = chunk_planes(64 * 27)
        for lo in range(0, len(flat), step):
            patches = np.concatenate(
                [unfold_stack(planes.reshape(3, 8, 8), 3)
                 for planes in member_out[lo:lo + step]])
            want.append(crossbar.matmul(fused.layer.tiled, patches)[:, 0])
        want = np.clip(np.concatenate(want) * fused.layer.gain, 0.0, 1.0)
        want = want.reshape(1500, 3, 8, 8).transpose(0, 2, 3, 1)
        assert np.array_equal(fused.forward_stack(imgs), want)

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
    def test_minibatch_unfold_bits_equal_per_sample(self, rng, batch, limit,
                                                    device_in_loop):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.1,
                          epochs=2, batch=batch, seed=4, limit=limit,
                          device=DeviceModel(levels=16, variation_sigma=0.05),
                          device_in_loop=device_in_loop)
        fused = fusion_train(cfg, nets, ds)
        kernel, rmse_log = per_sample_fusion_train(cfg, nets, ds)
        assert np.array_equal(fused.kernel, kernel)
        assert fused.rmse_log == rmse_log

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
                planes = np.stack([m.forward_flat(x[None])[0] for m in nets])
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

    def test_noise_mix_defaults_to_member_settings(self, rng):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.05,
                          epochs=1, batch=4, seed=2)
        a = fusion_train(cfg, nets, ds)
        b = fusion_train(cfg, nets, ds, noises=[m.train_noise for m in nets])
        np.testing.assert_array_equal(a.kernel, b.kernel)

    def test_accepts_spec_objects(self, rng):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.05,
                          epochs=1, batch=4, seed=2)
        a = fusion_train(cfg, nets, ds,
                         noises=[parse_spec(m.train_noise) for m in nets])
        b = fusion_train(cfg, nets, ds, noises=[m.train_noise for m in nets])
        np.testing.assert_array_equal(a.kernel, b.kernel)

    def test_same_seed_reproduces(self, rng):
        nets, ds = member_bank(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.05"), learning_rate=0.05,
                          epochs=2, batch=4, seed=9)
        a = fusion_train(cfg, nets, ds)
        b = fusion_train(cfg, nets, ds)
        np.testing.assert_array_equal(a.kernel, b.kernel)
        assert a.rmse_log == b.rmse_log


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        nets, ds = member_bank(rng)
        kernel = rng.normal(0, 0.1, (3, 3, 3))
        fused = FusionDenoiser(nets, kernel, rmse_log=[0.3, 0.2])
        path = tmp_path / "fusion.bin"
        fused.save(path)
        back = FusionDenoiser.load(path)
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
        FusionDenoiser.load(tmp_path / "a.bin").save(tmp_path / "b.bin")
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
        back = FusionDenoiser.load(tmp_path / "f.bin")
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
            FusionDenoiser.load(path)
