import pickle

import numpy as np
import pytest

from conftest import identity_dense, same_bits
from memdenoise import ckpt
from memdenoise.device import DeviceModel
from memdenoise.crossbar import TiledMatrix
from memdenoise.imagecore import (ImageShapeError, plane_chunks,
                                  plane_samples)
from memdenoise.nets.common import (MAX_GAIN, TrainConfig,
                                    TrainingDivergence, corrupt_plane,
                                    device_meta, fit, pow2_scale,
                                    training_planes)
from memdenoise.nets.dense import DenseDenoiser, dense_train
from memdenoise.noise import corrupt, parse_spec

# Checkpoint kinds ckpt.load accepts here
DENSE = {"dense": DenseDenoiser.from_state}


def tiny_dataset(rng, n=24, h=8, w=8):
    from memdenoise.imagecore import Dataset
    imgs = rng.random((n, h, w))
    return Dataset(imgs, np.zeros(n, dtype=np.int64))


class TestHelpers:
    def test_pow2_scale_values(self):
        assert pow2_scale(0.0) == 1.0
        assert pow2_scale(0.4686) == 0.5
        assert pow2_scale(0.5) == 0.5
        assert pow2_scale(0.6) == 1.0
        assert pow2_scale(1.0) == 1.0
        assert pow2_scale(1.3) == 2.0
        assert pow2_scale(MAX_GAIN) == MAX_GAIN == 2.0 ** 64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.7e308,
                                     2.0 ** 64 * (1 + 2 ** -52)])
    def test_pow2_scale_rejects_non_finite_and_huge(self, bad):
        with pytest.raises(ValueError, match="readout gain"):
            pow2_scale(bad)

    def test_divergence_pickles_whole(self):
        e = TrainingDivergence(3, 2.5, 1.0, [1.0, 1.5, 2.5],
                               member="dense sp:0.1")
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is TrainingDivergence
        assert (back.epoch, back.rmse, back.initial_rmse, back.rmse_log,
                back.member) == (3, 2.5, 1.0, [1.0, 1.5, 2.5], "dense sp:0.1")
        assert str(back) == str(e)
        assert str(e).startswith("dense sp:0.1 diverged at epoch 3: ")
        bare = TrainingDivergence(1, 2.0, 0.5, [2.0])
        bare = pickle.loads(pickle.dumps(bare))
        assert bare.member == ""
        assert str(bare).startswith("diverged at epoch 1")

    def test_plane_samples_grayscale(self, rng):
        imgs = rng.random((3, 4, 5))
        flat, shape = plane_samples(imgs)
        assert flat.shape == (3, 20) and shape == (4, 5)
        np.testing.assert_array_equal(flat[1], imgs[1].reshape(-1))

    def test_plane_samples_rgb_channels_become_planes(self, rng):
        imgs = rng.random((2, 4, 5, 3))
        flat, shape = plane_samples(imgs)
        assert flat.shape == (6, 20) and shape == (4, 5)
        np.testing.assert_array_equal(flat[0], imgs[0, :, :, 0].reshape(-1))
        np.testing.assert_array_equal(flat[1], imgs[0, :, :, 1].reshape(-1))

    @pytest.mark.parametrize("limit", [None, 1, 2, 3, 4, 7, 12, 13])
    @pytest.mark.parametrize("channels", [0, 1, 3])
    def test_training_planes_are_the_first_limit_planes(self, rng, limit,
                                                        channels):
        # channels 0: a gray (n, h, w) stack
        from memdenoise.imagecore import Dataset
        imgs = rng.random((4, 3, 5) + ((channels,) if channels else ()))
        data = Dataset(imgs, np.zeros(4, dtype=np.int64))
        cfg = TrainConfig(parse_spec("gaussian:0.1"), limit=limit)
        clean, shape = training_planes(data, cfg)
        assert shape == (3, 5)
        assert np.array_equal(clean, plane_samples(imgs)[0][:limit])

    @pytest.mark.parametrize("limit", [None, 1, 5, 12])
    @pytest.mark.parametrize("channels", [0, 3])
    def test_training_planes_of_pixels_are_their_floats(self, rng, limit,
                                                        channels):
        # A loaded split's uint8 pixels give the planes of its float64
        # reading, bit for bit.
        from memdenoise.imagecore import Dataset
        pixels = rng.integers(0, 256, (4, 3, 5) + ((channels,) if channels
                                                   else ()), dtype=np.uint8)
        cfg = TrainConfig(parse_spec("gaussian:0.1"), limit=limit)
        got = training_planes(Dataset(pixels, np.zeros(4, np.int64)), cfg)[0]
        floats = Dataset(pixels / 255.0, np.zeros(4, np.int64))
        assert np.array_equal(got, training_planes(floats, cfg)[0])

    def test_fit_judges_epoch_one_against_the_untrained_minibatch(self):
        # The first minibatch scores 1.0 a sample before its update and the
        # rest 3.0: epoch one's 2.8 exceeds twice the untrained 1.0.
        losses = iter([1.0] + [3.0] * 9)

        def step(epoch, eta, idx):
            return [next(losses) for _ in idx]

        cfg = TrainConfig(parse_spec("gaussian:0.1"), epochs=2, batch=1)
        with pytest.raises(TrainingDivergence) as info:
            fit(cfg, 10, step, [], lambda s: s / 10)
        assert info.value.epoch == 1
        assert info.value.initial_rmse == 1.0
        assert info.value.rmse == pytest.approx(2.8)

    def test_fit_judges_later_epochs_against_epoch_one(self):
        # Untrained 0.5 a sample (the first minibatch of 2, scaled to 10),
        # epoch one 0.9, epoch two 1.5: within twice epoch one's, though
        # above twice the untrained score.
        losses = iter([0.5] * 2 + [1.0] * 8 + [1.5] * 10)

        def step(epoch, eta, idx):
            return [next(losses) for _ in idx]

        cfg = TrainConfig(parse_spec("gaussian:0.1"), epochs=2, batch=2)
        log = fit(cfg, 10, step, [], lambda s: s / 10)
        assert log == pytest.approx([0.9, 1.5])

    def test_corrupt_plane_clamps_by_default(self):
        flat = np.zeros(64)
        spec = parse_spec("gaussian:0.5")
        out = corrupt_plane(flat, (8, 8), spec, [0, 0])
        assert out.min() >= 0.0 and out.max() <= 1.0
        raw = corrupt(flat.reshape(8, 8), spec, np.random.default_rng([0, 0]))
        assert raw.min() < 0.0
        np.testing.assert_array_equal(out, np.clip(raw, 0.0, 1.0).reshape(-1))

    def test_config_validation(self):
        spec = parse_spec("gaussian:0.1")
        with pytest.raises(ValueError):
            TrainConfig(spec, learning_rate=-1)
        with pytest.raises(ValueError):
            TrainConfig(spec, epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(spec, batch=0)
        with pytest.raises(ValueError):
            TrainConfig(spec, init="random")
        with pytest.raises(ValueError):
            TrainConfig(spec, clean_fraction=1.5)

    @pytest.mark.parametrize("field,value", [
        ("limit", 0), ("limit", -2), ("limit", 2.0), ("limit", "4"),
        ("epochs", "4"), ("epochs", 2.5), ("batch", None),
        ("learning_rate", "0.1"), ("learning_rate", np.nan), ("init", 0),
        ("clean_fraction", "0.5")])
    def test_wrong_values_name_their_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be .*got"):
            TrainConfig(parse_spec("gaussian:0.1"), **{field: value})

    def test_limit_accepts_none_and_positive_integers(self):
        for limit in (None, 1, np.int64(5)):
            assert TrainConfig(None, limit=limit).limit == limit


class TestDenseDenoiser:
    def test_identity_passes_images_through(self, rng):
        net = identity_dense(8, 8)
        imgs = rng.random((1, 8, 8))
        np.testing.assert_array_equal(net.forward_stack(imgs), imgs)

    def test_weight_shape_checked(self):
        with pytest.raises(ValueError):
            DenseDenoiser(np.zeros((64, 64)), (8, 8))

    @pytest.mark.parametrize("shape", [(3, 10, 10), (3, 8, 10, 3), (64,)])
    def test_image_shape_checked(self, shape):
        net = identity_dense(8, 8)
        with pytest.raises(ImageShapeError, match=r"\(8, 8\)"):
            net.forward_stack(np.zeros(shape))

    @staticmethod
    def from_state(weights, scale):
        """A 2 x 2 net loaded from checkpoint fields that store scale."""
        meta = {"shape": [2, 2], "scale": scale, "train_noise": "",
                **device_meta(identity_dense(2, 2))}
        blank = TiledMatrix(np.zeros((5, 4)), np.zeros((5, 4)))
        return DenseDenoiser.from_state(meta, {"weights": weights,
                                               **blank.state()})

    @pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1.0,
                                       2.0 ** 65, 1e308])
    def test_scale_must_be_finite_positive_gain(self, scale):
        # The gain of all-zero weights is 1.0: a stored scale is checked
        # against it, so no other value loads.
        with pytest.raises(ValueError, match="readout gain"):
            self.from_state(np.zeros((5, 4)), scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -1.5,
                                     2.0 ** 65])
    def test_weights_must_fit_the_gain(self, bad):
        weights = np.zeros((5, 4))
        weights[4, 3] = bad
        with pytest.raises(ValueError, match="readout gain"):
            self.from_state(weights, 1.0)
        fits = np.zeros((5, 4))
        fits[4, 3] = 1.0
        assert self.from_state(fits, 1.0).layer.gain == 1.0

    @pytest.mark.parametrize("top,gain", [(0.0, 1.0), (1.0, 1.0), (1.5, 2.0),
                                          (-1.5, 2.0), (-0.3, 0.5),
                                          (2.0 ** 64, 2.0 ** 64)])
    def test_gain_is_pow2_of_largest_weight(self, top, gain):
        weights = np.zeros((5, 4))
        weights[4, 3] = top
        weights[0, 0] = top / 4
        assert DenseDenoiser(weights, (2, 2)).layer.gain == gain

    def test_forward_shape_checked(self, rng):
        net = identity_dense(8, 8)
        with pytest.raises(ValueError):
            net.forward_stack(rng.random((1, 7, 8)))

    def test_crossbar_route_equals_float_route(self, rng):
        # ideal device + power-of-two gain: programmed readout must equal
        # the float matrix product bit for bit, of the 5-row batch with
        # the zero row the crossbar appends to an odd batch
        p = 36
        weights = rng.uniform(-1.2, 1.2, size=(p + 1, p))
        net = DenseDenoiser(weights, (6, 6))
        x = rng.random((5, p))
        ones = np.vstack([np.hstack([x, np.ones((5, 1))]), np.zeros(p + 1)])
        want = np.clip(ones @ weights, 0.0, 1.0)[:5]
        np.testing.assert_array_equal(
            net.forward_stack(x.reshape(5, 6, 6)).reshape(5, p), want)

    def test_forward_clips_input_and_output(self):
        p = 4
        weights = np.zeros((p + 1, p))
        weights[:p] = np.eye(p) * 1.0
        net = DenseDenoiser(weights, (2, 2))
        out = net.forward_stack(np.array([[[-1.0, 0.5], [2.0, 1.0]]]))
        np.testing.assert_array_equal(out, [[[0.0, 0.5], [1.0, 1.0]]])

    def test_forward_stack_matches_per_image(self, rng):
        net = identity_dense(6, 6)
        imgs = rng.random((4, 6, 6))
        out = net.forward_stack(imgs)
        for i in range(4):
            np.testing.assert_array_equal(out[i],
                                          net.forward_stack(imgs[i:i + 1])[0])

    @pytest.mark.parametrize("device", [DeviceModel(),
                                        DeviceModel(levels=16,
                                                    variation_sigma=0.05)],
                             ids=["ideal", "16-levels"])
    def test_chunked_readout_equals_whole_stack_readout(self, rng, device):
        # Chunks of 167, 167 and 1 planes: at 28x28 BLAS takes other
        # kernels for an odd or a 1-row product, which the readout's row
        # rule must hide.
        p = 28 * 28
        weights = np.vstack([np.eye(p), np.zeros((1, p))])
        net = DenseDenoiser(weights + rng.normal(0, 0.01, weights.shape),
                            (28, 28), device=device, program_seed=2)
        step = plane_chunks(10 ** 6, 4 * p)[0].stop
        imgs = rng.random((2 * step + 1, 28, 28))
        assert [c.stop - c.start for c in plane_chunks(
            len(imgs), 4 * p)] == [step, step, 1]
        flat, _ = plane_samples(imgs)
        x = np.hstack([np.clip(flat, 0.0, 1.0), np.ones((len(flat), 1))])
        want = np.clip(net.layer.read(x), 0.0, 1.0).reshape(imgs.shape)
        assert np.array_equal(net.forward_stack(imgs), want)

    def test_rgb_planes_share_weights(self, rng):
        net = identity_dense(6, 6)
        imgs = rng.random((1, 6, 6, 3))
        out = net.forward_stack(imgs)
        for c in range(3):
            np.testing.assert_array_equal(out[..., c],
                                          net.forward_stack(imgs[..., c]))

    def test_reprogram_changes_device_not_weights(self, rng):
        net = identity_dense(6, 6)
        coarse = net.reprogram(DeviceModel(levels=16))
        assert coarse.device.levels == 16
        np.testing.assert_array_equal(coarse.layer.weights, net.layer.weights)

    def test_with_sparsity_masks_apply(self, rng):
        net = identity_dense(6, 6)
        masked = net.with_sparsity(0.25, 0.0, seed=3)
        assert masked.layer.tiled.input_dropout_mask.sum() == round(0.25 * 37)
        dropped = masked.layer.tiled.input_dropout_mask[:36]
        imgs = np.full((1, 6, 6), 0.8)
        out = masked.forward_stack(imgs).reshape(-1)
        np.testing.assert_array_equal(out[dropped], 0.0)
        np.testing.assert_array_equal(out[~dropped], 0.8)


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.1"), learning_rate=0.05,
                          epochs=2, batch=4, seed=3)
        net = dense_train(cfg, ds)
        net.save(tmp_path / "a.bin")
        back = ckpt.load(tmp_path / "a.bin", DENSE)[1]
        np.testing.assert_array_equal(back.layer.weights, net.layer.weights)
        assert back.layer.gain == net.layer.gain
        assert back.train_noise == net.train_noise
        assert back.rmse_log == net.rmse_log
        back.save(tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == \
            (tmp_path / "b.bin").read_bytes()

    def test_round_trip_preserves_outputs(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        cfg = TrainConfig(parse_spec("sp:0.25"), epochs=1, batch=4, seed=5)
        net = dense_train(cfg, ds).reprogram(
            DeviceModel(levels=16, variation_sigma=0.05), seed=2
        ).with_sparsity(0.1, 0.2, seed=3)
        net.save(tmp_path / "net.bin")
        back = ckpt.load(tmp_path / "net.bin", DENSE)[1]
        for name, a in net.layer.tiled.state().items():
            assert np.array_equal(getattr(back.layer.tiled, name), a)
        assert back.device == net.device
        imgs = rng.random((2, 8, 8))
        np.testing.assert_array_equal(back.forward_stack(imgs),
                                      net.forward_stack(imgs))

    def test_file_round_trip(self, rng, tmp_path):
        net = identity_dense(6, 6)
        net.save(tmp_path / "net.bin")
        back = ckpt.load(tmp_path / "net.bin", DENSE)[1]
        np.testing.assert_array_equal(back.layer.weights, net.layer.weights)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTADNSE" + bytes(64))
        with pytest.raises(ValueError, match="x.bin"):
            ckpt.load(path, DENSE)[1]

    def test_mismatched_crossbar_rejected(self):
        net = identity_dense(4, 4)
        with pytest.raises(ValueError, match="crossbar"):
            DenseDenoiser(np.zeros((10, 9)), (3, 3), tiled=net.layer.tiled)


class TestTraining:
    def test_single_update_matches_hand_delta_rule(self, rng):
        # one sample, one epoch, batch 1: W <- W + eta * x (c - x W)^T
        from memdenoise.imagecore import Dataset
        imgs = rng.random((1, 8, 8))
        ds = Dataset(imgs, np.zeros(1, dtype=np.int64))
        spec = parse_spec("gaussian:0.1")
        cfg = TrainConfig(spec, learning_rate=0.05, epochs=1, batch=1, seed=9)
        net = dense_train(cfg, ds)

        clean = imgs.reshape(1, 64)
        noisy = corrupt_plane(clean[0], (8, 8), spec, [9, 1, 0])
        x = np.concatenate([noisy, [1.0]])[None, :]
        w0 = np.zeros((65, 64))
        err = clean - x @ w0
        want = w0 + 0.05 * (x.T @ err)
        np.testing.assert_allclose(net.layer.weights, want, atol=1e-12)

    def test_batch_update_is_mean_over_batch(self, rng):
        from memdenoise.imagecore import Dataset
        imgs = rng.random((4, 8, 8))
        ds = Dataset(imgs, np.zeros(4, dtype=np.int64))
        spec = parse_spec("gaussian:0.05")
        cfg = TrainConfig(spec, learning_rate=0.04, epochs=1, batch=4, seed=2)
        net = dense_train(cfg, ds)

        clean = imgs.reshape(4, 64)
        perm = np.random.default_rng([2, 0x5F]).permutation(4)
        noisy = np.stack([corrupt_plane(clean[i], (8, 8), spec, [2, 1, int(i)])
                          for i in perm])
        x = np.hstack([noisy, np.ones((4, 1))])
        err = clean[perm] - x @ np.zeros((65, 64))
        want = (0.04 / 4) * (x.T @ err)
        np.testing.assert_allclose(net.layer.weights, want, atol=1e-12)

    def test_identity_init_starts_from_passthrough(self, rng):
        ds = tiny_dataset(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.01"), learning_rate=0.0,
                          epochs=1, batch=4, init="identity")
        net = dense_train(cfg, ds)
        np.testing.assert_array_equal(net.layer.weights[:64], np.eye(64))

    @pytest.mark.parametrize("device_in_loop", [False, True])
    @pytest.mark.parametrize("init", ["zero", "identity"])
    def test_zero_learning_rate_keeps_init_weights(self, rng, init,
                                                   device_in_loop):
        # 16 levels hold 0 and 1, so reprogramming each epoch keeps either
        # init too, up to the sign of a zero: the grid reads 0 back as -0.0.
        ds = tiny_dataset(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.1"), learning_rate=0.0,
                          epochs=2, batch=4, seed=1, init=init,
                          device=DeviceModel(levels=16),
                          device_in_loop=device_in_loop)
        want = np.zeros((65, 64))
        if init == "identity":
            want[:64] = np.eye(64)
        got = dense_train(cfg, ds).layer.weights
        assert np.array_equal(got, want)
        assert device_in_loop or same_bits(got, want)

    def test_rmse_log_one_entry_per_epoch(self, rng):
        ds = tiny_dataset(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.1"), epochs=3, batch=8, seed=1)
        net = dense_train(cfg, ds)
        assert len(net.rmse_log) == 3
        assert all(v > 0 for v in net.rmse_log)

    def test_loss_decreases_on_easy_noise(self, rng):
        ds = tiny_dataset(rng, n=48)
        cfg = TrainConfig(parse_spec("gaussian:0.01"), learning_rate=0.02,
                          epochs=4, batch=8, seed=7)
        net = dense_train(cfg, ds)
        assert net.rmse_log[-1] < net.rmse_log[0]

    def test_divergence_raises_with_log(self, rng):
        ds = tiny_dataset(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.1"), learning_rate=500.0,
                          epochs=4, batch=4, seed=1)
        with pytest.raises(TrainingDivergence) as info:
            dense_train(cfg, ds)
        assert info.value.rmse > 2.0 * info.value.initial_rmse
        assert len(info.value.rmse_log) == info.value.epoch

    @pytest.mark.parametrize("lr", [1e10, 1e300])
    @pytest.mark.parametrize("device_in_loop", [False, True])
    def test_runaway_first_epoch_diverges(self, rng, lr, device_in_loop):
        # One epoch at an absurd rate: weights beyond any readout gain
        # (1e10) or a NaN RMSE (1e300) diverge instead of yielding a net.
        ds = tiny_dataset(rng)
        cfg = TrainConfig(parse_spec("gaussian:0.1"), learning_rate=lr,
                          epochs=1, batch=4, seed=1,
                          device=DeviceModel(levels=16),
                          device_in_loop=device_in_loop)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergence) as info:
            dense_train(cfg, ds)
        assert info.value.epoch == 1 and len(info.value.rmse_log) == 1

    def test_limit_restricts_training_set(self, rng):
        ds = tiny_dataset(rng, n=24)
        spec = parse_spec("gaussian:0.1")
        a = dense_train(TrainConfig(spec, epochs=1, batch=4, seed=3, limit=8), ds)
        b = dense_train(TrainConfig(spec, epochs=1, batch=4, seed=3, limit=8),
                        ds.subset(8))
        np.testing.assert_array_equal(a.layer.weights, b.layer.weights)

    def test_same_seed_reproduces_training(self, rng):
        ds = tiny_dataset(rng)
        spec = parse_spec("sp:0.1")
        cfg = TrainConfig(spec, epochs=2, batch=4, seed=11)
        a = dense_train(cfg, ds)
        b = dense_train(cfg, ds)
        np.testing.assert_array_equal(a.layer.weights, b.layer.weights)
        assert a.rmse_log == b.rmse_log

    def test_train_noise_recorded_as_text(self, rng):
        ds = tiny_dataset(rng)
        net = dense_train(TrainConfig(parse_spec("poisson"), epochs=1, batch=4), ds)
        assert net.train_noise == "poisson:2.5"

    def test_device_in_loop_quantizes_each_epoch(self, rng):
        ds = tiny_dataset(rng)
        dev = DeviceModel(levels=16)
        cfg = TrainConfig(parse_spec("gaussian:0.1"), epochs=2, batch=4,
                          seed=4, device=dev, device_in_loop=True)
        net = dense_train(cfg, ds)
        # weights passed through the 16-level grid at the last epoch end
        w, gain = net.layer.weights, net.layer.gain
        grid = np.round(w / gain * 15) / 15 * gain
        np.testing.assert_allclose(w, grid, atol=1e-12)


def allocating_dense_train(cfg, data):
    """(weights, rmse_log) of the delta rule as a plain loop of its own.

    The oracle for dense_train: it draws its own shuffle, steps its own
    epochs and learning-rate decay, and builds each step's input with
    np.hstack, without fit or training_planes.
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
    for epoch in range(1, cfg.epochs + 1):
        eta = cfg.learning_rate / np.sqrt(epoch)
        perm = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, cfg.batch):
            idx = perm[start:start + cfg.batch]
            noisy = np.stack([
                corrupt_plane(clean[i], shape, cfg.train_noise,
                              [cfg.seed, epoch, int(i)]) for i in idx])
            x = np.hstack([noisy, np.ones((len(idx), 1))])
            err = clean[idx] - x @ weights
            sq_sum += float(np.sum(err * err))
            if eta != 0.0:
                weights += (eta / len(idx)) * (x.T @ err)
        rmse_log.append(float(np.sqrt(sq_sum / (n * p))))
    return weights, rmse_log


class TestBufferedDeltaRule:
    """dense_train's trained bits equal allocating_dense_train's."""

    @pytest.mark.parametrize("n, batch, lr, init", [
        (37, 8, 0.02, "zero"),       # tail batch of 5
        (37, 64, 0.02, "zero"),      # batch > n: one short batch per epoch
        (13, 1, 0.01, "identity"),   # plain online rule, 1-row products
        (24, 4, 0.0, "identity"),    # lr 0: no update, rmse only
        (30, 7, 0.05, "zero"),
    ])
    @pytest.mark.parametrize("noise", ["gaussian:0.1", "sp:0.25"])
    def test_bits_equal_allocating_loop(self, n, batch, lr, init, noise):
        data = tiny_dataset(np.random.default_rng(n), n=n, h=7, w=9)
        cfg = TrainConfig(parse_spec(noise), learning_rate=lr, epochs=3,
                          batch=batch, seed=5, init=init)
        net = dense_train(cfg, data)
        weights, rmse_log = allocating_dense_train(cfg, data)
        assert net.rmse_log == rmse_log
        assert net.layer.weights.tobytes() == weights.tobytes()

    def test_bits_equal_allocating_loop_at_mnist_size(self):
        data = tiny_dataset(np.random.default_rng(9), n=70, h=28, w=28)
        cfg = TrainConfig(parse_spec("poisson"), learning_rate=0.01,
                          epochs=2, batch=64, seed=2, limit=69)
        net = dense_train(cfg, data)
        weights, rmse_log = allocating_dense_train(cfg, data)
        assert net.rmse_log == rmse_log
        assert net.layer.weights.tobytes() == weights.tobytes()
