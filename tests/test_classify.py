"""Classification harness tests on a small synthetic task.

The task is linearly separable (class k lights pixel k of a 4x4 plane
over a dim random background), so the classifier's learning machinery
can be checked in milliseconds without the real dataset.
"""

import numpy as np
import pytest

from conftest import identity_dense, same_bits
from memdenoise import ckpt, classify, crossbar
from memdenoise.classify import (
    ACCURACY_CSV_HEADER,
    HIDDEN,
    AccuracyReport,
    Classifier,
    _softmax,
    evaluate,
    train_classifier,
)
from memdenoise.imagecore import Dataset, ImageShapeError
from memdenoise.nets.common import TrainConfig, TrainingDivergence
from memdenoise.noise import NoiseSpec


def toy_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % 10).astype(np.int64)
    flat = rng.uniform(0.0, 0.08, (n, 16))
    flat[np.arange(n), labels] = 1.0
    return Dataset(images=flat.reshape(n, 4, 4), labels=labels)


def toy_config(**overrides):
    base = dict(train_noise=None, learning_rate=0.5, epochs=8, batch=16, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


def allocating_classifier_train(data, cfg):
    """(w1, b1, w2, b2, loss_log) of the classifier's minibatch SGD loop,
    written out in full: the reference train_classifier must equal."""
    images = np.asarray(data.images, dtype=np.float64)
    flat, labels = images.reshape(len(images), -1), np.asarray(data.labels)
    if cfg.limit is not None:
        flat, labels = flat[:cfg.limit], labels[:cfg.limit]
    n = len(flat)
    clf = Classifier.initial(images.shape[1:], seed=cfg.seed)
    w1, b1, w2, b2 = (a.copy() for a in (clf.w1, clf.b1, clf.w2, clf.b2))
    onehot = np.eye(10)[labels]
    rng = np.random.default_rng([cfg.seed, 0x5F])
    loss_log = []
    for epoch in range(1, cfg.epochs + 1):
        eta = cfg.learning_rate / np.sqrt(epoch)
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch):
            idx = perm[start:start + cfg.batch]
            x, y = flat[idx], onehot[idx]
            pre = x @ w1 + b1
            hid = np.maximum(0.0, pre)
            prob = _softmax(hid @ w2 + b2)
            picked = prob[np.arange(len(idx)), labels[idx]]
            loss_sum += float(-np.sum(np.log(np.maximum(picked, 1e-300))))
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
    return w1, b1, w2, b2, loss_log


class IdentityDenoiser:
    def forward_stack(self, images):
        return np.asarray(images, dtype=np.float64)


class RecordingDenoiser:
    def __init__(self):
        self.seen = None

    def forward_stack(self, images):
        self.seen = np.array(images)
        return self.seen


class TestAccuracyReport:
    def test_csv_row(self):
        report = AccuracyReport("gaussian:0.5", "noisy", 0.8123, 1000)
        assert report.csv_row() == "gaussian:0.5,noisy,0.8123,1000"
        assert ACCURACY_CSV_HEADER == "noise,condition,accuracy,n"

    def test_json_payload(self):
        report = AccuracyReport("", "clean", 1.0, 10)
        assert report.to_json() == {"noise": "", "condition": "clean",
                                    "accuracy": 1.0, "n": 10}

    @pytest.mark.parametrize("accuracy", [-0.01, 1.01])
    def test_rejects_out_of_range_accuracy(self, accuracy):
        with pytest.raises(ValueError, match="accuracy"):
            AccuracyReport("", "clean", accuracy, 10)

    def test_endpoints_allowed(self):
        assert AccuracyReport("", "clean", 0.0, 1).accuracy == 0.0
        assert AccuracyReport("", "clean", 1.0, 1).accuracy == 1.0


class TestUntrainedClassifier:
    def test_zero_output_layer_predicts_class_zero(self):
        clf = Classifier.initial((4, 4), seed=5)
        data = toy_data(n=60)
        assert np.all(clf.predict(data.images) == 0)

    def test_untrained_accuracy_is_class_zero_fraction(self):
        clf = Classifier.initial((4, 4), seed=5)
        data = toy_data(n=60)
        expected = float(np.mean(data.labels == 0))
        assert clf.accuracy(data.images, data.labels) == expected

    def test_hidden_width_respected(self):
        clf = Classifier.initial((4, 4))
        assert clf.w1.shape == (16, HIDDEN)
        assert clf.w2.shape == (HIDDEN, 10)

    def test_image_shape_checked(self):
        clf = Classifier.initial((4, 4))
        with pytest.raises(ImageShapeError, match=r"\(4, 4\)"):
            clf.predict(np.zeros((2, 5, 5)))

    def test_weights_are_read_only(self):
        clf = Classifier.initial((4, 4))
        with pytest.raises(ValueError):
            clf.w1[0, 0] = 1.0


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = np.random.default_rng(0).normal(size=(5, 10))
        np.testing.assert_allclose(_softmax(z).sum(axis=1), 1.0, atol=1e-12)

    def test_large_logits_do_not_overflow(self):
        prob = _softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.all(np.isfinite(prob))
        assert prob[0, 0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        z = np.random.default_rng(1).normal(size=(4, 10))
        np.testing.assert_allclose(_softmax(z), _softmax(z + 123.0), atol=1e-12)


class TestTraining:
    def test_separable_task_learned(self):
        clf = train_classifier(toy_data(), toy_config())
        held_out = toy_data(n=200, seed=11)
        assert clf.accuracy(held_out.images, held_out.labels) >= 0.95
        assert clf.loss_log[-1] < clf.loss_log[0]
        assert len(clf.loss_log) == 8

    @pytest.mark.parametrize("n,batch,limit", [
        (40, 1, None), (400, 7, None), (400, 16, 45)],
        ids=["batch-1", "ragged-tail", "limit"])
    def test_bits_equal_reference_loop(self, n, batch, limit):
        data = toy_data(n=n)
        cfg = toy_config(epochs=3, batch=batch, limit=limit)
        clf = train_classifier(data, cfg)
        *layers, loss_log = allocating_classifier_train(data, cfg)
        for got, want in zip((clf.w1, clf.b1, clf.w2, clf.b2), layers):
            assert got.tobytes() == want.tobytes()
        assert clf.loss_log == loss_log

    def test_permuted_labels_stay_near_chance(self):
        data = toy_data()
        rng = np.random.default_rng(9)
        shuffled = Dataset(images=data.images,
                           labels=rng.permutation(data.labels))
        clf = train_classifier(shuffled, toy_config(epochs=3))
        probe = toy_data(n=200, seed=5)
        assert clf.accuracy(probe.images, probe.labels) < 0.3

    def test_training_is_deterministic(self):
        a = train_classifier(toy_data(), toy_config())
        b = train_classifier(toy_data(), toy_config())
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)
        np.testing.assert_array_equal(a.b1, b.b1)
        np.testing.assert_array_equal(a.b2, b.b2)
        assert a.loss_log == b.loss_log

    def test_seed_changes_weights(self):
        a = train_classifier(toy_data(), toy_config(seed=3))
        b = train_classifier(toy_data(), toy_config(seed=4))
        assert not np.array_equal(a.w1, b.w1)

    def test_zero_epochs_returns_initial_weights(self):
        clf = train_classifier(toy_data(), toy_config(epochs=0))
        init = Classifier.initial((4, 4), seed=3)
        np.testing.assert_array_equal(clf.w1, init.w1)
        np.testing.assert_array_equal(clf.w2, np.zeros((HIDDEN, 10)))
        assert clf.loss_log == []

    def test_zero_learning_rate_keeps_initial_weights(self):
        clf = train_classifier(toy_data(), toy_config(learning_rate=0.0,
                                                      epochs=2))
        init = Classifier.initial((4, 4), seed=3)
        for name in ("w1", "b1", "w2", "b2"):
            assert same_bits(getattr(clf, name), getattr(init, name))

    def test_limit_truncates_training_set(self):
        limited = train_classifier(toy_data(), toy_config(limit=50))
        subset = Dataset(images=toy_data().images[:50],
                         labels=toy_data().labels[:50])
        full_on_subset = train_classifier(subset, toy_config())
        np.testing.assert_array_equal(limited.w1, full_on_subset.w1)

    def test_rgb_images_are_read_whole(self):
        # One sample per image: the input layer takes all 4*4*3 pixels,
        # and one label per image comes back.
        rng = np.random.default_rng(2)
        images = rng.uniform(0.0, 1.0, (20, 4, 4, 3))
        labels = (np.arange(20) % 10).astype(np.int64)
        data = Dataset(images=images, labels=labels)
        clf = train_classifier(data, toy_config(epochs=1))
        assert clf.shape == (4, 4, 3) and clf.w1.shape == (48, HIDDEN)
        assert np.isfinite(clf.loss_log[0])
        assert clf.predict(images).shape == (20,)
        (noisy,) = evaluate(clf, data, noise=NoiseSpec("gaussian", 0.1))
        assert noisy.n == 20
        with pytest.raises(ImageShapeError, match=r"\(4, 4, 3\)"):
            clf.predict(images[..., 0])
        # Raw pixels would be classified as intensities 0..255.
        with pytest.raises(TypeError, match="Dataset.floats"):
            clf.predict((images * 255).astype(np.uint8))

    @pytest.mark.parametrize("shape", [(200, 4, 4), (60, 4, 4, 3)])
    def test_pixels_train_like_their_floats(self, shape):
        # Each minibatch of a loaded split's uint8 pixels is converted as
        # it is read; the trained bits equal training on the float64
        # reading of the whole split.
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        labels = (np.arange(shape[0]) % 10).astype(np.int64)
        cfg = toy_config(epochs=2, limit=150)
        got = train_classifier(Dataset(pixels, labels), cfg)
        want = train_classifier(Dataset(pixels / 255.0, labels), cfg)
        for a, b in zip((got.w1, got.b1, got.w2, got.b2),
                        (want.w1, want.b1, want.w2, want.b2)):
            assert np.array_equal(a, b)
        assert got.loss_log == want.loss_log

    def test_first_epoch_blowup_diverges(self):
        # A learning rate that explodes inside epoch one is judged against
        # the untrained loss of the first minibatch (about ln 10 here), so
        # the run stops at epoch one instead of logging the blow-up.
        with pytest.raises(TrainingDivergence) as info:
            train_classifier(toy_data(), toy_config(learning_rate=1e4,
                                                    epochs=3))
        assert info.value.epoch == 1 and info.value.rmse > 100.0
        assert info.value.initial_rmse == pytest.approx(np.log(10), rel=0.01)

    @pytest.mark.parametrize("lr", [1e20, 1e100])
    def test_runaway_weights_raise_divergence(self, lr):
        # One class only: the first step saturates every prediction, so
        # the logged losses stay finite and under twice their references
        # (0 after the first minibatch), but the layers grow past the
        # largest gain.
        rng = np.random.default_rng(0)
        data = Dataset(images=rng.random((256, 8, 8)),
                       labels=np.zeros(256, np.int64))
        cfg = TrainConfig(train_noise=None, learning_rate=lr, epochs=5,
                          batch=64, seed=0)
        with pytest.raises(TrainingDivergence) as info:
            train_classifier(data, cfg)
        assert info.value.epoch == 5
        assert all(np.isfinite(loss) for loss in info.value.rmse_log)


def load_classifier(path):
    return ckpt.load(path, {"classifier": Classifier.from_state})[1]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        clf = train_classifier(toy_data(), toy_config(epochs=2))
        path = tmp_path / "clf.bin"
        clf.save(path)
        loaded = load_classifier(path)
        np.testing.assert_array_equal(loaded.w1, clf.w1)
        np.testing.assert_array_equal(loaded.b1, clf.b1)
        np.testing.assert_array_equal(loaded.w2, clf.w2)
        np.testing.assert_array_equal(loaded.b2, clf.b2)
        assert loaded.shape == clf.shape
        assert loaded.loss_log == clf.loss_log

    def test_loaded_model_predicts_identically(self, tmp_path):
        clf = train_classifier(toy_data(), toy_config(epochs=2))
        path = tmp_path / "clf.bin"
        clf.save(path)
        probe = toy_data(n=50, seed=7)
        np.testing.assert_array_equal(load_classifier(path).predict(probe.images),
                                      clf.predict(probe.images))

    def test_layers_that_do_not_fit_name_the_four_shapes(self):
        with pytest.raises(ValueError) as info:
            Classifier(np.zeros((16, 5)), np.zeros(5), np.zeros((5, 9)),
                       np.zeros(10), (4, 4))
        assert str(info.value) == ("layers (16, 5), (5,), (5, 9), (10,) "
                                   "do not fit (4, 4) images")

    def test_bad_magic_names_the_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="junk.bin"):
            load_classifier(path)


@pytest.fixture(scope="module")
def trained():
    return train_classifier(toy_data(), toy_config())


class TestEvaluate:
    def test_clean_condition(self, trained):
        data = toy_data(n=100, seed=11)
        (report,) = evaluate(trained, data)
        assert report.condition == "clean"
        assert report.noise == ""
        assert report.n == 100
        assert report.accuracy == trained.accuracy(data.images, data.labels)

    def test_noisy_condition_labels_the_spec(self, trained):
        data = toy_data(n=100, seed=11)
        (report,) = evaluate(trained, data, NoiseSpec("gaussian", 0.5), 4)
        assert report.condition == "noisy"
        assert report.noise == "gaussian:0.5"

    def test_corruption_clamped_before_pipeline(self, trained, monkeypatch):
        # evaluate hands the corruption on as the noise emits it, and each
        # analog stage clamps its own input to the [0, 1] window: neither
        # a denoiser's crossbar nor the classifier sees a value outside.
        data = toy_data(n=50, seed=11)
        noise = NoiseSpec("gaussian", 0.5)
        recorder = RecordingDenoiser()
        evaluate(trained, data, noise, 4, recorder)
        assert recorder.seen.min() < 0.0 and recorder.seen.max() > 1.0
        seen = []
        read, logits = crossbar.matmul, trained.logits
        monkeypatch.setattr(crossbar, "matmul",
                            lambda m, xs: seen.append(xs) or read(m, xs))
        monkeypatch.setattr(trained, "logits",
                            lambda flat: seen.append(flat) or logits(flat))
        evaluate(trained, data, noise, 4, identity_dense(4, 4))
        assert len(seen) == 3  # the readout and both rows' logits
        assert all(x.min() >= 0.0 and x.max() <= 1.0 for x in seen)

    def test_denoised_condition_named_after_class(self, trained):
        data = toy_data(n=50, seed=11)
        noisy, denoised = evaluate(trained, data, NoiseSpec("gaussian", 0.01),
                                   4, IdentityDenoiser())
        assert noisy.condition == "noisy"
        assert denoised.condition == "denoised(identity)"
        assert denoised.noise == "gaussian:0.01"

    def test_identity_denoiser_matches_noisy_accuracy(self, trained):
        data = toy_data(n=100, seed=11)
        noisy, passthrough = evaluate(trained, data, NoiseSpec("sp", 0.1), 4,
                                      IdentityDenoiser())
        assert passthrough.accuracy == noisy.accuracy

    def test_one_corruption_feeds_both_rows(self, trained, monkeypatch):
        # The denoised row reads the very images the noisy row scored.
        data = toy_data(n=50, seed=11)
        calls, corrupt = [], classify.corrupt_dataset
        monkeypatch.setattr(classify, "corrupt_dataset",
                            lambda *a: calls.append(a) or corrupt(*a))
        recorder = RecordingDenoiser()
        noisy, _ = evaluate(trained, data, NoiseSpec("gaussian", 0.5), 4,
                            recorder)
        assert len(calls) == 1
        assert noisy.accuracy == trained.accuracy(recorder.seen, data.labels)

    def test_same_seed_reproduces_report(self, trained):
        data = toy_data(n=100, seed=11)
        noise = NoiseSpec("gaussian", 0.5)
        assert evaluate(trained, data, noise, 4) == evaluate(trained, data,
                                                             noise, 4)

    def test_heavy_noise_hurts_accuracy(self, trained):
        data = toy_data(n=200, seed=11)
        (clean,) = evaluate(trained, data)
        (noisy,) = evaluate(trained, data, NoiseSpec("gaussian", 0.5), 4)
        assert noisy.accuracy < clean.accuracy
