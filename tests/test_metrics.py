import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdenoise.metrics import (CSV_HEADER, SSIM_WINDOW, QualityReport,
                                evaluate_pairs, mse, ssim)


def brute_force_ssim(a, b, k=SSIM_WINDOW):
    """Wang et al. (2004) SSIM, one explicit k x k window at a time.

    Uniform window, sample (n - 1) variances and covariance, C1 =
    (0.01 L)^2 and C2 = (0.03 L)^2 with L = 1, averaged over every valid
    window position; RGB averages the per-channel scores.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 3:
        return float(np.mean([brute_force_ssim(a[:, :, c], b[:, :, c], k)
                              for c in range(a.shape[2])]))
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    scores = []
    for i in range(a.shape[0] - k + 1):
        for j in range(a.shape[1] - k + 1):
            x = a[i:i + k, j:j + k].ravel()
            y = b[i:i + k, j:j + k].ravel()
            mx, my = x.mean(), y.mean()
            vx = ((x - mx) ** 2).sum() / (x.size - 1)
            vy = ((y - my) ** 2).sum() / (y.size - 1)
            cxy = ((x - mx) * (y - my)).sum() / (x.size - 1)
            scores.append((2 * mx * my + c1) * (2 * cxy + c2)
                          / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(scores))


def oracle_pairs():
    """Reference/test image pairs the oracle is checked on, by name."""
    gen = np.random.default_rng(21)
    a = gen.random((28, 28))
    noisy = np.clip(a + gen.normal(0, 0.2, a.shape), 0, 1)
    rgb = gen.random((12, 15, 3))
    flat = np.full((10, 13), 0.37)
    saturated = (gen.random((16, 16)) > 0.5).astype(np.float64)
    return [
        pytest.param(a, noisy, id="random"),
        pytest.param(a, gen.random((28, 28)), id="random-vs-random"),
        pytest.param(rgb, np.clip(rgb + gen.normal(0, 0.1, rgb.shape), 0, 1),
                     id="rgb"),
        pytest.param(flat, flat.copy(), id="constant"),
        pytest.param(flat, np.full((10, 13), 0.9), id="constant-vs-other"),
        pytest.param(saturated, 1.0 - saturated, id="saturated"),
        pytest.param(saturated, np.clip(
            saturated + gen.normal(0, 0.3, saturated.shape), 0, 1),
            id="saturated-vs-noisy"),
        pytest.param(np.ones((9, 9)), np.ones((9, 9)), id="all-ones"),
    ]


class TestMse:
    def test_hand_value(self):
        a = np.array([[0.0, 1.0], [0.5, 0.5]])
        b = np.array([[0.5, 1.0], [0.5, 0.0]])
        assert mse(a, b) == pytest.approx((0.25 + 0.25) / 4)

    def test_zero_on_identical(self, rng):
        a = rng.random((8, 8))
        assert mse(a, a) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 2)))

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        gen = np.random.default_rng(seed)
        a, b = gen.random((2, 6, 6))
        assert mse(a, b) == mse(b, a)


class TestPsnr:
    """PSNR of one image, as the report of a 1-image stack gives it."""

    def test_identity_with_mse(self, rng):
        a, b = rng.random((2, 1, 12, 12))
        assert evaluate_pairs(a, b).psnr == pytest.approx(
            10.0 * np.log10(1.0 / mse(a[0], b[0])))

    def test_infinite_for_identical(self, rng):
        # an infinite PSNR is reported as None, printed '-'
        a = rng.random((1, 8, 8))
        assert evaluate_pairs(a, a).psnr is None

    def test_uniform_error_level(self):
        # constant offset of 0.1 -> mse 0.01 -> exactly 20 dB
        a = np.full((1, 16, 16), 0.4)
        assert evaluate_pairs(a, a + 0.1).psnr == pytest.approx(20.0)


class TestSsim:
    @pytest.mark.parametrize("a,b", oracle_pairs())
    def test_matches_brute_force_oracle(self, a, b):
        want = brute_force_ssim(a, b)
        assert ssim(a, b) == pytest.approx(want, rel=1e-12, abs=0.0)
        rep = evaluate_pairs(np.stack([a, a]), np.stack([b, b]))
        assert rep.ssim == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_matches_reference_implementation(self, rng):
        skimage_metrics = pytest.importorskip("skimage.metrics")
        for _ in range(8):
            a = rng.random((28, 28))
            b = np.clip(a + rng.normal(0, 0.2, a.shape), 0, 1)
            want = skimage_metrics.structural_similarity(
                a, b, win_size=7, data_range=1.0, gaussian_weights=False)
            assert ssim(a, b) == pytest.approx(want, abs=1e-12)

    def test_perfect_score_on_identical(self, rng):
        a = rng.random((28, 28))
        assert ssim(a, a) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        a, b = rng.random((2, 20, 20))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_rgb_averages_channel_planes(self, rng):
        a = rng.random((16, 16, 3))
        b = rng.random((16, 16, 3))
        per = [ssim(a[:, :, c], b[:, :, c]) for c in range(3)]
        assert ssim(a, b) == pytest.approx(np.mean(per))

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((5, 5)), np.zeros((5, 5)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_anticorrelated_images_score_negative(self):
        gen = np.random.default_rng(3)
        a = gen.random((28, 28))
        assert ssim(a, 1.0 - a) < 0.0


class TestEvaluatePairs:
    @pytest.mark.parametrize("shape", [(5, 28, 28), (4, 12, 12, 3),
                                       (6, 9, 13), (3, 10, 8, 1),
                                       (300, 8, 8), (130, 8, 9, 3)])
    def test_equals_per_image_loop_exactly(self, rng, shape):
        # The last two stacks span several scoring chunks.
        ref = rng.random(shape)
        test = np.clip(ref + rng.normal(0, 0.2, shape), 0, 1)
        rep = evaluate_pairs(ref, test)
        n = shape[0]
        assert rep.ssim == float(np.mean([ssim(ref[i], test[i])
                                          for i in range(n)]))
        assert rep.mse == float(np.mean([mse(ref[i], test[i])
                                         for i in range(n)]))

    def test_aggregates_match_per_image_scores(self, rng):
        ref = rng.random((5, 28, 28))
        test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
        rep = evaluate_pairs(ref, test, noise="gaussian:0.01", method="none")
        assert rep.ssim == pytest.approx(
            np.mean([ssim(ref[i], test[i]) for i in range(5)]))
        assert rep.mse == pytest.approx(
            np.mean([mse(ref[i], test[i]) for i in range(5)]))
        assert rep.n_images == 5

    def test_psnr_derived_from_mean_mse(self, rng):
        ref = rng.random((4, 28, 28))
        test = rng.random((4, 28, 28))
        rep = evaluate_pairs(ref, test)
        assert rep.psnr == pytest.approx(10.0 * np.log10(1.0 / rep.mse))

    def test_psnr_none_for_identical_stacks(self, rng):
        ref = rng.random((3, 28, 28))
        rep = evaluate_pairs(ref, ref.copy())
        assert rep.psnr is None
        assert rep.csv_row().split(",")[4] == "-"

    def test_rejects_single_image(self, rng):
        with pytest.raises(ValueError):
            evaluate_pairs(np.zeros((28, 28)), np.zeros((28, 28)))

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError):
            evaluate_pairs(np.zeros((0, 28, 28)), np.zeros((0, 28, 28)))


class TestQualityReport:
    def test_csv_row_matches_header(self):
        rep = QualityReport("gaussian:0.1", "dense", 0.8, 0.01, 20.0, 100)
        assert len(rep.csv_row().split(",")) == len(CSV_HEADER.split(","))
        assert rep.csv_row() == "gaussian:0.1,dense,0.8,0.01,20,100"

    def test_json_round_trips(self):
        rep = QualityReport("sp:0.1", "median:3", 0.914, 0.005, 23.0, 1000)
        loaded = json.loads(json.dumps(rep.to_json()))
        assert loaded == rep.to_json() == {"noise": "sp:0.1", "method": "median:3",
                          "ssim": 0.914, "mse": 0.005, "psnr": 23.0, "n": 1000}
