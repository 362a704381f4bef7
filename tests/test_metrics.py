import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planes_of_every_kind, quality_report, same_bits
from memdenoise.imagecore import plane_samples
from memdenoise.metrics import (CSV_HEADER, SSIM_WINDOW, QualityReport,
                                image_scores, mse, ssim)


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


def cumsum_window_sums(x, k):
    """The k x k window sums of an (m, h, w) stack of planes, plane by
    plane: np.cumsum down the rows, then along the columns, of an
    integral image with a zero border."""
    ii = np.zeros(x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1] + 1))
    np.cumsum(x, axis=-2, out=ii[..., 1:, 1:])
    np.cumsum(ii[..., 1:, 1:], axis=-1, out=ii[..., 1:, 1:])
    return (ii[..., k:, k:] - ii[..., :-k, k:] - ii[..., k:, :-k]
            + ii[..., :-k, :-k])


def planes_first_ssim(a, b):
    """Per-image SSIM of two (m, h, w) or (m, h, w, c) stacks, scored as
    (m*c, h, w) planes with cumsum_window_sums: the planes-first kernel
    whose bits the planes-last one keeps."""
    m = len(a)
    (a, (h, w)), (b, _) = plane_samples(a), plane_samples(b)
    a, b = a.reshape(-1, h, w), b.reshape(-1, h, w)
    k = SSIM_WINDOW
    n = float(k * k)
    ua = cumsum_window_sums(a, k) / n
    ub = cumsum_window_sums(b, k) / n
    norm = n / (n - 1.0)
    va = (cumsum_window_sums(a * a, k) / n - ua * ua) * norm
    vb = (cumsum_window_sums(b * b, k) / n - ub * ub) * norm
    cab = (cumsum_window_sums(a * b, k) / n - ua * ub) * norm
    s = ((2.0 * ua * ub + 0.01 ** 2) * (2.0 * cab + 0.03 ** 2)) / (
        (ua * ua + ub * ub + 0.01 ** 2) * (va + vb + 0.03 ** 2))
    return np.mean(np.mean(s, axis=(-2, -1)).reshape(m, -1), axis=1)


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
        assert quality_report(a, b).psnr == pytest.approx(
            10.0 * np.log10(1.0 / mse(a[0], b[0])))

    def test_infinite_for_identical(self, rng):
        # an infinite PSNR is reported as None, printed '-'
        a = rng.random((1, 8, 8))
        assert quality_report(a, a).psnr is None

    def test_uniform_error_level(self):
        # constant offset of 0.1 -> mse 0.01 -> exactly 20 dB
        a = np.full((1, 16, 16), 0.4)
        assert quality_report(a, a + 0.1).psnr == pytest.approx(20.0)


class TestSsim:
    @pytest.mark.parametrize("a,b", oracle_pairs())
    def test_matches_brute_force_oracle(self, a, b):
        want = brute_force_ssim(a, b)
        assert ssim(a, b) == pytest.approx(want, rel=1e-12, abs=0.0)
        rep = quality_report(np.stack([a, a]), np.stack([b, b]))
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
    """Stacks scored pairwise and reduced to one report (quality_report)."""

    @pytest.mark.parametrize("shape", [(5, 28, 28), (4, 12, 12, 3),
                                       (6, 9, 13), (3, 10, 8, 1),
                                       (1100, 8, 8), (330, 8, 9, 3)])
    def test_equals_per_image_loop_exactly(self, rng, shape):
        # The last two stacks span three scoring chunks each.
        ref = rng.random(shape)
        test = np.clip(ref + rng.normal(0, 0.2, shape), 0, 1)
        rep = quality_report(ref, test)
        n = shape[0]
        assert rep.ssim == float(np.mean([ssim(ref[i], test[i])
                                          for i in range(n)]))
        assert rep.mse == float(np.mean([mse(ref[i], test[i])
                                         for i in range(n)]))

    @pytest.mark.parametrize("shape", [(11, 28, 28), (9, 12, 12, 3),
                                       (1100, 8, 8)])
    def test_concatenated_slices_reduce_to_the_whole_report(self, rng, shape):
        # eval scores each slice of its split on its own, a 1-image slice
        # included, and reduces the concatenated scores
        ref = rng.random(shape)
        test = np.clip(ref + rng.normal(0, 0.2, shape), 0, 1)
        edges = [0, 2, 5, 6, shape[0]]
        parts = [image_scores(ref[lo:hi], test[lo:hi])[0]
                 for lo, hi in zip(edges, edges[1:])]
        ssims, mses = (np.concatenate(scores) for scores in zip(*parts))
        (whole,) = image_scores(ref, test)
        assert (ssims == whole[0]).all() and (mses == whole[1]).all()
        assert QualityReport.from_scores("sp:0.1", "dense", ssims, mses) == \
            quality_report(ref, test, "sp:0.1", "dense")

    def test_aggregates_match_per_image_scores(self, rng):
        ref = rng.random((5, 28, 28))
        test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
        rep = quality_report(ref, test, noise="gaussian:0.01", method="none")
        assert rep.ssim == pytest.approx(
            np.mean([ssim(ref[i], test[i]) for i in range(5)]))
        assert rep.mse == pytest.approx(
            np.mean([mse(ref[i], test[i]) for i in range(5)]))
        assert rep.n_images == 5

    def test_psnr_derived_from_mean_mse(self, rng):
        ref = rng.random((4, 28, 28))
        test = rng.random((4, 28, 28))
        rep = quality_report(ref, test)
        assert rep.psnr == pytest.approx(10.0 * np.log10(1.0 / rep.mse))

    def test_psnr_none_for_identical_stacks(self, rng):
        ref = rng.random((3, 28, 28))
        rep = quality_report(ref, ref.copy())
        assert rep.psnr is None
        assert rep.csv_row().split(",")[4] == "-"

    def test_rejects_single_image(self, rng):
        with pytest.raises(ValueError):
            quality_report(np.zeros((28, 28)), np.zeros((28, 28)))

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError):
            quality_report(np.zeros((0, 28, 28)), np.zeros((0, 28, 28)))

    @pytest.mark.parametrize("which", ["reference", "test"])
    def test_integer_stack_is_refused(self, rng, which):
        # Raw pixels would be scored as intensities 0..255.
        stacks = {"reference": rng.random((3, 8, 8)),
                  "test": rng.random((3, 8, 8))}
        stacks[which] = np.zeros((3, 8, 8), np.uint8)
        with pytest.raises(TypeError, match="Dataset.floats"):
            image_scores(stacks["reference"], stacks["test"])


# Stacks the planes-last kernel is pinned on: MNIST's side and the
# smallest the window fits, an odd-sided one, RGB, 1-image stacks, and
# two that span several scoring chunks.
KERNEL_SHAPES = [(41, 28, 28), (5, 7, 7), (6, 9, 13), (4, 12, 12, 3),
                 (1, 28, 28), (1, 12, 12, 3), (1100, 8, 8), (330, 8, 9, 3)]


class TestPlanesLastKernel:
    """image_scores against planes_first_ssim, ==, bit for bit."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_scores_equal_the_planes_first_kernel(self, rng, shape):
        ref = rng.random(shape)
        test = np.clip(ref + rng.normal(0, 0.2, shape), 0, 1)
        (ssims, mses), = image_scores(ref, test)
        assert same_bits(ssims, planes_first_ssim(ref, test))
        axes = tuple(range(1, len(shape)))
        assert same_bits(mses, np.mean((ref - test) ** 2, axis=axes))

    @pytest.mark.parametrize("shape", KERNEL_SHAPES[:6])
    def test_exact_zeros_ones_and_negative_zeros(self, rng, shape):
        ref = planes_of_every_kind(rng, shape)
        test = planes_of_every_kind(rng, shape)[::-1].copy()
        for a, b in ((ref, test), (test, ref), (ref, ref)):
            (ssims, _), = image_scores(a, b)
            assert same_bits(ssims, planes_first_ssim(a, b))

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_shared_reference_equals_one_call_per_test(self, rng, shape):
        ref = rng.random(shape)
        t1 = np.clip(ref + rng.normal(0, 0.2, shape), 0, 1)
        t2 = rng.random(shape)
        both = image_scores(ref, t1, t2)
        alone = image_scores(ref, t1) + image_scores(ref, t2)
        assert len(both) == 2
        for (s, m), (want_s, want_m) in zip(both, alone):
            assert same_bits(s, want_s) and same_bits(m, want_m)

    def test_no_test_stack_gives_no_scores(self, rng):
        assert image_scores(rng.random((3, 8, 8))) == []

    def test_every_test_stack_is_checked_against_the_reference(self, rng):
        ref = rng.random((3, 8, 8))
        with pytest.raises(ValueError, match="shape mismatch"):
            image_scores(ref, ref, rng.random((3, 8, 9)))


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
