import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import planes_of_every_kind, same_bits, spec_texts
from memdenoise.baselines import (MAX_KERNEL_WIDTH, MIN_GAUSS_SIGMA,
                                  MIN_TV_WEIGHT, FilterSpec, filter_stack,
                                  gaussian_blur, median_filter, parse_filter,
                                  tv_denoise)
from memdenoise.baselines import _tv_planes
from memdenoise.imagecore import map_planes
from test_acceptance import TUNE_GRIDS, tune_filter

scipy_ndimage = pytest.importorskip("scipy.ndimage")


def total_variation(img):
    """Oracle: isotropic total variation of one (h, w) plane, from
    forward differences that are zero across the far borders."""
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:-1, :] = np.diff(img, axis=0)
    gy[:, :-1] = np.diff(img, axis=1)
    return float(np.sqrt(gx**2 + gy**2).sum())


def tv_energy(u, f, tv_weight):
    """Oracle: the objective ||u - f||^2 + 2 * tv_weight * TV(u) that the
    TV filter's dual iteration keeps non-increasing."""
    return float(((u - f) ** 2).sum()) + 2.0 * tv_weight * total_variation(u)


def planes_first_tv(f, spec):
    """The TV dual iteration on an (m, h, w) stack of planes, differences
    over its last two axes: the planes-first kernel whose bits the
    planes-last one keeps, op for op."""
    def gradient(u, gx, gy):
        np.subtract(u[..., 1:, :], u[..., :-1, :], out=gx[..., :-1, :])
        np.subtract(u[..., :, 1:], u[..., :, :-1], out=gy[..., :, :-1])

    def divergence(px, py):
        div = np.zeros_like(px)
        div[..., :-1, :] += px[..., :-1, :]
        div[..., 1:, :] -= px[..., :-1, :]
        div[..., :, :-1] += py[..., :, :-1]
        div[..., :, 1:] -= py[..., :, :-1]
        return div

    weight = spec.tv_weight
    step = 0.125 / weight
    px, py, gx, gy, norm = (np.zeros_like(f) for _ in range(5))
    for _ in range(spec.tv_iters):
        u = f + weight * divergence(px, py)
        gradient(u, gx, gy)
        gx *= step
        gy *= step
        px += gx
        py += gy
        np.sqrt(px**2 + py**2, out=norm)
        np.maximum(1.0, norm, out=norm)
        px /= norm
        py /= norm
    return f + weight * divergence(px, py)


def planes_first_filter(imgs, spec):
    """filter_stack's TV output from planes_first_tv."""
    return map_planes(lambda planes: np.clip(planes_first_tv(planes, spec),
                                             0.0, 1.0), imgs, 1)


def one_image(img, spec):
    """The stack filter on a stack of one."""
    return filter_stack(img[None], spec)[0]


class TestSpec:
    @pytest.mark.parametrize("text", [
        "gauss:0.8", "median:5", "tv:0.1:50",
        # the bounds: MIN_GAUSS_SIGMA, MIN_TV_WEIGHT, MAX_TV_ITERS
        "gauss:0.025", "tv:1e-100:50", "tv:0.1:1000"])
    def test_text_round_trip(self, text):
        assert parse_filter(text).text() == text

    def test_gaussian_alias(self):
        assert parse_filter("gaussian:0.5") == FilterSpec("gauss", sigma=0.5)

    def test_median_default_window(self):
        assert parse_filter("median").window == 3

    def test_tv_default_iters(self):
        assert parse_filter("tv:0.1").tv_iters == 50

    def test_validation(self):
        for bad in ("gauss:0", "gauss:-1", "median:4", "median:1",
                    "tv:0", "unknown:1", "gauss", "gauss:1:2", "gauss:1e308",
                    "gauss:16.34", "median:101", "median:100001",
                    "gauss:1e-200", "gauss:0.0249", "tv:1e-320", "tv:1e-101",
                    "tv:0.1:0", "tv:0.1:1001", "tv:0.1:1000000000"):
            with pytest.raises(ValueError):
                parse_filter(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            FilterSpec("box")

    def test_smallest_sigma_and_weight_are_the_identity(self, rng):
        # At the floors the Gaussian kernel is exactly [0, 1, 0] and the
        # TV step 0.125 / weight stays finite, squares included, even on
        # a noisy stack far outside [0, 1]: no RuntimeWarning, and every
        # pixel comes out as the clamped input.
        imgs = rng.normal(0.5, 1e6, (3, 9, 11))
        for spec in (FilterSpec("gauss", sigma=MIN_GAUSS_SIGMA),
                     FilterSpec("tv", tv_weight=MIN_TV_WEIGHT)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = filter_stack(imgs, spec)
            np.testing.assert_array_equal(out, np.clip(imgs, 0.0, 1.0))

    def test_widest_windows(self, rng):
        # a Gaussian of radius ceil(3 * sigma) is 2 * radius + 1 wide
        sigma = (MAX_KERNEL_WIDTH - 1) // 2 / 3
        img = rng.random((6, 6))
        for text in (f"gauss:{sigma!r}", f"median:{MAX_KERNEL_WIDTH}"):
            out = one_image(img, parse_filter(text))
            assert np.all((0.0 <= out) & (out <= 1.0))

    @settings(max_examples=300)
    @given(spec_texts(("gauss", "gaussian", "median", "tv", "MEDIAN")))
    def test_any_input_round_trips_or_raises(self, text):
        try:
            spec = parse_filter(text)
        except (ValueError, TypeError):
            return
        assert parse_filter(spec.text()) == spec


class TestGaussianBlur:
    def test_matches_explicit_convolution(self, rng):
        img = rng.random((12, 12))
        sigma = 0.8
        radius = 3  # ceil(3 * 0.8)
        offs = np.arange(-radius, radius + 1, dtype=np.float64)
        kernel = np.exp(-0.5 * (offs / sigma) ** 2)
        kernel /= kernel.sum()
        # the filters' "reflect" border repeats the edge pixel
        pad = np.pad(img, radius, mode="symmetric")
        want = np.zeros_like(img)
        for i in range(img.shape[0]):
            for j in range(img.shape[1]):
                patch = pad[i:i + 2 * radius + 1, j:j + 2 * radius + 1]
                want[i, j] = kernel @ patch @ kernel
        np.testing.assert_allclose(gaussian_blur(img, sigma), want, atol=1e-12)

    def test_constant_image_unchanged(self):
        img = np.full((10, 10), 0.37)
        np.testing.assert_allclose(gaussian_blur(img, 1.0), img, atol=1e-12)

    def test_reduces_additive_noise(self, rng):
        clean = np.full((40, 40), 0.5)
        noisy = clean + rng.normal(0, 0.2, clean.shape)
        blurred = gaussian_blur(np.clip(noisy, 0, 1), 1.0)
        assert np.var(blurred - clean) < np.var(np.clip(noisy, 0, 1) - clean)

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((8, 8)), 0.0)


class TestMedianFilter:
    def test_matches_brute_force_median(self, rng):
        img = rng.random((10, 10))
        pad = np.pad(img, 1, mode="symmetric")
        want = np.zeros_like(img)
        for i in range(10):
            for j in range(10):
                want[i, j] = np.median(pad[i:i + 3, j:j + 3])
        np.testing.assert_allclose(median_filter(img, 3), want, atol=0)

    def test_removes_isolated_impulses(self):
        img = np.full((9, 9), 0.5)
        img[4, 4] = 1.0
        img[2, 7] = 0.0
        np.testing.assert_array_equal(median_filter(img, 3), np.full((9, 9), 0.5))

    def test_window_domain(self):
        for w in (2, 1, 4):
            with pytest.raises(ValueError):
                median_filter(np.zeros((8, 8)), w)


class TestTotalVariation:
    def test_flat_image_zero(self):
        assert total_variation(np.full((8, 8), 0.3)) == 0.0

    def test_single_step_edge(self):
        img = np.zeros((4, 4))
        img[:, 2:] = 1.0
        # one unit jump along each of the 4 rows
        assert total_variation(img) == pytest.approx(4.0)

    def test_energy_non_increasing_over_iterations(self, rng):
        f = np.clip(rng.random((16, 16)) + rng.normal(0, 0.3, (16, 16)), 0, 1)
        weight = 0.1
        energies = []
        for iters in (1, 2, 5, 10, 25, 50):
            u = tv_denoise(f, weight, iters)
            energies.append(tv_energy(u, f, weight))
        assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))

    def test_denoise_lowers_energy_vs_input(self, rng):
        f = np.clip(rng.random((16, 16)), 0, 1)
        u = tv_denoise(f, 0.1, 50)
        assert tv_energy(u, f, 0.1) <= tv_energy(f, f, 0.1) + 1e-9

    def test_smooths_noise_preserves_mean(self, rng):
        f = np.clip(np.full((24, 24), 0.5) + rng.normal(0, 0.2, (24, 24)), 0, 1)
        u = tv_denoise(f, 0.15, 50)
        assert total_variation(u) < total_variation(f)
        assert abs(float(u.mean() - f.mean())) < 0.02

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            tv_denoise(np.zeros((8, 8)), 0.0)
        with pytest.raises(ValueError):
            tv_denoise(np.zeros((8, 8)), 0.1, 0)


# Stacks the planes-last TV kernel is pinned on: MNIST's side, small and
# odd-sided planes, RGB and 1-image stacks.
TV_SHAPES = [(37, 28, 28), (5, 7, 7), (6, 9, 13), (4, 12, 12, 3),
             (1, 28, 28), (1, 12, 12, 3)]


class TestPlanesLastTv:
    """filter_stack's TV against planes_first_filter, ==, bit for bit."""

    @pytest.mark.parametrize("text", ["tv:0.1:50", "tv:0.35:7"])
    @pytest.mark.parametrize("shape", TV_SHAPES)
    def test_equals_the_planes_first_kernel(self, rng, shape, text):
        imgs = np.clip(rng.random(shape) + rng.normal(0, 0.2, shape), 0, 1)
        spec = parse_filter(text)
        assert same_bits(filter_stack(imgs, spec),
                         planes_first_filter(imgs, spec))

    @pytest.mark.parametrize("shape", [(37, 28, 28), (6, 9, 13), (1, 7, 7)])
    def test_unclipped_planes_equal_the_planes_first_kernel(self, rng, shape):
        # noisy planes far outside [0, 1], before filter_stack's clip
        planes = rng.normal(0.5, 2.0, shape)
        spec = parse_filter("tv:0.2:30")
        assert same_bits(_tv_planes(planes, spec),
                         planes_first_tv(planes, spec))

    @pytest.mark.parametrize("shape", TV_SHAPES)
    def test_exact_zeros_ones_and_negative_zeros(self, rng, shape):
        imgs = planes_of_every_kind(rng, shape)
        spec = parse_filter("tv:0.1:20")
        assert same_bits(filter_stack(imgs, spec),
                         planes_first_filter(imgs, spec))


class TestDispatch:
    def test_apply_filter_routes_by_kind(self, rng):
        # Each one-image wrapper is the stack filter of its kind.
        img = rng.random((10, 10))
        np.testing.assert_array_equal(
            one_image(img, FilterSpec("median", window=3)),
            median_filter(img, 3))
        np.testing.assert_array_equal(
            one_image(img, FilterSpec("gauss", sigma=0.8)),
            gaussian_blur(img, 0.8))
        np.testing.assert_array_equal(
            one_image(img, FilterSpec("tv", tv_weight=0.1)),
            tv_denoise(img, 0.1, 50))

    @pytest.mark.parametrize("channels", [None, 3], ids=["gray", "rgb"])
    @pytest.mark.parametrize("text", ["median:3", "median:5", "gauss:0.8",
                                      "tv:0.1"])
    def test_filter_stack_is_per_image(self, rng, text, channels):
        # 120 gray planes (or 40 RGB images) span three filter chunks.
        shape = (120, 28, 30) if channels is None else (40, 28, 30, channels)
        imgs = rng.random(shape)
        spec = parse_filter(text)
        out = filter_stack(imgs, spec)
        assert out.shape == imgs.shape and out.flags.c_contiguous
        for i in range(len(imgs)):
            np.testing.assert_array_equal(out[i], one_image(imgs[i], spec))

    def test_rgb_planes_filtered_independently(self, rng):
        img = rng.random((10, 10, 3))
        out = one_image(img, FilterSpec("gauss", sigma=0.6))
        for c in range(3):
            np.testing.assert_allclose(
                out[:, :, c], gaussian_blur(img[:, :, c], 0.6), atol=1e-12)

    def test_output_bounded(self, rng):
        img = rng.random((10, 10))
        for spec in (FilterSpec("gauss", sigma=1.0),
                     FilterSpec("median"),
                     FilterSpec("tv", tv_weight=0.2)):
            out = one_image(img, spec)
            assert out.min() >= 0.0 and out.max() <= 1.0


class TestTuning:
    def test_winner_comes_from_the_grid(self, rng):
        clean = rng.random((3, 12, 12))
        noisy = np.clip(clean + rng.normal(0, 0.15, clean.shape), 0, 1)
        spec, score = tune_filter(clean, noisy, "gauss")
        assert spec in TUNE_GRIDS["gauss"]
        assert -1.0 <= score <= 1.0

    def test_winner_maximizes_mean_ssim(self, rng):
        from memdenoise.metrics import ssim
        clean = rng.random((2, 12, 12))
        noisy = np.clip(clean + rng.normal(0, 0.15, clean.shape), 0, 1)
        grid = TUNE_GRIDS["median"]
        spec, score = tune_filter(clean, noisy, "median", grid)
        scores = []
        for cand in grid:
            out = filter_stack(noisy, cand)
            scores.append(np.mean([ssim(c, o) for c, o in zip(clean, out)]))
        assert score == pytest.approx(max(scores))
        assert spec == grid[int(np.argmax(scores))]

    def test_tie_keeps_earliest_entry(self, rng):
        clean = rng.random((2, 12, 12))
        grid = (FilterSpec("median", window=3), FilterSpec("median", window=3))
        spec, _ = tune_filter(clean, clean, "median", grid)
        assert spec is grid[0]

    def test_empty_grid_rejected(self, rng):
        with pytest.raises(ValueError):
            tune_filter(np.zeros((1, 8, 8)), np.zeros((1, 8, 8)), "gauss", ())
