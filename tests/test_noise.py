import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spec_texts
from memdenoise.noise import (PARAMS, STANDARD_NOISES, NoiseSpec, corrupt,
                              corrupt_dataset, parse_spec)


class TestSpecValidation:
    def test_gaussian_needs_variance(self):
        with pytest.raises(ValueError):
            NoiseSpec("gaussian")
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", -0.1)

    def test_sp_density_range(self):
        NoiseSpec("sp", 0.0)
        NoiseSpec("sp", 1.0)
        with pytest.raises(ValueError):
            NoiseSpec("sp", 1.1)
        with pytest.raises(ValueError):
            NoiseSpec("sp")

    def test_poisson_default_peak(self):
        assert NoiseSpec("poisson").param == 2.5
        with pytest.raises(ValueError):
            NoiseSpec("poisson", 0.5)

    def test_speckle_default_variance(self):
        assert NoiseSpec("speckle").param == 1.0
        with pytest.raises(ValueError):
            NoiseSpec("speckle", -1.0)

    @pytest.mark.parametrize("kind", ["gaussian", "poisson", "speckle"])
    def test_parameter_capped_at_2_pow_62(self, kind):
        assert NoiseSpec(kind, 2.0**62).param == 2.0**62
        with pytest.raises(ValueError, match=r"4\.61169e\+18\]"):
            NoiseSpec(kind, np.nextafter(2.0**62, np.inf))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("uniform", 0.1)


class TestTextForm:
    @pytest.mark.parametrize("text", [
        "gaussian:0.01", "gaussian:0.5", "sp:0.1", "sp:0.25",
        "poisson:2.5", "speckle:1",
    ])
    def test_round_trip(self, text):
        assert parse_spec(text).text() == text

    def test_defaults_fill_in(self):
        assert parse_spec("poisson").text() == "poisson:2.5"
        assert parse_spec("speckle").text() == "speckle:1"

    def test_text_is_exact(self):
        # %g where it reads back exactly, the full repr where it would not
        assert parse_spec("gaussian:0.1234567").text() == "gaussian:0.1234567"
        assert parse_spec("poisson:1e18").text() == "poisson:1e+18"

    @settings(max_examples=300)
    @given(spec_texts(tuple(PARAMS)))
    def test_any_input_round_trips_or_raises(self, text):
        try:
            spec = parse_spec(text)
        except (ValueError, TypeError):
            return
        assert parse_spec(spec.text()) == spec

    def test_malformed(self):
        for bad in ("gaussian", "sp", "gaussian:0.1:2", "salt:0.1"):
            with pytest.raises(ValueError):
                parse_spec(bad)

    def test_standard_noise_order(self):
        texts = [s.text() for s in STANDARD_NOISES]
        assert texts == ["gaussian:0.01", "gaussian:0.1", "gaussian:0.5",
                         "sp:0.1", "sp:0.25", "sp:0.5",
                         "poisson:2.5", "speckle:1"]


class TestGaussian:
    def test_parameter_is_the_variance(self):
        # On a mid-gray plane the noise never hits the range ends, so the
        # sample variance of (y - x) estimates the parameter directly.
        x = np.full((1200, 1200), 0.5)
        y = corrupt(x, parse_spec("gaussian:0.04"), np.random.default_rng(0))
        v = float(np.var(y - x))
        assert abs(v - 0.04) / 0.04 < 0.02

    def test_zero_variance_is_identity(self, rng):
        x = rng.random((8, 8))
        y = corrupt(x, NoiseSpec("gaussian", 0.0),
                    np.random.default_rng(0))
        np.testing.assert_array_equal(y, x)

    def test_unclipped_by_default(self):
        x = np.zeros((64, 64))
        y = corrupt(x, parse_spec("gaussian:0.5"), np.random.default_rng(0))
        assert y.min() < 0.0


class TestSaltAndPepper:
    def test_exact_pixel_count(self, rng):
        x = rng.random((28, 28))
        y = corrupt(x, parse_spec("sp:0.1"), np.random.default_rng(1))
        changed = np.sum(y != x)
        hit = int(np.floor(0.1 * x.size + 0.5))
        # hit pixels are forced to an endpoint; a hit can coincide with the
        # original value only at an exact 0 or 1, absent from this input
        assert changed == hit

    def test_values_are_endpoints(self, rng):
        x = rng.uniform(0.25, 0.75, size=(28, 28))
        y = corrupt(x, parse_spec("sp:0.5"), np.random.default_rng(2))
        touched = y != x
        assert set(np.unique(y[touched])) <= {0.0, 1.0}

    def test_density_one_replaces_everything(self, rng):
        x = rng.uniform(0.25, 0.75, size=(10, 10))
        y = corrupt(x, parse_spec("sp:1"), np.random.default_rng(3))
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_salt_pepper_balance(self):
        x = np.full((200, 200), 0.5)
        y = corrupt(x, parse_spec("sp:1"), np.random.default_rng(4))
        frac_salt = float(np.mean(y == 1.0))
        assert abs(frac_salt - 0.5) < 0.02

    def test_input_not_modified(self, rng):
        x = rng.random((8, 8))
        before = x.copy()
        corrupt(x, parse_spec("sp:0.5"), np.random.default_rng(5))
        np.testing.assert_array_equal(x, before)


class TestPoisson:
    def test_counting_statistics(self):
        # var(y) = x * peak / peak^2 = x / peak for a Poisson count
        x = np.full((1500, 1500), 0.5)
        spec = parse_spec("poisson:2.5")
        y = corrupt(x, spec, np.random.default_rng(6))
        want = 0.5 / 2.5
        assert abs(float(np.var(y - x)) - want) / want < 0.02

    def test_quantized_to_count_grid(self):
        x = np.full((32, 32), 0.4)
        y = corrupt(x, parse_spec("poisson:2.5"), np.random.default_rng(7))
        counts = y * 2.5
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-12)

    def test_black_stays_black(self):
        y = corrupt(np.zeros((16, 16)), parse_spec("poisson"),
                    np.random.default_rng(8))
        assert not y.any()


class TestSpeckle:
    def test_multiplicative_variance(self):
        # var(y - x) = x^2 * variance
        x = np.full((1200, 1200), 0.5)
        y = corrupt(x, parse_spec("speckle:1"), np.random.default_rng(9))
        want = 0.25
        assert abs(float(np.var(y - x)) - want) / want < 0.02

    def test_black_pixels_untouched(self):
        x = np.zeros((32, 32))
        y = corrupt(x, parse_spec("speckle:1"), np.random.default_rng(10))
        np.testing.assert_array_equal(y, x)


class TestDatasetCorruption:
    def test_per_image_substreams_are_order_independent(self, rng):
        imgs = rng.random((6, 8, 8))
        spec = parse_spec("gaussian:0.1")
        full = corrupt_dataset(imgs, spec, seed=42)
        tail = corrupt_dataset(imgs[3:], spec, seed=42)
        # image i depends only on (seed, i); dropping the prefix changes
        # which substreams are used, not their content
        single = corrupt(imgs[3], spec, np.random.default_rng([42, 3]))
        np.testing.assert_array_equal(full[3], single)
        assert not np.array_equal(tail[0], full[3])

    def test_same_seed_reproduces(self, rng):
        imgs = rng.random((4, 8, 8))
        spec = parse_spec("sp:0.25")
        a = corrupt_dataset(imgs, spec, seed=7)
        b = corrupt_dataset(imgs, spec, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self, rng):
        imgs = rng.random((4, 8, 8))
        spec = parse_spec("gaussian:0.1")
        assert not np.array_equal(corrupt_dataset(imgs, spec, 1),
                                  corrupt_dataset(imgs, spec, 2))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_integer_stack_is_refused(self, dtype):
        # Raw pixels would be corrupted as intensities 0..255.
        with pytest.raises(TypeError, match="Dataset.floats"):
            corrupt_dataset(np.zeros((2, 8, 8), dtype), parse_spec("sp:0.1"), 0)

    @pytest.mark.parametrize("text", ["gaussian:0.1", "sp:0.25", "poisson",
                                      "speckle"])
    @pytest.mark.parametrize("shape", [(9, 8, 8), (7, 6, 5, 3)],
                             ids=["gray", "rgb"])
    def test_slice_from_its_start_equals_the_whole_stack_rows(self, rng, text,
                                                              shape):
        # eval corrupts each slice of its split on its own, a 1-image
        # slice included
        imgs = rng.random(shape)
        spec = parse_spec(text)
        whole = corrupt_dataset(imgs, spec, seed=11)
        edges = [0, 2, 5, 6, shape[0]]
        for lo, hi in zip(edges, edges[1:]):
            part = corrupt_dataset(imgs[lo:hi], spec, 11, start=lo)
            assert (part == whole[lo:hi]).all(), (lo, hi)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_images_get_distinct_streams(self, seed):
        imgs = np.full((2, 16, 16), 0.5)
        out = corrupt_dataset(imgs, parse_spec("gaussian:0.1"), seed)
        assert not np.array_equal(out[0], out[1])
