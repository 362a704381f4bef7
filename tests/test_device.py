import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdenoise.device import IDEAL, DeviceModel, apply_variation, quantize


def nearest_level(g, levels):
    """Independent oracle: exhaustive nearest level, ties to the lower one."""
    grid = np.arange(levels) / (levels - 1)
    g = np.clip(g, 0.0, 1.0)
    d = np.abs(grid - g)
    best = d.min()
    return grid[np.nonzero(d == best)[0][0]]


class TestModelValidation:
    def test_defaults_are_ideal(self):
        assert DeviceModel().ideal
        assert DeviceModel().levels is IDEAL

    def test_two_levels_is_minimum(self):
        DeviceModel(levels=2)
        with pytest.raises(ValueError):
            DeviceModel(levels=1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            DeviceModel(variation_sigma=-0.01)


    @pytest.mark.parametrize("kwargs", [{"levels": 10 ** 400},
                                        {"variation_sigma": 10 ** 400}])
    def test_values_beyond_float_range_rejected(self, kwargs):
        # A config may give a JSON integer of any size; one no float holds
        # would fail the first programming with an OverflowError.
        with pytest.raises(ValueError):
            DeviceModel(**kwargs)

    def test_largest_float_sized_values_program(self, rng):
        g = np.array([0.3, 0.7])
        assert quantize(g, DeviceModel(levels=10 ** 300)).tolist() == [0.3, 0.7]
        assert np.all(np.isfinite(apply_variation(
            g, DeviceModel(variation_sigma=10 ** 300), rng)))


class TestQuantize:
    @pytest.mark.parametrize("levels", [2, 16, 64, 128, 256])
    def test_matches_nearest_level_oracle(self, levels, rng):
        model = DeviceModel(levels=levels)
        g = rng.random(4000)
        got = quantize(g, model)
        want = np.array([nearest_level(v, levels) for v in g])
        np.testing.assert_array_equal(got, want)

    def test_midpoint_rounds_down(self):
        # L=3 puts a level at every half; the 0.25 midpoint belongs to 0
        assert quantize(0.25, DeviceModel(levels=3)) == 0.0
        assert quantize(0.75, DeviceModel(levels=3)) == 0.5

    def test_binary_device(self):
        model = DeviceModel(levels=2)
        got = quantize(np.array([0.0, 0.49, 0.5, 0.51, 1.0]), model)
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 1.0, 1.0])

    def test_ideal_passthrough_is_same_object(self):
        g = np.linspace(0, 1, 17)
        assert quantize(g, DeviceModel()) is g

    @given(g=st.floats(0.0, 1.0), levels=st.integers(2, 400))
    def test_idempotent(self, g, levels):
        model = DeviceModel(levels=levels)
        once = quantize(g, model)
        assert quantize(once, model) == once

    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
           levels=st.integers(2, 400))
    def test_monotone(self, a, b, levels):
        model = DeviceModel(levels=levels)
        lo, hi = min(a, b), max(a, b)
        assert quantize(lo, model) <= quantize(hi, model)

    @given(g=st.floats(0.0, 1.0), levels=st.integers(2, 400))
    def test_error_bounded_by_half_step(self, g, levels):
        got = quantize(g, DeviceModel(levels=levels))
        assert abs(got - g) <= 0.5 / (levels - 1) + 1e-12

    def test_out_of_window_clamps_to_edge_levels(self):
        model = DeviceModel(levels=5)
        assert quantize(-0.3, model) == 0.0
        assert quantize(1.7, model) == 1.0


class TestVariation:
    def test_sigma_zero_is_exact_identity(self):
        g = np.linspace(0, 1, 100)
        rng = np.random.default_rng(0)
        out = apply_variation(g, DeviceModel(), rng)
        assert out is g
        # nothing consumed from the stream
        assert rng.random() == np.random.default_rng(0).random()

    def test_monte_carlo_moments(self):
        # interior targets, far from the clamp: sample std ~ sigma
        sigma = 0.02
        model = DeviceModel(variation_sigma=sigma)
        g = np.full(200_000, 0.5)
        out = apply_variation(g, model, np.random.default_rng(99))
        err = out - g
        assert abs(err.mean()) < 5e-4
        assert abs(err.std() - sigma) < sigma * 0.02

    def test_clamped_into_window(self):
        model = DeviceModel(variation_sigma=0.5)
        out = apply_variation(np.zeros(10_000), model,
                              np.random.default_rng(3))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic_under_seed(self):
        model = DeviceModel(variation_sigma=0.03)
        g = np.linspace(0, 1, 64)
        a = apply_variation(g, model, np.random.default_rng([5, 0x70]))
        b = apply_variation(g, model, np.random.default_rng([5, 0x70]))
        np.testing.assert_array_equal(a, b)
