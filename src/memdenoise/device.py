"""Behavioral memristor model.

Conductances are normalized to the window [0, 1]; physical siemens never
appear, since the dot-product math is scale invariant up to the readout
gain. Two non-idealities are modeled: a limited number L of stable states
(uniformly spaced levels k/(L-1)) and programming-time conductance
variation (additive Gaussian with std sigma relative to the full window,
drawn once per programming event and frozen afterwards).
"""

import numbers
import sys
from dataclasses import dataclass

import numpy as np

IDEAL = None  # sentinel for an unquantized device with unlimited states


@dataclass(frozen=True)
class DeviceModel:
    """Memristor behavioral parameters.

    levels: number of stable conductance states, or None for an ideal
        continuum. Realistic values studied here: 2, 16, 64, 128, 256.
    variation_sigma: std of the programming error relative to the full
        conductance window, typically in [0, 0.05].
    """

    levels: int | None = IDEAL
    variation_sigma: float = 0.0

    def __post_init__(self):
        # Both must convert to a finite float: a JSON integer of 400
        # digits would otherwise load and then fail the first programming.
        if self.levels is not None and not (
                isinstance(self.levels, numbers.Integral)
                and 2 <= self.levels <= sys.float_info.max):
            raise ValueError("levels must be an integer >= 2 (or None for ideal)")
        # A boolean is a number to the comparison, not a sigma.
        if isinstance(self.variation_sigma, bool) or not (
                0 <= self.variation_sigma <= sys.float_info.max):
            raise ValueError("variation_sigma must be finite and >= 0")

    @property
    def ideal(self):
        return self.levels is None and self.variation_sigma == 0.0


def quantize(g, model):
    """Snap normalized conductances to the nearest stable level.

    Levels are {k/(L-1), k=0..L-1}. Exact midpoints round toward the lower
    level. An ideal model returns its input unchanged.
    """
    if model.levels is None:
        return g
    g = np.asarray(g, dtype=np.float64)
    n = model.levels - 1
    # ceil(x - 0.5) is nearest-integer with ties toward the lower level
    idx = np.ceil(g * n - 0.5)
    idx = np.clip(idx, 0.0, n)
    return idx / n


def apply_variation(g, model, rng):
    """Perturb conductances by one programming event's write error.

    Adds eps ~ Normal(0, sigma^2) per device, clamps back into [0, 1].
    sigma = 0 is an exact identity and consumes nothing from the stream.
    """
    if model.variation_sigma == 0.0:
        return g
    g = np.asarray(g, dtype=np.float64)
    eps = rng.normal(0.0, model.variation_sigma, size=g.shape)
    return np.clip(g + eps, 0.0, 1.0)
