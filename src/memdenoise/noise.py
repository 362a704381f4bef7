"""The four sensor corruption models.

Parameter conventions are locked to reproduce the reference noisy-image
statistics on MNIST:

  * The Gaussian model's parameter is the noise VARIANCE, not the std:
    the noisy mean MSE then equals the parameter (0.099 at 0.1, 0.499 at
    0.5), which is what the quality tables show.
  * Corruption is unclipped. Clamping Gaussian noise on a
    mostly-black dataset would halve its measured MSE (most pixels sit at
    0, where negative excursions are eaten by the clamp), and the
    reference noisy rows are only reproduced without it. The analog
    front end clamps to its [0, 1] input window instead, inside the
    denoisers and the classifier.
  * Poisson peak defaults to 2.5 and Speckle variance to 1.0, both
    calibrated against the reference noisy MSE (0.052 and 0.114).

Determinism: per-image generator substreams are spawned as
default_rng([seed, image_index]), so corrupting a dataset is order
independent and parallelizes without changing results.
"""

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("gaussian", "sp", "poisson", "speckle")

DEFAULT_POISSON_PEAK = 2.5
DEFAULT_SPECKLE_VAR = 1.0


@dataclass(frozen=True)
class NoiseSpec:
    """One corruption: kind plus the single parameter relevant to it.

    gaussian: variance of the additive noise.
    sp:       density, the fraction of pixels forced to 0 or 1.
    poisson:  peak, the photon count corresponding to intensity 1.
    speckle:  variance of the multiplicative noise.
    """

    kind: str
    variance: float | None = None
    density: float | None = None
    peak: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown noise kind %r" % (self.kind,))
        if self.kind == "gaussian":
            if self.variance is None or not 0 <= self.variance < math.inf:
                raise ValueError("gaussian needs a finite variance >= 0")
        elif self.kind == "sp":
            if self.density is None or not 0.0 <= self.density <= 1.0:
                raise ValueError("sp needs density in [0, 1]")
        elif self.kind == "poisson":
            if self.peak is None:
                object.__setattr__(self, "peak", DEFAULT_POISSON_PEAK)
            if not 1 <= self.peak < math.inf:
                raise ValueError("poisson needs a finite peak >= 1")
        elif self.kind == "speckle":
            if self.variance is None:
                object.__setattr__(self, "variance", DEFAULT_SPECKLE_VAR)
            if not 0 <= self.variance < math.inf:
                raise ValueError("speckle needs a finite variance >= 0")

    def text(self):
        """Canonical textual form, e.g. 'gaussian:0.1'."""
        if self.kind == "gaussian":
            return "gaussian:%g" % self.variance
        if self.kind == "sp":
            return "sp:%g" % self.density
        if self.kind == "poisson":
            return "poisson:%g" % self.peak
        return "speckle:%g" % self.variance


def parse_spec(text):
    """Parse the canonical textual form.

    'gaussian:VAR', 'sp:DENSITY', 'poisson[:PEAK]', 'speckle[:VAR]'.
    """
    if not isinstance(text, str):
        raise TypeError("noise spec must be a string, got %r" % (text,))
    parts = text.strip().split(":")
    kind = parts[0]
    if kind not in KINDS:
        raise ValueError("unknown noise kind %r" % (kind,))
    arg = float(parts[1]) if len(parts) > 1 and parts[1] != "" else None
    if len(parts) > 2:
        raise ValueError("malformed noise spec %r" % (text,))
    if kind == "gaussian":
        if arg is None:
            raise ValueError("gaussian spec needs a variance, e.g. gaussian:0.1")
        return NoiseSpec("gaussian", variance=arg)
    if kind == "sp":
        if arg is None:
            raise ValueError("sp spec needs a density, e.g. sp:0.1")
        return NoiseSpec("sp", density=arg)
    if kind == "poisson":
        return NoiseSpec("poisson", peak=arg)
    return NoiseSpec("speckle", variance=arg)


def corrupt(img, spec, rng):
    """Apply one corruption to one image.

    Gaussian: y = x + n,  n ~ N(0, variance) i.i.d. per pixel.
    sp:       round_half_up(density * size) distinct pixels, each forced
              to 0 or 1 with equal probability.
    poisson:  y = Poisson(x * peak) / peak.
    speckle:  y = x + x * n,  n ~ N(0, variance).
    """
    x = np.asarray(img, dtype=np.float64)
    if spec.kind == "gaussian":
        return x + rng.normal(0.0, np.sqrt(spec.variance), size=x.shape)
    if spec.kind == "sp":
        y = x.copy()
        flat = y.reshape(-1)
        k = int(np.floor(spec.density * flat.size + 0.5))
        if k:
            where = rng.choice(flat.size, size=k, replace=False)
            flat[where] = rng.integers(0, 2, size=k).astype(np.float64)
        return y
    if spec.kind == "poisson":
        return rng.poisson(x * spec.peak).astype(np.float64) / spec.peak
    return x + x * rng.normal(0.0, np.sqrt(spec.variance), size=x.shape)


def corrupt_dataset(images, spec, seed):
    """Corrupt a stack of images with per-image substreams.

    Image i uses default_rng([seed, i]), so any subset or ordering of the
    work reproduces the same pixels.
    """
    images = np.asarray(images, dtype=np.float64)
    out = np.empty_like(images)
    for i in range(images.shape[0]):
        out[i] = corrupt(images[i], spec, np.random.default_rng([seed, i]))
    return out


# The eight corruption settings the denoiser bank is trained against,
# in the fixed order used for fusion members and report rows.
STANDARD_NOISES = tuple(parse_spec(text) for text in (
    "gaussian:0.01", "gaussian:0.1", "gaussian:0.5",
    "sp:0.1", "sp:0.25", "sp:0.5",
    "poisson", "speckle",
))
