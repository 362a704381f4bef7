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
    calibrated against the reference noisy MSE (0.052 and 0.114); the
    defaults and ranges of all four are the PARAMS table.

Determinism: per-image generator substreams are spawned as
default_rng([seed, image_index]), so corrupting a dataset is order
independent and parallelizes without changing results.
"""

from dataclasses import dataclass

import numpy as np

from .imagecore import float_stack

# Per kind: the parameter's name, default (None: it must be given) and
# closed range. numpy draws Poisson counts up to about 9.2e18; at 2**62
# (4.6e18) every filter and SSIM still score the corrupted images finitely.
PARAMS = {
    "gaussian": ("variance", None, 0.0, 2.0**62),
    "sp": ("density", None, 0.0, 1.0),
    "poisson": ("peak", 2.5, 1.0, 2.0**62),
    "speckle": ("variance", 1.0, 0.0, 2.0**62),
}


def format_number(x):
    """%g of x when that reads back as x, else repr(x)."""
    return "%g" % x if float("%g" % x) == x else repr(x)


@dataclass(frozen=True)
class NoiseSpec:
    """One corruption: its kind and that kind's one parameter (PARAMS
    names it; corrupt says what it does)."""

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise ValueError("unknown noise kind %r" % (self.kind,))
        name, default, lo, hi = PARAMS[self.kind]
        if self.param is None:
            object.__setattr__(self, "param", default)
        if self.param is None or not lo <= self.param <= hi:  # NaN too
            raise ValueError("%s needs a %s in [%g, %g], got %r"
                             % (self.kind, name, lo, hi, self.param))

    def text(self):
        """Canonical textual form, e.g. 'gaussian:0.1'."""
        return "%s:%s" % (self.kind, format_number(self.param))


def parse_spec(text):
    """Parse the canonical textual form.

    'gaussian:VAR', 'sp:DENSITY', 'poisson[:PEAK]', 'speckle[:VAR]'.
    """
    if not isinstance(text, str):
        raise TypeError("noise spec must be a string, got %r" % (text,))
    kind, *args = text.strip().split(":")
    if len(args) > 1:
        raise ValueError("malformed noise spec %r" % (text,))
    return NoiseSpec(kind, float(args[0]) if args and args[0] else None)


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
        return x + rng.normal(0.0, np.sqrt(spec.param), size=x.shape)
    if spec.kind == "sp":
        y = x.copy()
        flat = y.reshape(-1)
        k = int(np.floor(spec.param * flat.size + 0.5))
        if k:
            where = rng.choice(flat.size, size=k, replace=False)
            flat[where] = rng.integers(0, 2, size=k).astype(np.float64)
        return y
    if spec.kind == "poisson":
        return rng.poisson(x * spec.param).astype(np.float64) / spec.param
    return x + x * rng.normal(0.0, np.sqrt(spec.param), size=x.shape)


def corrupt_dataset(images, spec, seed, start=0):
    """Corrupt a stack of images with per-image substreams.

    images are images start, start + 1, ... of a dataset, and dataset
    image i uses default_rng([seed, i]). So a slice of a dataset,
    corrupted with start at its first index, equals those rows of the
    whole dataset's corruption, and any split or ordering of the work
    reproduces the same pixels. TypeError for an integer stack
    (imagecore.float_stack).
    """
    images = float_stack(images)
    out = np.empty_like(images)
    for i in range(images.shape[0]):
        out[i] = corrupt(images[i], spec,
                         np.random.default_rng([seed, start + i]))
    return out


# The eight corruption settings the denoiser bank is trained against,
# in the fixed order used for fusion members and report rows.
STANDARD_NOISES = tuple(parse_spec(text) for text in (
    "gaussian:0.01", "gaussian:0.1", "gaussian:0.5",
    "sp:0.1", "sp:0.25", "sp:0.5",
    "poisson", "speckle",
))
