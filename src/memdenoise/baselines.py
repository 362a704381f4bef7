"""Classical denoising filters used as comparison anchors.

Three filters are implemented: separable Gaussian blur, windowed median,
and total-variation minimization by dual projection.  All are pure,
shape preserving, and emit values in [0, 1].  Bilateral, non-local
means, wavelet shrinkage and Wiener filtering are deliberately not
implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .imagecore import map_planes
from .noise import format_number

__all__ = [
    "MAX_KERNEL_WIDTH",
    "MAX_TV_ITERS",
    "MIN_GAUSS_SIGMA",
    "MIN_TV_WEIGHT",
    "FilterSpec",
    "filter_stack",
    "gaussian_blur",
    "median_filter",
    "parse_filter",
    "tv_denoise",
]

_KINDS = ("gauss", "median", "tv")

# Widest Gaussian or median window in pixels, about three times the
# largest image side read here (32); it keeps a mistyped width from
# overflowing the Gaussian radius or allocating gigabytes for a median.
MAX_KERNEL_WIDTH = 99

# Smallest Gaussian sigma. At and below it the side weights
# exp(-0.5 / sigma**2) are exactly 0, so the kernel is the identity;
# far below it 1 / sigma**2 overflows.
MIN_GAUSS_SIGMA = 0.025

# Smallest TV weight. The dual step is 0.125 / weight: at 1e-100 a
# gradient up to 1e50 still squares far below float max, and a pixel
# moves by at most 4 * weight, far below one step of an image byte.
MIN_TV_WEIGHT = 1e-100

# Most TV iterations, 20 times the tuning grid's 50: a mistyped count
# fails at once instead of running for hours.
MAX_TV_ITERS = 1000


@dataclass(frozen=True)
class FilterSpec:
    """One filter plus its parameters, with a textual round-trip form.

    Textual forms: ``gauss:0.8``, ``median:3``, ``tv:0.1:50``.
    """

    kind: str
    sigma: float = 0.0
    window: int = 3
    tv_weight: float = 0.0
    tv_iters: int = 50

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        # The Gaussian window is 2 * max(1, ceil(3 * sigma)) + 1 wide
        radius = (MAX_KERNEL_WIDTH - 1) // 2
        if self.kind == "gauss" and not (
                MIN_GAUSS_SIGMA <= self.sigma and 3 * self.sigma <= radius):
            raise ValueError(f"gauss requires a sigma in [{MIN_GAUSS_SIGMA}, "
                             f"{radius}/3] (window at most {MAX_KERNEL_WIDTH} "
                             f"pixels)")
        if self.kind == "median" and not (
                3 <= self.window <= MAX_KERNEL_WIDTH and self.window % 2):
            raise ValueError(f"median window must be odd, in [3, "
                             f"{MAX_KERNEL_WIDTH}]")
        if self.kind == "tv":
            if not MIN_TV_WEIGHT <= self.tv_weight < math.inf:
                raise ValueError(f"tv requires a finite tv_weight >= "
                                 f"{MIN_TV_WEIGHT:g}")
            if not 1 <= self.tv_iters <= MAX_TV_ITERS:
                raise ValueError(f"tv requires tv_iters in [1, {MAX_TV_ITERS}]")

    def text(self) -> str:
        if self.kind == "gauss":
            return f"gauss:{format_number(self.sigma)}"
        if self.kind == "median":
            return f"median:{self.window}"
        return f"tv:{format_number(self.tv_weight)}:{self.tv_iters}"


def parse_filter(text: str) -> FilterSpec:
    """Parse the textual form produced by :meth:`FilterSpec.text`."""
    if not isinstance(text, str):
        raise TypeError(f"filter spec must be a string, got {text!r}")
    parts = text.strip().lower().split(":")
    kind, args = parts[0], parts[1:]
    if kind in ("gauss", "gaussian"):
        if len(args) != 1:
            raise ValueError(f"expected gauss:SIGMA, got {text!r}")
        return FilterSpec("gauss", sigma=float(args[0]))
    if kind == "median":
        if len(args) > 1:
            raise ValueError(f"expected median[:WINDOW], got {text!r}")
        return FilterSpec("median", window=int(args[0]) if args else 3)
    if kind == "tv":
        if not 1 <= len(args) <= 2:
            raise ValueError(f"expected tv:WEIGHT[:ITERS], got {text!r}")
        iters = int(args[1]) if len(args) == 2 else 50
        return FilterSpec("tv", tv_weight=float(args[0]), tv_iters=iters)
    raise ValueError(f"unknown filter kind {kind!r}")


def _gauss_planes(planes, spec):
    radius = max(1, math.ceil(3 * spec.sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    weights = np.exp(-0.5 * (offsets / spec.sigma) ** 2)
    weights /= weights.sum()
    out = ndimage.correlate1d(planes, weights, axis=1, mode="reflect")
    return ndimage.correlate1d(out, weights, axis=2, mode="reflect")


def _median_planes(planes, spec):
    return ndimage.median_filter(planes, size=(1, spec.window, spec.window),
                                 mode="reflect")


def _forward_gradient(u, gx, gy):
    # One-sided forward differences over the last two axes, written into
    # gx and gy; their trailing borders are left as they are (zero).
    np.subtract(u[..., 1:, :], u[..., :-1, :], out=gx[..., :-1, :])
    np.subtract(u[..., :, 1:], u[..., :, :-1], out=gy[..., :, :-1])


def _divergence(px, py):
    # Adjoint of the forward gradient: backward differences, truncated
    # so that <grad u, p> == -<u, div p> exactly on the grid.
    div = np.zeros_like(px)
    div[..., :-1, :] += px[..., :-1, :]
    div[..., 1:, :] -= px[..., :-1, :]
    div[..., :, :-1] += py[..., :, :-1]
    div[..., :, 1:] -= py[..., :, :-1]
    return div


def _tv_planes(f, spec):
    weight = spec.tv_weight
    step = 0.125 / weight
    px, py, gx, gy, norm = (np.zeros_like(f) for _ in range(5))
    for _ in range(spec.tv_iters):
        u = f + weight * _divergence(px, py)
        _forward_gradient(u, gx, gy)
        # p <- (p + step * grad u) / max(1, |p + step * grad u|), in place
        gx *= step
        gy *= step
        px += gx
        py += gy
        np.sqrt(px**2 + py**2, out=norm)
        np.maximum(1.0, norm, out=norm)
        px /= norm
        py /= norm
    return f + weight * _divergence(px, py)


_PLANE_KERNELS = {"gauss": _gauss_planes, "median": _median_planes,
                  "tv": _tv_planes}


def filter_stack(imgs, spec: FilterSpec):
    """Apply one filter across an (n, h, w) or (n, h, w, c) stack.

    Channels become (h, w) planes, filtered a chunk of images per call
    (imagecore.map_planes: the TV iteration holds about 12 arrays of
    each plane's size, and stays in cache) and clipped to [0, 1]; every
    image comes out exactly as it would alone.
    """
    kernel = _PLANE_KERNELS[spec.kind]
    return map_planes(lambda planes: np.clip(kernel(planes, spec), 0.0, 1.0),
                      imgs, 12 * np.prod(np.shape(imgs)[1:3]))


def gaussian_blur(img, sigma: float):
    """Separable Gaussian convolution, kernel radius ceil(3*sigma).

    The kernel is built explicitly and normalized to unit sum so a
    constant image passes through unchanged; borders are reflected.
    """
    return filter_stack([img], FilterSpec("gauss", sigma=sigma))[0]


def median_filter(img, window: int = 3):
    """Per-pixel median over a reflect-padded window x window patch."""
    return filter_stack([img], FilterSpec("median", window=window))[0]


def tv_denoise(img, tv_weight: float, tv_iters: int = 50):
    """Total-variation denoising by projection onto the dual ball.

    Runs exactly ``tv_iters`` projected dual ascent steps
    ``p <- proj(p + (tau / tv_weight) * grad u)`` with ``tau = 0.125``,
    recovering the primal image as ``u = f + tv_weight * div p``.  The
    step keeps the objective ``||u - f||^2 + 2 * tv_weight * TV(u)``
    non-increasing across iterations.
    """
    spec = FilterSpec("tv", tv_weight=tv_weight, tv_iters=tv_iters)
    return filter_stack([img], spec)[0]
