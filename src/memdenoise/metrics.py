"""Image quality scoring: MSE, SSIM, and per-dataset aggregates with PSNR.

Intensities are assumed to live in [0, 1], so PSNR uses MAX = 1. SSIM
follows the Wang et al. form with a 7x7 uniform window, C1 = 0.01^2,
C2 = 0.03^2, unbiased (sample) variances, and valid-window-only
averaging; the small uniform window suits 28x28 inputs. Window sums are
taken from integral images over the last two axes, deliberately a
different computation route than the usual uniform-filter
implementations so the two can be checked against each other. One plane
kernel serves both single images and whole stacks; an image of c
channels scores each channel plane (imagecore.plane_samples) and
averages the c scores.

image_scores gives a stack's per-image SSIM and MSE, and
QualityReport.from_scores reduces them: it averages SSIM and MSE over
images and derives PSNR from the mean MSE, so the psnr = 10 log10(1/mse)
identity holds for every emitted report.
"""

from dataclasses import dataclass

import numpy as np

from .imagecore import float_stack, plane_chunks, plane_samples

SSIM_WINDOW = 7
_C1 = 0.01 ** 2
_C2 = 0.03 ** 2

CSV_HEADER = "noise,method,ssim,mse,psnr,n"


def _pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("shape mismatch %r vs %r" % (a.shape, b.shape))
    return a, b


def _mse_images(a, b):
    # Per-image MSE of two (m, ...) stacks.
    d = a - b
    return np.mean(d * d, axis=tuple(range(1, a.ndim)))


def mse(a, b):
    """Mean squared error over all elements."""
    a, b = _pair(a, b)
    return float(_mse_images(a[None], b[None])[0])


def _window_sums(x, k):
    # Integral images over the last two axes with a zero border;
    # S[..., i, j] sums the k x k window whose top-left corner is (i, j).
    ii = np.zeros(x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1] + 1))
    np.cumsum(x, axis=-2, out=ii[..., 1:, 1:])
    np.cumsum(ii[..., 1:, 1:], axis=-1, out=ii[..., 1:, 1:])
    return (ii[..., k:, k:] - ii[..., :-k, k:] - ii[..., k:, :-k]
            + ii[..., :-k, :-k])


def _ssim_images(a, b):
    # Per-image SSIM of two (m, h, w) or (m, h, w, c) stacks: the mean of
    # each image's channel plane scores.
    m = len(a)
    (a, (h, w)), (b, _) = plane_samples(a), plane_samples(b)
    a, b = a.reshape(-1, h, w), b.reshape(-1, h, w)
    k = SSIM_WINDOW
    if h < k or w < k:
        raise ValueError("image %r smaller than %dx%d window" % ((h, w), k, k))
    n = float(k * k)
    sa = _window_sums(a, k)
    sb = _window_sums(b, k)
    saa = _window_sums(a * a, k)
    sbb = _window_sums(b * b, k)
    sab = _window_sums(a * b, k)
    ua = sa / n
    ub = sb / n
    # unbiased variance/covariance, n/(n-1) on the centered second moments
    norm = n / (n - 1.0)
    va = (saa / n - ua * ua) * norm
    vb = (sbb / n - ub * ub) * norm
    cab = (sab / n - ua * ub) * norm
    s = ((2.0 * ua * ub + _C1) * (2.0 * cab + _C2)) / (
        (ua * ua + ub * ub + _C1) * (va + vb + _C2))
    return np.mean(np.mean(s, axis=(-2, -1)).reshape(m, -1), axis=1)


def ssim(a, b):
    """Mean structural similarity; a multi-channel image scores each
    channel plane, then averages."""
    a, b = _pair(a, b)
    return float(_ssim_images(a[None], b[None])[0])


@dataclass(frozen=True)
class QualityReport:
    """Aggregate scores for one (noise, method) condition over a test set.

    psnr is None when mean mse is exactly 0 (printed as '-').
    """

    noise: str
    method: str
    ssim: float
    mse: float
    psnr: float | None
    n_images: int

    @classmethod
    def from_scores(cls, noise, method, ssims, mses):
        """The report of per-image SSIM and MSE arrays (image_scores):
        their means, and PSNR from the mean MSE."""
        mean_mse = float(np.mean(mses))
        p = None if mean_mse == 0.0 else float(10.0 * np.log10(1.0 / mean_mse))
        return cls(noise=noise, method=method, ssim=float(np.mean(ssims)),
                   mse=mean_mse, psnr=p, n_images=len(mses))

    def to_json(self) -> dict:
        return {"noise": self.noise, "method": self.method, "ssim": self.ssim,
                "mse": self.mse, "psnr": self.psnr, "n": self.n_images}

    def csv_row(self):
        p = "-" if self.psnr is None else "%.6g" % self.psnr
        return "%s,%s,%.6g,%.6g,%s,%d" % (
            self.noise, self.method, self.ssim, self.mse, p, self.n_images)


def image_scores(reference, test):
    """Per-image SSIM and MSE arrays of a stack of test images against
    their references.

    Both stacks are (n, h, w) or (n, h, w, c), scored in plane_chunks of
    images (SSIM holds about 16 arrays of an image's size). Each image's
    scores equal :func:`ssim` and :func:`mse` on that image alone, bit for
    bit, so the scores of consecutive slices of a stack, concatenated,
    equal the scores of the whole stack. TypeError for an integer stack
    (imagecore.float_stack).
    """
    reference, test = _pair(float_stack(reference), float_stack(test))
    if reference.ndim < 3:
        raise ValueError("expected an image stack")
    n = reference.shape[0]
    if n < 1:
        raise ValueError("empty stack")
    ssims = np.empty(n)
    mses = np.empty(n)
    for chunk in plane_chunks(n, 16 * reference[0].size):
        a, b = reference[chunk], test[chunk]
        ssims[chunk] = _ssim_images(a, b)
        mses[chunk] = _mse_images(a, b)
    return ssims, mses
