"""Image quality scoring: MSE, SSIM, and per-dataset aggregates with PSNR.

Intensities are assumed to live in [0, 1], so PSNR uses MAX = 1. SSIM
follows the Wang et al. form with a 7x7 uniform window, C1 = 0.01^2,
C2 = 0.03^2, unbiased (sample) variances, and valid-window-only
averaging; the small uniform window suits 28x28 inputs. Window sums are
taken from integral images over the last two axes, deliberately a
different computation route than the usual uniform-filter
implementations so the two can be checked against each other. One plane
kernel serves both single images and whole stacks.

Aggregate reports average SSIM and MSE over images and derive PSNR from
the mean MSE, so the psnr = 10 log10(1/mse) identity holds for every
emitted report.
"""

from dataclasses import dataclass

import numpy as np

SSIM_WINDOW = 7
_C1 = 0.01 ** 2
_C2 = 0.03 ** 2

CSV_HEADER = "noise,method,ssim,mse,psnr,n"


# Planes scored per pass of the stack scorer: each temporary stays under
# 1 MB at 28x28, whatever the stack length.
_CHUNK_PLANES = 128


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
    # Per-image SSIM of two (m, h, w) or (m, h, w, c) stacks. Channels
    # become planes of their own, scored over the last two axes, and RGB
    # images average their channel scores.
    rgb = a.ndim == 4 and a.shape[3] in (1, 3)
    if rgb:
        a, b = np.moveaxis(a, 3, 1), np.moveaxis(b, 3, 1)
    elif a.ndim != 3:
        raise ValueError("bad image shape %r" % (a.shape[1:],))
    k = SSIM_WINDOW
    if a.shape[-2] < k or a.shape[-1] < k:
        raise ValueError("image %r smaller than %dx%d window"
                         % (a.shape[-2:], k, k))
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
    scores = np.mean(s, axis=(-2, -1))
    return np.mean(scores, axis=1) if rgb else scores


def ssim(a, b):
    """Mean structural similarity; RGB scores per channel, then averages."""
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

    def to_json(self) -> dict:
        return {"noise": self.noise, "method": self.method, "ssim": self.ssim,
                "mse": self.mse, "psnr": self.psnr, "n": self.n_images}

    def csv_row(self):
        p = "-" if self.psnr is None else "%.6g" % self.psnr
        return "%s,%s,%.6g,%.6g,%s,%d" % (
            self.noise, self.method, self.ssim, self.mse, p, self.n_images)


def evaluate_pairs(reference, test, noise="", method=""):
    """Score a stack of test images against their references.

    Both stacks are (n, h, w) or (n, h, w, c), scored a chunk of planes
    at a time. SSIM and MSE are averaged over images; PSNR is derived
    from the mean MSE. Each image's scores equal :func:`ssim` and
    :func:`mse` on that image alone, bit for bit.
    """
    reference, test = _pair(reference, test)
    if reference.ndim < 3:
        raise ValueError("expected an image stack")
    n = reference.shape[0]
    if n < 1:
        raise ValueError("empty stack")
    planes = reference.shape[3] if reference.ndim == 4 else 1
    step = max(1, _CHUNK_PLANES // planes)
    ssims = np.empty(n)
    mses = np.empty(n)
    for lo in range(0, n, step):
        a, b = reference[lo:lo + step], test[lo:lo + step]
        ssims[lo:lo + step] = _ssim_images(a, b)
        mses[lo:lo + step] = _mse_images(a, b)
    mean_mse = float(np.mean(mses))
    p = None if mean_mse == 0.0 else float(10.0 * np.log10(1.0 / mean_mse))
    return QualityReport(noise=noise, method=method, ssim=float(np.mean(ssims)),
                         mse=mean_mse, psnr=p, n_images=n)
