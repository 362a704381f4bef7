"""Image quality scoring: MSE, SSIM, and per-dataset aggregates with PSNR.

Intensities are assumed to live in [0, 1], so PSNR uses MAX = 1. SSIM
follows the Wang et al. form with a 7x7 uniform window, C1 = 0.01^2,
C2 = 0.03^2, unbiased (sample) variances, and valid-window-only
averaging; the small uniform window suits 28x28 inputs. Window sums are
taken from integral images, deliberately a different computation route
than the usual uniform-filter implementations so the two can be checked
against each other. One plane kernel serves both single images and whole
stacks: a chunk of images is scored planes last, as one (h, w, planes)
array whose integral images run over its first two axes, so each
shifted add covers every plane at once. An image of c channels scores
each channel plane (imagecore.plane_samples) and averages the c scores.

image_scores gives the per-image SSIM and MSE of test stacks against
one reference stack, and QualityReport.from_scores reduces them: it
averages SSIM and MSE over images and derives PSNR from the mean MSE,
so the psnr = 10 log10(1/mse) identity holds for every emitted report.
"""

from dataclasses import dataclass

import numpy as np

from .imagecore import float_stack, plane_chunks, plane_samples

SSIM_WINDOW = 7
_C1 = 0.01 ** 2
_C2 = 0.03 ** 2
_N = float(SSIM_WINDOW * SSIM_WINDOW)  # pixels per window
_NORM = _N / (_N - 1.0)

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
    # Window sums over the first two axes of an (h, w, m) array, for all m
    # planes at once, from an integral image with a zero border. Its rows
    # are summed one row at a time; then, transposed so that each column
    # is contiguous, its columns one column at a time. Each element is
    # summed in the order of np.cumsum over the rows, then the columns.
    # The sums come out transposed too: S[j, i] sums the k x k window
    # whose top-left corner is (i, j).
    h, w = x.shape[:2]
    rows = np.empty(x.shape)
    rows[0] = x[0]
    for i in range(1, h):
        np.add(rows[i - 1], x[i], out=rows[i])
    ii = np.zeros((w + 1, h + 1) + x.shape[2:])
    ii[1:, 1:] = rows.transpose(1, 0, 2)
    for j in range(1, w):
        np.add(ii[j, 1:], ii[j + 1, 1:], out=ii[j + 1, 1:])
    return ii[k:, k:] - ii[k:, :-k] - ii[:-k, k:] + ii[:-k, :-k]


def _planes_last(images):
    # An (m, h, w) or (m, h, w, c) stack's channel planes as one
    # C-contiguous (h, w, m*c) array, in plane_samples order.
    planes, (h, w) = plane_samples(images)
    return np.ascontiguousarray(planes.T).reshape(h, w, -1)


def _reference(a):
    # What every test stack scored against the (m, h, w) or (m, h, w, c)
    # reference stack a shares: its planes last (x), their window means
    # (ua), 2 * ua, ua * ua and their window variances (va).
    x = _planes_last(a)
    h, w = x.shape[:2]
    k = SSIM_WINDOW
    if h < k or w < k:
        raise ValueError("image %r smaller than %dx%d window" % ((h, w), k, k))
    ua = _window_sums(x, k) / _N
    uaa = ua * ua
    # unbiased variance/covariance, n/(n-1) on the centered second moments
    va = (_window_sums(x * x, k) / _N - uaa) * _NORM
    return x, ua, 2.0 * ua, uaa, va


def _ssim_images(ref, b):
    # Per-image SSIM of an (m, h, w) or (m, h, w, c) stack b against the
    # reference whose _reference is ref: the mean of each image's channel
    # plane scores.
    x, ua, ua2, uaa, va = ref
    y = _planes_last(b)
    k = SSIM_WINDOW
    ub = _window_sums(y, k) / _N
    ubb = ub * ub
    vb = (_window_sums(y * y, k) / _N - ubb) * _NORM
    cab = (_window_sums(x * y, k) / _N - ua * ub) * _NORM
    s = ((ua2 * ub + _C1) * (2.0 * cab + _C2)) / (
        (uaa + ubb + _C1) * (va + vb + _C2))
    # each plane's windows averaged row by row, as an (m*c, h, w) stack
    # of planes would average them
    per_plane = np.mean(np.ascontiguousarray(s.transpose(2, 1, 0)),
                        axis=(1, 2))
    return np.mean(per_plane.reshape(len(b), -1), axis=1)


def ssim(a, b):
    """Mean structural similarity; a multi-channel image scores each
    channel plane, then averages."""
    a, b = _pair(a, b)
    return float(_ssim_images(_reference(a[None]), b[None])[0])


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


def image_scores(reference, *tests):
    """Per-image SSIM and MSE arrays of stacks of test images against one
    stack of their references: one (ssims, mses) pair per test stack.

    Every stack is (n, h, w) or (n, h, w, c), the shape of the
    reference, scored in plane_chunks of images sized for 16 arrays of
    an image's size: the reference's window statistics are taken once
    per chunk and shared by every test stack. At its peak SSIM holds
    about 10 such arrays (tracemalloc, 28 x 28 images, gray or RGB),
    however many test stacks share the reference. Each image's scores
    equal :func:`ssim` and :func:`mse` on that image alone, bit for bit,
    so the scores of consecutive slices of a stack, concatenated, equal
    the scores of the whole stack. TypeError for an integer stack
    (imagecore.float_stack).
    """
    reference = float_stack(reference)
    tests = [_pair(reference, float_stack(test))[1] for test in tests]
    if reference.ndim < 3:
        raise ValueError("expected an image stack")
    n = reference.shape[0]
    if n < 1:
        raise ValueError("empty stack")
    scores = [(np.empty(n), np.empty(n)) for _ in tests]
    for chunk in plane_chunks(n, 16 * reference[0].size):
        a = reference[chunk]
        ref = _reference(a)
        for test, (ssims, mses) in zip(tests, scores):
            ssims[chunk] = _ssim_images(ref, test[chunk])
            mses[chunk] = _mse_images(a, test[chunk])
    return scores
