"""Shared training plumbing for the denoising networks."""

import math
from dataclasses import dataclass, field

import numpy as np

from ..device import DeviceModel
from ..noise import NoiseSpec, corrupt


class TrainingDivergence(RuntimeError):
    """Raised when the epoch loss runs away from its starting value.

    member, when set, names the network that diverged (one of a bank).
    """

    def __init__(self, epoch, rmse, initial_rmse, rmse_log, member=""):
        self.epoch = epoch
        self.rmse = rmse
        self.initial_rmse = initial_rmse
        self.rmse_log = list(rmse_log)
        self.member = member
        super().__init__(
            "%sdiverged at epoch %d: rmse %.6g, initial %.6g (log: %s)"
            % (member + " " if member else "", epoch, rmse, initial_rmse,
               ", ".join("%.4g" % v for v in rmse_log)))

    def __reduce__(self):
        # Rebuilt from its fields, so it crosses a process boundary whole.
        return type(self), (self.epoch, self.rmse, self.initial_rmse,
                            self.rmse_log, self.member)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by all trainers.

    learning_rate decays as 1/sqrt(epoch). batch=1 is the plain online
    delta rule; larger batches apply the mean update over the batch (the
    tuned recipes in the CLI use 64). init 'zero' starts from an empty
    array, 'identity' from a pass-through mapping. device_in_loop
    reprograms the weights through the device model after every epoch
    instead of once at the end.
    """

    # None trains on clean inputs (the classifier); denoiser trainers
    # require a corruption spec.
    train_noise: NoiseSpec | None
    learning_rate: float = 0.01
    epochs: int = 4
    batch: int = 1
    seed: int = 0
    limit: int | None = None
    init: str = "zero"
    clean_fraction: float = 0.5
    device: DeviceModel = field(default_factory=DeviceModel)
    device_in_loop: bool = False

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.init not in ("zero", "identity"):
            raise ValueError("init must be 'zero' or 'identity'")
        if not 0.0 <= self.clean_fraction <= 1.0:
            raise ValueError("clean_fraction must lie in [0, 1]")


# Largest readout gain. No trained weight comes near it, and three
# chained readouts at this gain stay far below float overflow, so a
# network whose gains are all within it has finite outputs.
MAX_GAIN = 2.0 ** 64


def pow2_scale(max_abs):
    """Smallest power of two >= max_abs (1.0 for an empty/zero array).

    Used as the readout gain: dividing weights by a power of two and
    multiplying the readout back is exact in floating point, so ideal
    programming reproduces float inference bit for bit. Raises
    ValueError for a NaN max_abs or one above MAX_GAIN (inf included).
    """
    if max_abs == 0.0:
        return 1.0
    if not max_abs <= MAX_GAIN:
        raise ValueError("weight magnitude %g is not within the largest "
                         "readout gain 2**64" % max_abs)
    return float(2.0 ** np.ceil(np.log2(max_abs)))


def check_epoch(epoch, rmse_log):
    """Raise TrainingDivergence if the epoch just logged has run away:
    its RMSE exceeds twice the first epoch's or is not finite."""
    rmse = rmse_log[-1]
    if not (rmse <= 2.0 * rmse_log[0] and rmse < math.inf):
        raise TrainingDivergence(epoch, rmse, rmse_log[0], rmse_log)


def trained_gain(max_abs, rmse_log):
    """pow2_scale(max_abs) for weights trained for len(rmse_log) epochs.

    Weights whose largest magnitude is NaN or above MAX_GAIN have
    diverged (no readout gain can program them): TrainingDivergence.
    """
    if not max_abs <= MAX_GAIN:
        raise TrainingDivergence(len(rmse_log), rmse_log[-1], rmse_log[0],
                                 rmse_log)
    return pow2_scale(max_abs)


def plane_samples(images):
    """Flatten an image stack to (n_planes, h*w) treating channels as planes."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        n, h, w = images.shape
        return images.reshape(n, h * w), (h, w)
    n, h, w, c = images.shape
    return images.transpose(0, 3, 1, 2).reshape(n * c, h * w), (h, w)


def stack_from_planes(out, images):
    """Inverse of plane_samples: (n_planes, ...) back to the layout of images."""
    if images.ndim == 3:
        return out.reshape(images.shape)
    n, h, w, c = images.shape
    return out.reshape(n, c, h, w).transpose(0, 2, 3, 1)


def chunk_planes(patch_elements):
    """Planes per inference chunk, given one plane's widest patch matrix.

    A chunk holds about 2**19 float64 patch elements (4 MB), at least one
    plane: 9 planes of the fusion net's 784 x 72 patches on 28 x 28
    images, 37 of the CNN's 196 x 72. Callers drop each chunk's patches
    before unfolding the next, so inference memory does not grow with
    the stack.
    """
    return max(1, 2 ** 19 // patch_elements)


def corrupt_plane(flat, shape, spec, seed_seq, clip_input=True):
    """Corrupt one flattened plane with its own substream.

    The analog front end clamps inputs to its [0, 1] voltage window, so
    training and inference see clamped noisy planes by default.
    """
    img = corrupt(flat.reshape(shape), spec, np.random.default_rng(seed_seq))
    if clip_input:
        img = np.clip(img, 0.0, 1.0)
    return img.reshape(-1)
