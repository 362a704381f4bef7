"""Shared plumbing of the denoising networks: the programmed crossbar
layer, the device record of a checkpoint and the training schedule."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .. import crossbar
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


class ImageShapeError(ValueError):
    """An image stack whose planes are not the size a network was built for."""


def check_planes(images, shape, owner):
    """images as a float64 stack; ImageShapeError unless its planes are shape."""
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1:3] != tuple(shape):
        raise ImageShapeError(
            f"images {images.shape}, {owner} expects {tuple(shape)}")
    return images


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
        real, whole = numbers.Real, numbers.Integral
        for name, kind, ok, rule in [
                ("learning_rate", real, lambda v: v >= 0, "a number >= 0"),
                ("epochs", whole, lambda v: v >= 0, "an integer >= 0"),
                ("batch", whole, lambda v: v >= 1, "an integer >= 1"),
                ("limit", (whole, type(None)), lambda v: v is None or v >= 1,
                 "None or an integer >= 1"),
                ("init", str, lambda v: v in ("zero", "identity"),
                 "'zero' or 'identity'"),
                ("clean_fraction", real, lambda v: 0.0 <= v <= 1.0,
                 "a number in [0, 1]")]:
            value = getattr(self, name)
            if not (isinstance(value, kind) and ok(value)):
                raise ValueError(f"{name} must be {rule}, got {value!r}")


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


def max_abs(a):
    """Largest |entry| of a (NaN if any is NaN), with no |a| temporary."""
    return max(a.max(initial=0.0), -a.min(initial=0.0))


class Layer:
    """Read-only float weights, their gain pow2_scale(max |w|) and the
    crossbar holding weights / gain: tiled if given, else programmed
    through device with rng. read(xs) is the readout times the gain."""

    def __init__(self, weights, device, rng, tiled=None):
        self.gain = pow2_scale(max_abs(weights))
        weights.setflags(write=False)
        self.weights = weights
        if tiled is None:
            tiled = crossbar.program(weights / self.gain, device, rng)
        elif (tiled.rows, tiled.cols) != weights.shape:
            raise ValueError("crossbar %r, weights %r"
                             % ((tiled.rows, tiled.cols), weights.shape))
        self.tiled = tiled

    def read(self, xs):
        return crossbar.matmul(self.tiled, xs) * self.gain


def device_meta(net):
    """The training log and device record every network checkpoint stores."""
    return {"rmse_log": net.rmse_log, "levels": net.device.levels,
            "variation_sigma": net.device.variation_sigma,
            "program_seed": net.program_seed}


def device_args(meta):
    """Constructor keywords rebuilding the record device_meta stored."""
    return {"rmse_log": meta["rmse_log"], "program_seed": meta["program_seed"],
            "device": DeviceModel(levels=meta["levels"],
                                  variation_sigma=meta["variation_sigma"])}


def training_epochs(cfg, n):
    """(epoch, learning_rate / sqrt(epoch), minibatches) per epoch: the
    minibatches are cfg.batch-sample index arrays (the last may be short)
    of n samples shuffled each epoch by the [seed, 0x5F] stream."""
    rng = np.random.default_rng([cfg.seed, 0x5F])
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        yield (epoch, cfg.learning_rate / np.sqrt(epoch),
               [perm[i:i + cfg.batch] for i in range(0, n, cfg.batch)])


def check_epoch(epoch, rmse_log):
    """Raise TrainingDivergence if the epoch just logged has run away:
    its RMSE exceeds twice the first epoch's or is not finite."""
    rmse = rmse_log[-1]
    if not (rmse <= 2.0 * rmse_log[0] and rmse < math.inf):
        raise TrainingDivergence(epoch, rmse, rmse_log[0], rmse_log)


def check_trained(rmse_log, *arrays):
    """Raise TrainingDivergence if an array trained for len(rmse_log)
    epochs holds NaN or a magnitude above MAX_GAIN: no readout gain can
    program it."""
    if not all(max_abs(a) <= MAX_GAIN for a in arrays):
        raise TrainingDivergence(len(rmse_log), rmse_log[-1], rmse_log[0],
                                 rmse_log)


def device_in_loop(weights, cfg, epoch, rmse_log):
    """weights as read back after programming them through cfg.device
    with the [seed, 0x71, epoch] stream, if cfg trains device-in-loop on
    a non-ideal device; else weights unchanged."""
    if not cfg.device_in_loop or cfg.device.ideal:
        return weights
    check_trained(rmse_log, weights)
    layer = Layer(weights.reshape(len(weights), -1), cfg.device,
                  np.random.default_rng([cfg.seed, 0x71, epoch]))
    return (layer.gain * layer.tiled.effective_weights()).reshape(weights.shape)


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


def corrupt_plane(flat, shape, spec, seed_seq):
    """Corrupt one flattened plane with its own substream, clamped.

    The analog front end clamps inputs to its [0, 1] voltage window, so
    training sees clamped noisy planes.
    """
    img = corrupt(flat.reshape(shape), spec, np.random.default_rng(seed_seq))
    return np.clip(img, 0.0, 1.0).reshape(-1)
