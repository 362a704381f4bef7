"""Shared plumbing of the networks: the programmed crossbar layer, the
device record of a checkpoint and fit, the one training loop."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .. import crossbar
from ..device import DeviceModel
from ..imagecore import plane_samples
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
    instead of once at the end. limit keeps the first limit training
    samples: channel planes for the denoisers (an RGB image is three),
    whole images for the classifier.
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


def check_trained(log, *arrays):
    """Raise TrainingDivergence if an array trained for len(log) epochs
    holds NaN or a magnitude above MAX_GAIN: no readout gain can
    program it."""
    if not all(max_abs(a) <= MAX_GAIN for a in arrays):
        raise TrainingDivergence(len(log), log[-1], log[0], log)


def training_planes(data, cfg):
    """The first cfg.limit channel planes of data's images (all of them
    without a limit) as (n, h*w) float64 rows, and the plane shape. Only
    the images holding those planes are converted and copied into planes."""
    part = slice(None)
    if cfg.limit is not None:
        channels = data.images.shape[3] if data.images.ndim == 4 else 1
        part = slice(-(-cfg.limit // channels))
    clean, shape = plane_samples(data.floats(part))
    return clean[:cfg.limit], shape


def fit(cfg, n, step, params, score, in_loop=(), plan=None):
    """Train params in place on n samples; return the per-epoch log.

    Each epoch shuffles the samples with the [seed, 0x5F] stream and
    calls step(epoch, learning_rate / sqrt(epoch), idx) on each cfg.batch
    index array in turn (the last may be short). plan, when given, is
    called as plan(epoch, batches) with the epoch's list of those index
    arrays before its first step, so a trainer can prepare work that
    does not depend on params ahead of the steps. step updates params and
    returns that minibatch's loss terms, added one by one in order into
    the epoch's sum; score(sum) is logged. TrainingDivergence when a
    logged score is not finite or exceeds twice its reference, or when a
    trained array cannot be programmed (check_trained). The first
    epoch's reference is the untrained score: score of the first
    minibatch's loss terms, which each step computes before its update,
    scaled to n samples. Each later epoch's reference is the first
    epoch's score. With
    cfg.device_in_loop on a non-ideal device, every in_loop array is
    overwritten after each epoch by its read-back through cfg.device
    with the [seed, 0x71, epoch] stream.
    """
    rng = np.random.default_rng([cfg.seed, 0x5F])
    log = []
    untrained = None
    for epoch in range(1, cfg.epochs + 1):
        eta = cfg.learning_rate / np.sqrt(epoch)
        perm = rng.permutation(n)
        batches = [perm[lo:lo + cfg.batch] for lo in range(0, n, cfg.batch)]
        if plan is not None:
            plan(epoch, batches)
        total = 0.0
        for idx in batches:
            for term in step(epoch, eta, idx):
                total += term
            if untrained is None:
                untrained = score(total * n / len(idx))
        log.append(score(total))
        reference = log[0] if epoch > 1 else untrained
        if not (log[-1] <= 2.0 * reference and log[-1] < math.inf):
            raise TrainingDivergence(epoch, log[-1], reference, log)
        if cfg.device_in_loop and not cfg.device.ideal:
            check_trained(log, *in_loop)
            for a in in_loop:
                layer = Layer(a.reshape(len(a), -1), cfg.device,
                              np.random.default_rng([cfg.seed, 0x71, epoch]))
                a[...] = (layer.gain * layer.tiled.effective_weights()
                          ).reshape(a.shape)
    check_trained(log, *params)
    return log


def corrupt_plane(flat, shape, spec, seed_seq):
    """Corrupt one flattened plane with its own substream, clamped.

    The analog front end clamps inputs to its [0, 1] voltage window, so
    training sees clamped noisy planes.
    """
    img = corrupt(flat.reshape(shape), spec, np.random.default_rng(seed_seq))
    return np.clip(img, 0.0, 1.0).reshape(-1)
