"""Shared fixtures: dataset access and session-scoped trained models.

MNIST is looked up under $MEMDENOISE_DATA (default /root/data/mnist).
Tests that need it skip loudly when the files are absent.  Training
fixtures use the recipes shipped as the CLI defaults, so what the tests
certify is exactly what the command line produces.
"""

import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from memdenoise.classify import train_classifier
from memdenoise.cli import (CLASSIFIER_RECIPE, DENSE_RATE_OVERRIDES,
                            TRAIN_RECIPES)
from memdenoise.imagecore import load_mnist
from memdenoise.nets.common import TrainConfig
from memdenoise.nets.dense import DenseDenoiser, dense_train
from memdenoise.nets.fusion import fusion_train
from memdenoise.noise import STANDARD_NOISES, parse_spec

DATA_ROOT = os.environ.get("MEMDENOISE_DATA", "/root/data/mnist")

# CI selects the "ci" profile (HYPOTHESIS_PROFILE=ci) so every run draws
# the same examples.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

MEMBER_SEED = 7
FUSION_SEED = 11
CLASSIFIER_SEED = 0
EVAL_SEED = 100


def write_idx_images(path, images):
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(labels.tobytes())


def identity_dense(h, w):
    """Pass-through dense net for (h, w) planes: diagonal 1, bias row 0,
    unit gain."""
    p = h * w
    weights = np.zeros((p + 1, p))
    weights[:p] = np.eye(p)
    return DenseDenoiser(weights, (h, w))


def running(pid):
    """Whether process pid exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# Damage a fuzz does to a file's bytes: cut it at a fraction of its
# length, append bytes, or flip bits of the byte at a fraction of it.
DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True),
              st.integers(1, 255)),
)


def damaged(blob, damage):
    """blob after one DAMAGE; a cut or flip at fraction f acts on byte
    int(f * len(blob)) (a flip needs a non-empty blob)."""
    if damage[0] == "truncate":
        return blob[:int(damage[1] * len(blob))]
    if damage[0] == "append":
        return blob + damage[1]
    out = bytearray(blob)
    out[int(damage[1] * len(blob))] ^= damage[2]
    return bytes(out)


def spec_texts(kinds):
    """Hypothesis strategy for a spec parser: "kind:field[:field...]" with
    one of the given kinds, each field a float's repr (often a small
    positive one), an integer or a short string; or any string or a
    non-string."""
    field = st.one_of(st.floats(0, 100).map(repr), st.floats().map(repr),
                      st.integers(0, 200).map(str), st.integers().map(str),
                      st.text(max_size=4))
    spec = st.builds(lambda kind, fields: ":".join([kind, *fields]),
                     st.sampled_from(kinds), st.lists(field, max_size=3))
    return st.one_of(spec, st.text(), st.integers(), st.none())


def drop_arrays(blob, names):
    """A checkpoint container without the named arrays, header and bytes."""
    n = int.from_bytes(blob[12:16], "little")
    header = json.loads(blob[16:16 + n])
    off, kept, parts = 16 + n, [], []
    for name, dtype, shape in header["arrays"]:
        size = np.dtype(dtype).itemsize * math.prod(shape)
        if name not in names:
            kept.append([name, dtype, shape])
            parts.append(blob[off:off + size])
        off += size
    header["arrays"] = kept
    hdr = json.dumps(header, sort_keys=True).encode()
    return blob[:12] + len(hdr).to_bytes(4, "little") + hdr + b"".join(parts)


@pytest.fixture(scope="session")
def mnist():
    try:
        return load_mnist(DATA_ROOT, "train"), load_mnist(DATA_ROOT, "test")
    except Exception as e:
        pytest.skip(f"MNIST not available under {DATA_ROOT!r} "
                    f"(set MEMDENOISE_DATA to the IDX directory): {e}")


@pytest.fixture(scope="session")
def mnist_train(mnist):
    return mnist[0]


@pytest.fixture(scope="session")
def mnist_test(mnist):
    return mnist[1]


def member_config(noise_text):
    """The frozen per-noise dense training configuration."""
    recipe = TRAIN_RECIPES["dense"]
    return TrainConfig(
        train_noise=parse_spec(noise_text),
        learning_rate=DENSE_RATE_OVERRIDES.get(noise_text,
                                               recipe["learning_rate"]),
        epochs=recipe["epochs"], batch=recipe["batch"], seed=MEMBER_SEED,
        limit=recipe["limit"], init="zero")


@pytest.fixture(scope="session")
def member_bank(mnist_train):
    """All eight per-noise dense denoisers at the shipped recipes."""
    return {spec.text(): dense_train(member_config(spec.text()), mnist_train)
            for spec in STANDARD_NOISES}


@pytest.fixture(scope="session")
def fusion_net(member_bank, mnist_train):
    recipe = TRAIN_RECIPES["fusion"]
    cfg = TrainConfig(train_noise=None, learning_rate=recipe["learning_rate"],
                      epochs=recipe["epochs"], batch=recipe["batch"],
                      seed=FUSION_SEED, limit=recipe["limit"], init="identity",
                      clean_fraction=0.5)
    members = [member_bank[s.text()] for s in STANDARD_NOISES]
    return fusion_train(cfg, members, mnist_train)


@pytest.fixture(scope="session")
def classifier(mnist_train):
    cfg = TrainConfig(train_noise=None, seed=CLASSIFIER_SEED,
                      **CLASSIFIER_RECIPE)
    return train_classifier(mnist_train, cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
