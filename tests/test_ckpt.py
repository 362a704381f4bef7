"""The checkpoint container: layout, hostile bytes, and streamed memory."""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DAMAGE, damaged, identity_dense, write_idx_images,
                      write_idx_labels)
from memdenoise import ckpt
from memdenoise.classify import Classifier
from memdenoise.cli import CliError, load_net, main
from memdenoise.device import DeviceModel
from memdenoise.nets.cnn import CnnDenoiser
from memdenoise.nets.dense import DenseDenoiser
from memdenoise.nets.fusion import FusionDenoiser, fusion_init

MB = 2 ** 20


def small_nets():
    """One small network of every checkpoint kind, programmed state in all."""
    rng = np.random.default_rng(3)
    dev = DeviceModel(levels=16, variation_sigma=0.05)
    dense = DenseDenoiser(rng.normal(0, 0.1, (17, 16)), (4, 4),
                          train_noise="gaussian:0.1", rmse_log=[0.2, 0.1],
                          device=dev, program_seed=5)
    members = [dense.with_sparsity(0.1, 0.2, seed=1),
               identity_dense(4, 4)]
    return {
        "dense": dense,
        "cnn": CnnDenoiser(rng.normal(0, 0.3, (8, 3, 3)),
                           np.full((8, 3, 3), 1.0 / 72), np.eye(3) / 3,
                           train_noise="sp:0.1", device=dev),
        "fusion": FusionDenoiser(members, rng.normal(0, 0.2, (2, 3, 3)),
                                 device=dev, program_seed=2),
        # 4 hidden units drawn as Classifier.initial((4, 4), seed=1)
        # draws its HIDDEN: a small blob for the damage tests
        "classifier": Classifier(
            np.random.default_rng([1, 0x43]).normal(0.0, np.sqrt(2 / 16),
                                                    (16, 4)),
            np.zeros(4), np.zeros((4, 10)), np.zeros(10), (4, 4)),
    }


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    out = {}
    for kind, net in small_nets().items():
        net.save(root / kind)
        out[kind] = (root / kind).read_bytes()
    return root, out


CLASSES = {"dense": DenseDenoiser, "cnn": CnnDenoiser,
           "fusion": FusionDenoiser, "classifier": Classifier}


def load(kind, path):
    """The checkpoint at path, read as kind."""
    return ckpt.load(path, {kind: CLASSES[kind].from_state})[1]


def crossbar_layers(kind, net):
    """The programmed crossbar layers of a net of kind, in read order."""
    if kind == "cnn":
        return [net.m1, net.m3, net.m2]
    members = net.members if kind == "fusion" else []
    return [m.layer for m in members] + [net.layer]


class TestLayout:
    @pytest.mark.parametrize("kind", sorted(CLASSES))
    def test_save_load_save_gives_equal_files(self, blobs, tmp_path, kind):
        root, saved = blobs
        load(kind, root / kind).save(tmp_path / "again")
        assert (tmp_path / "again").read_bytes() == saved[kind]

    def test_load_net_dispatches_on_kind(self, blobs):
        root, _ = blobs
        for kind in ("dense", "cnn", "fusion"):
            got, net = load_net(str(root / kind))
            assert got == kind and type(net) is CLASSES[kind]

    def test_classifier_is_not_a_denoiser(self, blobs):
        root, _ = blobs
        with pytest.raises(CliError, match="holds a classifier checkpoint"):
            load_net(str(root / "classifier"))

    def test_wrong_kind_for_class(self, blobs):
        root, _ = blobs
        with pytest.raises(ValueError, match="expected dense"):
            load("dense", root / "cnn")

    def test_arrays_are_read_only_views_of_the_file(self, blobs):
        root, saved = blobs
        _, (meta, arrays) = ckpt.load(root / "dense",
                                      {"dense": lambda m, a: (m, a)})
        for name, a in arrays.items():
            assert not a.flags.writeable and a.flags.c_contiguous
            assert not a.flags.owndata and a.base is not None
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[:1] = 0
        # each array's bytes are the file's own, at its offset in header order
        tail = b"".join(a.tobytes() for a in arrays.values())
        assert saved["dense"].endswith(tail)
        net = load("classifier", root / "classifier")
        assert not net.w1.flags.writeable and not net.w1.flags.owndata

    def test_empty_and_boolean_arrays(self, tmp_path):
        path = tmp_path / "x"
        arrays = {"empty": np.zeros((0, 3)), "mask": np.array([True, False]),
                  "ints": np.arange(3)}
        ckpt.save(path, "demo", {"a": 1}, arrays)
        kind, (meta, back) = ckpt.load(path, {"demo": lambda m, a: (m, a)})
        assert kind == "demo" and meta == {"a": 1}
        assert back["empty"].shape == (0, 3)
        assert back["mask"].dtype == bool and back["mask"].tolist() == [True, False]
        assert back["ints"].dtype == np.float64
        assert back["ints"].tolist() == [0.0, 1.0, 2.0]


# Test images for the 4 x 4 nets: extremes and mid-grey included.
PROBE = np.stack([np.zeros((4, 4)), np.ones((4, 4)), np.full((4, 4), 0.5),
                  np.random.default_rng(8).random((4, 4))])


class TestHostileBytes:
    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(sorted(CLASSES)), damage=DAMAGE)
    def test_loads_or_names_the_path(self, blobs, kind, damage):
        root, saved = blobs
        path = root / "damaged.bin"
        path.write_bytes(damaged(saved[kind], damage))
        try:
            net = load(kind, path)
        except ValueError as e:
            assert str(e).count(str(path)) == 1
        else:
            # whatever loads denoises or classifies to finite values (and,
            # with RuntimeWarnings as errors, without an overflow)
            if kind == "classifier":
                out = net.logits(PROBE.reshape(len(PROBE), -1))
                assert out.shape == (len(PROBE), 10)
            else:
                out = net.forward_stack(PROBE)
                assert out.shape == PROBE.shape
            assert np.isfinite(out).all()
        try:
            load_net(str(path))
        except CliError as e:
            assert str(e).count(str(path)) == 1

    @pytest.mark.parametrize("kind", sorted(CLASSES))
    def test_truncation_states_both_sizes(self, blobs, tmp_path, kind):
        _, saved = blobs
        path = tmp_path / "cut.bin"
        path.write_bytes(saved[kind][:-1])
        with pytest.raises(ValueError) as info:
            load(kind, path)
        size = len(saved[kind])
        assert str(info.value) == (f"{path}: holds {size - 1} bytes, "
                                   f"expected {size}")


def rewritten(path, kind, edit):
    """Re-save the checkpoint at path after edit(meta, arrays) changed it
    (a copy of each array: loaded arrays are read-only views of the file)."""
    _, (meta, arrays) = ckpt.load(path, {kind: lambda m, a: (
        m, {name: x.copy() for name, x in a.items()})})
    edit(meta, arrays)
    ckpt.save(path, kind, meta, arrays)


def _set(name, index, value):
    def edit(meta, arrays):
        arrays[name][index] = value
    return edit


NON_FINITE = [
    # one k1 entry near the float maximum: its readout gain would overflow
    ("cnn", _set("k1", (0, 0, 0), 1.7e308)),
    ("cnn", _set("k1", (1, 2, 2), 8e307)),
    ("cnn", _set("k3", (0, 1, 1), np.nan)),
    ("cnn", _set("k2", (2, 2), -np.inf)),
    ("dense", _set("g_pos", (3, 4), np.nan)),
    ("dense", _set("g_neg", (0, 0), np.inf)),
    ("dense", _set("g_pos", (1, 1), 1e300)),
    ("dense", _set("weights", (16, 15), np.nan)),
    ("dense", lambda meta, arrays: meta.update(scale=float("inf"))),
    ("dense", lambda meta, arrays: meta.update(scale=float("nan"))),
    ("fusion", _set("kernel", (1, 0, 0), np.inf)),
    ("fusion", _set("g_neg", (4, 0), np.nan)),
    ("fusion", _set("members.0.g_pos", (2, 2), np.nan)),
    ("fusion", lambda meta, arrays: meta["members"][1].update(scale=1e300)),
    ("classifier", _set("w1", (3, 2), np.nan)),
    ("classifier", _set("b1", (1,), np.inf)),
    ("classifier", _set("w2", (0, 9), -np.inf)),
    # finite, but its logits would overflow
    ("classifier", _set("b2", (4,), 1e300)),
]


# Values a checkpoint stores that follow from its arrays, made to disagree.
DERIVED = [
    ("dense", lambda meta, arrays: meta.update(scale=0.25), "readout gain"),
    ("fusion", lambda meta, arrays: meta["members"][1].update(scale=2.0),
     "readout gain"),
    ("fusion", lambda meta, arrays: meta.update(
        member_noises=["gaussian:0.1", "sp:0.1"]), "member noises"),
]


def tiny_test_split(tmp_path):
    """A directory holding a 4-image 4 x 4 IDX test split."""
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(0)
    write_idx_images(data / "t10k-images-idx3-ubyte",
                     rng.integers(0, 256, (4, 4, 4), dtype=np.uint8))
    write_idx_labels(data / "t10k-labels-idx1-ubyte",
                     np.arange(4, dtype=np.uint8))
    return data


class TestNonFiniteValues:
    @pytest.mark.parametrize("kind, edit", NON_FINITE)
    def test_rejected_naming_the_path_once(self, blobs, tmp_path, kind, edit):
        _, saved = blobs
        path = tmp_path / "bad.bin"
        path.write_bytes(saved[kind])
        rewritten(path, kind, edit)
        with pytest.raises(ValueError) as info:
            load(kind, path)
        assert str(info.value).count(str(path)) == 1
        with pytest.raises(CliError) as info:
            load_net(str(path))
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize("kind, edit, cause", DERIVED)
    def test_derived_values_checked(self, blobs, tmp_path, kind, edit, cause):
        _, saved = blobs
        path = tmp_path / "bad.bin"
        path.write_bytes(saved[kind])
        rewritten(path, kind, edit)
        with pytest.raises(ValueError, match=cause) as info:
            load(kind, path)
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize("value", [1.7e308, np.nan])
    def test_eval_exits_two(self, blobs, tmp_path, capsys, value):
        _, saved = blobs
        data = tiny_test_split(tmp_path)
        path = tmp_path / "cnn.bin"
        path.write_bytes(saved["cnn"])
        rewritten(path, "cnn", _set("k1", (0, 0, 0), value))
        assert main(["eval", "--data", str(data), "--seed", "1",
                     "--checkpoint", str(path),
                     "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count(str(path)) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_classify_exits_two(self, blobs, tmp_path, capsys, value):
        _, saved = blobs
        data = tiny_test_split(tmp_path)
        path = tmp_path / "clf.bin"
        path.write_bytes(saved["classifier"])
        rewritten(path, "classifier", _set("w1", (0, 0), value))
        assert main(["classify", "--data", str(data), "--seed", "1",
                     "--classifier", str(path),
                     "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count(str(path)) == 1
        assert not (tmp_path / "out").exists()


def test_fusion_checkpoint_streams(tmp_path):
    # A 28x28 fusion net over 8 members writes a 118 MB file. Neither save
    # nor load may hold a second copy of its bytes, and the load holds no
    # first copy either: it maps the file. What the load keeps is the
    # readout matrices it builds, one per crossbar.
    member = identity_dense(28, 28)
    net = FusionDenoiser([member] * 8, fusion_init(8, kind="identity"))
    path = tmp_path / "fusion.bin"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        net.save(path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back = load("fusion", path)
        retained, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        size = path.stat().st_size if path.exists() else 0
        path.unlink(missing_ok=True)
    readouts = sum(layer.tiled.effective_weights().nbytes
                   for layer in crossbar_layers("fusion", back))
    assert size > 100 * MB
    assert save_peak - start < 2 * MB
    assert retained - before - readouts < 2 * MB
    assert load_peak - retained <= 2 * MB
    assert len(back.members) == 8


@pytest.mark.parametrize("fault", ["write", "replace", "reserve"])
def test_failed_save_leaves_the_old_file(blobs, tmp_path, monkeypatch, fault):
    # A save that fails after writing part of its bytes, at the final
    # replace, or when its size cannot be reserved (a full disk), leaves
    # the earlier checkpoint's bytes and no other file.
    root, saved = blobs
    path = tmp_path / "net.bin"
    path.write_bytes(saved["fusion"])
    net, raw, seen = load("dense", root / "dense"), ckpt._raw, []

    def fail(*args):
        seen.append(sorted(p.name for p in tmp_path.iterdir()))
        if fault == "write" and len(seen) == 1:
            return raw(*args)
        raise OSError("no space left on device")

    monkeypatch.setattr(*{"write": (ckpt, "_raw"),
                          "replace": (ckpt.os, "replace"),
                          "reserve": (ckpt.os, "posix_fallocate")}[fault],
                        fail)
    with pytest.raises(OSError, match="no space left"):
        net.save(path)
    assert seen[-1] == ["net.bin", f"net.bin.{os.getpid()}.tmp"]
    assert path.read_bytes() == saved["fusion"]
    assert [p.name for p in tmp_path.iterdir()] == ["net.bin"]


@pytest.mark.parametrize("kind", ["dense", "cnn", "fusion"])
def test_a_load_builds_every_readout_matrix(blobs, kind):
    # Every layer's readout matrix, a fusion net's members' too, is built
    # by the load: reading them afterwards allocates none of them. Each
    # is the conductance difference with the masks applied.
    root, _ = blobs
    layers = crossbar_layers(kind, load(kind, root / kind))
    tracemalloc.start()
    try:
        matrices = [layer.tiled.effective_weights() for layer in layers]
        grown = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grown < sum(w.nbytes for w in matrices) / 2
    for layer, w in zip(layers, matrices):
        t = layer.tiled
        masked = t.prune_mask | t.input_dropout_mask[:, None]
        assert np.array_equal(w, np.where(masked, 0.0, t.g_pos - t.g_neg))


def test_saving_over_a_loaded_net_leaves_it_as_loaded(blobs, tmp_path):
    # A save replaces the file a loaded net maps rather than writing into
    # it, so the net reads what it loaded, whatever is saved over it: its
    # readouts, and its arrays, which a save of it reads from the mapping.
    root, saved = blobs
    path = tmp_path / "net.bin"
    path.write_bytes(saved["fusion"])
    net = load("fusion", path)
    other = small_nets()["fusion"]
    FusionDenoiser(other.members[::-1], -other.kernel).save(path)
    assert path.read_bytes() != saved["fusion"]
    want = load("fusion", root / "fusion").forward_stack(PROBE)
    assert np.array_equal(net.forward_stack(PROBE), want)
    net.save(tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == saved["fusion"]


RSS_FILE = """
def rss_file():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("RssFile:"):
                return int(line.split()[1]) * 1024
"""

# Loads a checkpoint, printing the RssFile growth (bytes) of the load.
MAPPED_GROWTH = RSS_FILE + """
import sys
from memdenoise.cli import load_net

before = rss_file()
kind, net = load_net(sys.argv[1])
print(rss_file() - before)
"""

# Loads a checkpoint of 28x28 planes and denoises a stack with it,
# printing the RssFile growth (bytes) of that first forward_stack. A
# readout of the same shapes on arrays of its own runs first, so the
# BLAS code it pages in is not counted.
FIRST_READOUT_GROWTH = RSS_FILE + """
import sys
import numpy as np
from memdenoise.cli import load_net

kind, net = load_net(sys.argv[1])
images = np.random.default_rng(0).random((8, 28, 28))
np.clip(np.ones((8, 785)) @ np.ones((785, 784)), 0.0, 1.0)
before = rss_file()
net.forward_stack(images)
print(rss_file() - before)
"""


def mapped_growth(script, path):
    """The number a script run on the checkpoint at path prints."""
    src = os.path.dirname(os.path.dirname(ckpt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return int(subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env,
        check=True, capture_output=True, text=True).stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RssFile is read from /proc/self/status")
def test_a_fusion_load_holds_its_members_one_at_a_time(tmp_path):
    # A 28x28 fusion checkpoint over 8 programmed members (about 15 MB
    # each). Each member's load builds its readout matrix from its
    # conductances and checks its weights, dropping the pages each step
    # read, so the mapped pages resident at the end are fewer than two
    # members' bytes.
    rng = np.random.default_rng(11)
    dev = DeviceModel(levels=64, variation_sigma=0.02)
    members = [DenseDenoiser(rng.normal(0, 0.05, (785, 784)), (28, 28),
                             train_noise=f"gaussian:{i / 10 + 0.1:g}",
                             device=dev, program_seed=i) for i in range(8)]
    path = tmp_path / "fusion.bin"
    FusionDenoiser(members, fusion_init(8, kind="identity"),
                   device=dev).save(path)
    del members
    member_bytes = path.stat().st_size / 8
    try:
        growth = mapped_growth(MAPPED_GROWTH, path)
    finally:
        path.unlink()
    assert 0 <= growth < 2 * member_bytes


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RssFile is read from /proc/self/status")
def test_a_loaded_dense_net_reads_no_checkpoint_page(tmp_path):
    # A programmed, masked 28x28 dense checkpoint (about 15 MB). Its load
    # built the readout matrix and dropped the mapped pages, so its first
    # forward_stack faults none of the conductances back in.
    rng = np.random.default_rng(12)
    net = DenseDenoiser(rng.normal(0, 0.05, (785, 784)), (28, 28),
                        device=DeviceModel(levels=64, variation_sigma=0.02))
    path = tmp_path / "dense.bin"
    net.with_sparsity(0.1, 0.1).save(path)
    del net
    size = path.stat().st_size
    try:
        growth = mapped_growth(FIRST_READOUT_GROWTH, path)
    finally:
        path.unlink()
    assert 0 <= growth < size / 16


def test_released_arrays_read_back_the_files_bytes(blobs):
    root, saved = blobs
    _, (_, arrays) = ckpt.load(root / "fusion",
                               {"fusion": lambda m, a: (m, a)})
    ckpt.release(*arrays.values())
    tail = b"".join(a.tobytes() for a in arrays.values())
    assert saved["fusion"].endswith(tail)
    # Arrays that view no checkpoint are left as they are.
    own = np.arange(6.0)
    ckpt.release(own, own[1:].reshape(1, 5), np.zeros((0, 2)))
    assert own.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("kind", ["dense", "cnn", "fusion"])
def test_a_released_net_denoises_and_saves_as_one_never_released(
        blobs, tmp_path, monkeypatch, kind):
    # A dense load, each fusion member's too, releases its mapped pages (a
    # CNN, programmed anew from its few kernel bytes, releases none); the
    # control net is loaded with release switched off.
    root, saved = blobs
    net = load(kind, root / kind)
    with monkeypatch.context() as patched:
        patched.setattr(ckpt, "release", lambda *arrays: None)
        kept = load(kind, root / kind)
    assert np.array_equal(net.forward_stack(PROBE), kept.forward_stack(PROBE))
    net.save(tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == saved[kind]


def ramp(shape, top):
    """Evenly spaced values from -top (exactly) to just below top."""
    n = int(np.prod(shape))
    return ((np.arange(n) - n // 2) / (n // 2) * top).reshape(shape)


def pinned_checkpoints(dev):
    """One network of each kind from hand-set weights: no training and no
    variation draws, so the bytes follow from the code alone."""
    record = {"rmse_log": [0.5, 0.25], "device": dev, "program_seed": 3}

    def dense(noise, top):
        return DenseDenoiser(ramp((5, 4), top), (2, 2), train_noise=noise,
                             **record)

    return {
        "dense": dense("gaussian:0.1", 0.5),
        "cnn": CnnDenoiser(ramp((8, 3, 3), 2.0), ramp((8, 3, 3), 0.25),
                           ramp((3, 3), 1.0), train_noise="gaussian:0.1",
                           **record),
        "fusion": FusionDenoiser(
            [dense("gaussian:0.1", 0.5), dense("sp:0.25", 2.0)],
            ramp((2, 3, 3), 0.125), **record),
    }


# sha256 of each checkpoint, recorded before the networks shared one
# crossbar layer; a change to any checkpoint byte fails here. The two
# cnn pins are of 8-kernel nets, recorded when a CnnDenoiser still
# took any kernel count, and the same there.
PINNED = {
    "dense-ideal":
        "41cfaf2dfe64d8b025134805fef63c1e8d0bbcffaaeec63a0dff7f3ee3bd3235",
    "cnn-ideal":
        "cd8ea5ad8fa4ab4bb9fa1becef3bc0d9a0042427483be14f85ffaba8cf91d254",
    "fusion-ideal":
        "a9569666790fabe7a58a09515eb4525e28315cb17a1379a3c1dd68ac8b561839",
    "dense-levels4":
        "8d1cc1499d91f7d1948a0bc59e7aaa593674137075523a767381a95faa7b4406",
    "cnn-levels4":
        "79fc4f366d791ab426d828d78fb37fdfe138ea58ca6453ff6d46500909596c11",
    "fusion-levels4":
        "7e3c4293779fbc878d63d006de4695dee655640013e49e3352025a526f776623",
    "classifier":
        "a61a184b574cc02e562641edbe34edc77f5aa57a2064e9551bb6fb5034dbb092",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_checkpoint_bytes_are_pinned(tmp_path, name):
    kind, _, device = name.partition("-")
    if kind == "classifier":
        net = Classifier(ramp((4, 3), 1.0), ramp((3,), 0.5),
                         ramp((3, 10), 4.0), ramp((10,), 0.25), (2, 2),
                         loss_log=[2.0, 1.5])
    else:
        dev = DeviceModel(levels=4) if device == "levels4" else DeviceModel()
        net = pinned_checkpoints(dev)[kind]
    net.save(tmp_path / "net.bin")
    digest = hashlib.sha256((tmp_path / "net.bin").read_bytes()).hexdigest()
    assert digest == PINNED[name]
