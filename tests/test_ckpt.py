"""The checkpoint container: layout, hostile bytes, and streamed memory."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx_images, write_idx_labels
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
               DenseDenoiser.identity(4, 4)]
    return {
        "dense": dense,
        "cnn": CnnDenoiser(rng.normal(0, 0.3, (2, 3, 3)),
                           np.full((2, 3, 3), 1.0 / 18), np.eye(3) / 3,
                           train_noise="sp:0.1", device=dev),
        "fusion": FusionDenoiser(members, rng.normal(0, 0.2, (2, 3, 3)),
                                 device=dev, program_seed=2),
        "classifier": Classifier.initial(16, 4, (4, 4), seed=1),
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


class TestLayout:
    @pytest.mark.parametrize("kind", sorted(CLASSES))
    def test_save_load_save_gives_equal_files(self, blobs, tmp_path, kind):
        root, saved = blobs
        CLASSES[kind].load(root / kind).save(tmp_path / "again")
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
            DenseDenoiser.load(root / "cnn")

    def test_arrays_read_into_fresh_memory(self, blobs):
        root, _ = blobs
        net = Classifier.load(root / "classifier")
        assert net.w1.base is None and net.w1.flags.c_contiguous

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


DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True),
              st.integers(1, 255)),
)


# Test images for the 4 x 4 nets: extremes and mid-grey included.
PROBE = np.stack([np.zeros((4, 4)), np.ones((4, 4)), np.full((4, 4), 0.5),
                  np.random.default_rng(8).random((4, 4))])


def damaged(blob, damage):
    if damage[0] == "truncate":
        return blob[:int(damage[1] * len(blob))]
    if damage[0] == "append":
        return blob + damage[1]
    out = bytearray(blob)
    out[int(damage[1] * len(blob))] ^= damage[2]
    return bytes(out)


class TestHostileBytes:
    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(sorted(CLASSES)), damage=DAMAGE)
    def test_loads_or_names_the_path(self, blobs, kind, damage):
        root, saved = blobs
        path = root / "damaged.bin"
        path.write_bytes(damaged(saved[kind], damage))
        try:
            net = CLASSES[kind].load(path)
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
            CLASSES[kind].load(path)
        size = len(saved[kind])
        assert str(info.value) == (f"{path}: holds {size - 1} bytes, "
                                   f"expected {size}")


def rewritten(path, kind, edit):
    """Re-save the checkpoint at path after edit(meta, arrays) changed it."""
    _, (meta, arrays) = ckpt.load(path, {kind: lambda m, a: (m, a)})
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
            CLASSES[kind].load(path)
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
            CLASSES[kind].load(path)
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
    # nor load may hold a second copy of its bytes.
    member = DenseDenoiser.identity(28, 28)
    net = FusionDenoiser([member] * 8, fusion_init(8, kind="identity"))
    path = tmp_path / "fusion.bin"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        net.save(path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back = FusionDenoiser.load(path)
        retained, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        size = path.stat().st_size if path.exists() else 0
        path.unlink(missing_ok=True)
    assert size > 100 * MB
    assert save_peak - start < 2 * MB
    assert retained - before > 100 * MB
    assert load_peak - retained <= 2 * MB
    assert len(back.members) == 8


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
        "cnn": CnnDenoiser(ramp((2, 3, 3), 2.0), ramp((2, 3, 3), 0.25),
                           ramp((3, 3), 1.0), train_noise="gaussian:0.1",
                           **record),
        "fusion": FusionDenoiser(
            [dense("gaussian:0.1", 0.5), dense("sp:0.25", 2.0)],
            ramp((2, 3, 3), 0.125), **record),
    }


# sha256 of each checkpoint, recorded before the networks shared one
# crossbar layer; a change to any checkpoint byte fails here.
PINNED = {
    "dense-ideal":
        "41cfaf2dfe64d8b025134805fef63c1e8d0bbcffaaeec63a0dff7f3ee3bd3235",
    "cnn-ideal":
        "ca37e2d500220282a559d5b8db429ffeb3c34ad8cbd145f3fb9d2d665f58ec72",
    "fusion-ideal":
        "a9569666790fabe7a58a09515eb4525e28315cb17a1379a3c1dd68ac8b561839",
    "dense-levels4":
        "8d1cc1499d91f7d1948a0bc59e7aaa593674137075523a767381a95faa7b4406",
    "cnn-levels4":
        "1eb52b678cc728a6bf355c4cce09d7b094c531be83095969cce3bf9d7b615baf",
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
