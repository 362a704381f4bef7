"""The checkpoint container: layout, hostile bytes, and streamed memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdenoise import ckpt
from memdenoise.classify import Classifier
from memdenoise.cli import CliError, load_net
from memdenoise.device import DeviceModel
from memdenoise.nets.cnn import CnnDenoiser
from memdenoise.nets.dense import DenseDenoiser
from memdenoise.nets.fusion import FusionDenoiser, fusion_init

MB = 2 ** 20


def small_nets():
    """One small network of every checkpoint kind, programmed state in all."""
    rng = np.random.default_rng(3)
    dev = DeviceModel(levels=16, variation_sigma=0.05)
    dense = DenseDenoiser(rng.normal(0, 0.1, (17, 16)), 1.0, (4, 4),
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
            CLASSES[kind].load(path)
        except ValueError as e:
            assert str(e).count(str(path)) == 1
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
