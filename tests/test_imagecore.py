import gzip
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DAMAGE, damaged, identity_dense
from memdenoise.baselines import filter_stack, parse_filter
from memdenoise.crossbar import matmul, program
from memdenoise.device import DeviceModel
from memdenoise.imagecore import (Dataset, DatasetError, ImageShapeError,
                                  load_cifar10, load_mnist, map_planes,
                                  plane_chunks, plane_samples, write_image)
from memdenoise.metrics import QualityReport, image_scores
from memdenoise.nets.cnn import CnnDenoiser
from memdenoise.nets.fusion import FusionDenoiser


def idx_images(arrays):
    """Build an IDX image blob the way the format documents it."""
    arrays = np.asarray(arrays, dtype=np.uint8)
    n, h, w = arrays.shape
    return struct.pack(">IIII", 0x00000803, n, h, w) + arrays.tobytes()


def idx_labels(values):
    values = np.asarray(values, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(values)) + values.tobytes()


@pytest.fixture
def mnist_dir(tmp_path):
    gen = np.random.default_rng(0)
    imgs = gen.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
    labs = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
    (tmp_path / "t10k-images-idx3-ubyte").write_bytes(idx_images(imgs))
    (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(labs))
    return tmp_path, imgs, labs


class TestIdxLoading:
    def test_values_scaled_by_255(self, mnist_dir):
        # Stored as the file's uint8 pixels, read as float64 / 255.
        path, imgs, labs = mnist_dir
        ds = load_mnist(str(path), "test")
        assert ds.images.shape == (5, 28, 28)
        assert ds.images.dtype == np.uint8
        np.testing.assert_array_equal(ds.images, imgs)
        assert ds.floats().dtype == np.float64
        np.testing.assert_array_equal(ds.floats(), imgs / 255.0)
        np.testing.assert_array_equal(ds.labels, labs)

    def test_gzipped_files_load_transparently(self, tmp_path):
        gen = np.random.default_rng(1)
        imgs = gen.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
        labs = np.array([7, 8, 9], dtype=np.uint8)
        with gzip.open(tmp_path / "train-images-idx3-ubyte.gz", "wb") as f:
            f.write(idx_images(imgs))
        with gzip.open(tmp_path / "train-labels-idx1-ubyte.gz", "wb") as f:
            f.write(idx_labels(labs))
        ds = load_mnist(str(tmp_path), "train")
        assert ds.images.dtype == np.uint8
        np.testing.assert_array_equal(ds.images, imgs)
        np.testing.assert_array_equal(ds.floats(), imgs / 255.0)

    def test_unknown_split(self, mnist_dir):
        with pytest.raises(ValueError):
            load_mnist(str(mnist_dir[0]), "validation")

    def test_missing_files(self, tmp_path):
        with pytest.raises(DatasetError):
            load_mnist(str(tmp_path), "test")

    def test_bad_magic(self, tmp_path, mnist_dir):
        path, imgs, labs = mnist_dir
        # labels written under the image file name
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(idx_labels(labs))
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(labs))
        with pytest.raises(DatasetError,
                           match="magic 0x00000801, expected 0x00000803"):
            load_mnist(str(tmp_path), "test")

    def test_truncated_payload(self, tmp_path, mnist_dir):
        path, imgs, labs = mnist_dir
        blob = idx_images(imgs)
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(blob[:-10])
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(labs))
        with pytest.raises(DatasetError, match="header promises 3920 bytes, "
                           "the file holds at most 3910"):
            load_mnist(str(tmp_path), "test")

    def test_truncated_header(self, tmp_path, mnist_dir):
        path, imgs, labs = mnist_dir
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(b"\x00\x00")
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(labs))
        with pytest.raises(DatasetError, match="header shorter than 4 bytes"):
            load_mnist(str(tmp_path), "test")

    def test_count_mismatch(self, tmp_path, mnist_dir):
        path, imgs, labs = mnist_dir
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(idx_images(imgs))
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(labs[:3]))
        with pytest.raises(DatasetError, match="5 images vs 3 labels"):
            load_mnist(str(tmp_path), "test")

    def test_label_outside_the_classes(self, tmp_path, mnist_dir):
        # The classifier indexes a 10-class one-hot table by label.
        path, imgs, labs = mnist_dir
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(idx_images(imgs))
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(
            idx_labels([3, 1, 10, 1, 5]))
        with pytest.raises(DatasetError, match="label 10 is not a class"):
            load_mnist(str(tmp_path), "test")

    def test_header_dimensions_multiply_exactly(self, tmp_path, mnist_dir):
        # 2**32 - 1 cubed overflows an int64 product; the header promises
        # far more than the payload holds.
        path, imgs, labs = mnist_dir
        big = 2 ** 32 - 1
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x00000803, big, big, big) + imgs.tobytes())
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(labs))
        with pytest.raises(DatasetError, match="header promises"):
            load_mnist(str(tmp_path), "test")

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_count_beyond_the_file_refused_before_allocating(
            self, tmp_path, mnist_dir, gzipped):
        # A raw file holds at most its bytes after the header; a gzipped
        # one at most 1032 times its size (DEFLATE's largest ratio). A
        # header promising 10**9 pixels is refused without reserving them.
        path, imgs, labs = mnist_dir
        blob = struct.pack(">IIII", 0x00000803, 1000, 1000, 1000) + bytes(99)
        name = "t10k-images-idx3-ubyte"
        if gzipped:
            (tmp_path / name).unlink()
            name, blob = name + ".gz", gzip.compress(blob, mtime=0)
        (tmp_path / name).write_bytes(blob)
        room = len(blob) * 1032 if gzipped else 99
        result, peak = traced_peak(lambda: pytest.raises(
            DatasetError, load_mnist, str(tmp_path), "test"))
        assert str(result.value).endswith(
            f"header promises 1000000000 bytes, the file holds at most {room}")
        assert peak < 2 ** 20


class TestCifarLoading:
    def test_record_layout(self, tmp_path):
        gen = np.random.default_rng(2)
        pixels = gen.integers(0, 256, size=(4, 3, 32, 32), dtype=np.uint8)
        labels = np.array([0, 9, 2, 7], dtype=np.uint8)
        records = b"".join(
            bytes([labels[i]]) + pixels[i].tobytes() for i in range(4))
        (tmp_path / "test_batch.bin").write_bytes(records)
        ds = load_cifar10(str(tmp_path), "test")
        assert ds.images.shape == (4, 32, 32, 3)
        np.testing.assert_array_equal(ds.labels, labels)
        # channel-planar source becomes interleaved (h, w, c)
        assert ds.images.dtype == np.uint8
        np.testing.assert_array_equal(ds.images[0], pixels[0].transpose(1, 2, 0))
        np.testing.assert_array_equal(
            ds.floats()[0], pixels[0].transpose(1, 2, 0) / 255.0)

    def test_ragged_file_rejected(self, tmp_path):
        (tmp_path / "test_batch.bin").write_bytes(bytes(3073 * 2 + 1))
        with pytest.raises(DatasetError,
                           match="6147 bytes is not a multiple of 3073"):
            load_cifar10(str(tmp_path), "test")

    def test_concatenated_gzip_members_rejected(self, tmp_path):
        # The trailer states the last member's 3073 bytes; the stream
        # holds both members' 6146.
        record = bytes(3073)
        (tmp_path / "test_batch.bin.gz").write_bytes(
            gzip.compress(record, mtime=0) * 2)
        with pytest.raises(DatasetError, match="holds more than the 3073 "
                           "bytes its gzip trailer states"):
            load_cifar10(str(tmp_path), "test")

    def test_unknown_split_rejected(self, tmp_path):
        (tmp_path / "test_batch.bin").write_bytes(bytes(3073))
        with pytest.raises(ValueError, match="unknown split 'val'"):
            load_cifar10(str(tmp_path), "val")

    def test_batches_join_in_file_order(self, tmp_path):
        # The train split is five batch files, copied into one array.
        gen = np.random.default_rng(4)
        records = gen.integers(0, 256, (10, 3073), dtype=np.uint8)
        records[:, 0] %= 10
        for i in range(5):
            (tmp_path / f"data_batch_{i + 1}.bin").write_bytes(
                records[2 * i:2 * i + 2].tobytes())
        ds = load_cifar10(str(tmp_path), "train")
        pixels = records[:, 1:].reshape(10, 3, 32, 32).transpose(0, 2, 3, 1)
        assert ds.images.dtype == np.uint8
        np.testing.assert_array_equal(ds.images, pixels)
        np.testing.assert_array_equal(ds.labels, records[:, 0])

    def test_batches_under_the_archive_directory(self, tmp_path):
        # The archive unpacks its batches into cifar-10-batches-bin; its
        # parent directory is a dataset root too.
        records = np.random.default_rng(5).integers(0, 256, (3, 3073),
                                                    dtype=np.uint8)
        records[:, 0] %= 10
        (tmp_path / "cifar-10-batches-bin").mkdir()
        (tmp_path / "cifar-10-batches-bin" / "test_batch.bin").write_bytes(
            records.tobytes())
        ds = load_cifar10(str(tmp_path), "test")
        np.testing.assert_array_equal(ds.labels, records[:, 0])
        np.testing.assert_array_equal(
            ds.images, records[:, 1:].reshape(3, 3, 32, 32).transpose(0, 2, 3, 1))


class TestDataset:
    def test_immutable(self, mnist_dir):
        ds = load_mnist(str(mnist_dir[0]), "test")
        with pytest.raises(ValueError):
            ds.images[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_count_checked_at_construction(self):
        with pytest.raises(DatasetError, match="3 images vs 2 labels"):
            Dataset(np.zeros((3, 2, 2)), np.zeros(2, dtype=np.int64))

    def test_subset(self, mnist_dir):
        ds = load_mnist(str(mnist_dir[0]), "test")
        sub = ds.subset(2)
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.images, ds.images[:2])
        assert ds.subset(None) is ds
        assert ds.subset(100) is ds

    @pytest.mark.parametrize("n", [0, -3, 2.0, "abc", [2]])
    def test_subset_takes_none_or_a_positive_integer(self, n):
        ds = Dataset(np.zeros((3, 2, 2)), np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="integer >= 1"):
            ds.subset(n)

    @pytest.mark.parametrize("part", [
        slice(None), slice(1, 4), slice(4, 0, -2), np.array([4, 0, 2, 2]),
        np.array([], dtype=np.int64)],
        ids=["all", "slice", "step", "index-array", "empty"])
    def test_floats_are_the_float64_conversion(self, mnist_dir, part):
        path, imgs, _ = mnist_dir
        got = load_mnist(str(path), "test").floats(part)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, imgs.astype(np.float64)[part] / 255.0)

    @pytest.mark.parametrize("part", [slice(None), slice(1, 3),
                                      np.array([2, 0])])
    def test_float64_images_read_back_exactly(self, part):
        # Intensities off the 1/255 grid are divided by 1.0, which is exact.
        images = np.random.default_rng(5).random((4, 3, 3))
        ds = Dataset(images, np.zeros(4, dtype=np.int64))
        got = ds.floats(part)
        assert np.array_equal(got, images[part])
        assert got.flags.writeable and not np.shares_memory(got, images)

    def test_cifar_view_reads_contiguous(self, tmp_path):
        records = np.random.default_rng(6).integers(0, 256, (3, 3073),
                                                   dtype=np.uint8)
        records[:, 0] %= 10
        (tmp_path / "test_batch.bin").write_bytes(records.tobytes())
        ds = load_cifar10(str(tmp_path), "test")
        pixels = records[:, 1:].reshape(3, 3, 32, 32).transpose(0, 2, 3, 1)
        got = ds.floats(slice(1, 3))
        assert got.flags.c_contiguous
        assert np.array_equal(got, pixels.astype(np.float64)[1:3] / 255.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint16, bool])
    def test_images_are_uint8_or_float64(self, dtype):
        with pytest.raises(TypeError, match="uint8 pixels or float64"):
            Dataset(np.zeros((3, 2, 2), dtype), np.zeros(3, dtype=np.int64))


def traced_peak(load):
    """load()'s result and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestLoadedSplitMemory:
    # A loaded split holds its pixels once, as the file's bytes. A
    # float64 split allocated about 9 bytes a pixel: 8 to hold it and 1
    # for the file's bytes while converting.
    def test_idx_split_allocates_one_byte_a_pixel(self, tmp_path):
        n = 2000
        gen = np.random.default_rng(7)
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(idx_images(
            gen.integers(0, 256, (n, 28, 28), dtype=np.uint8)))
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(
            idx_labels(np.arange(n) % 10))
        ds, peak = traced_peak(lambda: load_mnist(str(tmp_path), "test"))
        assert ds.images.dtype == np.uint8 and len(ds) == n
        assert peak <= 1.2 * n * 28 * 28

    def test_gzipped_idx_split_allocates_one_byte_a_pixel(self, tmp_path):
        # The payload is decompressed in slices straight into the array;
        # decompressing it in one piece peaked at about 2 bytes a pixel.
        n = 2000
        images = np.random.default_rng(7).integers(0, 256, (n, 28, 28),
                                                   dtype=np.uint8)
        for name, blob in [("t10k-images-idx3-ubyte", idx_images(images)),
                           ("t10k-labels-idx1-ubyte",
                            idx_labels(np.arange(n) % 10))]:
            (tmp_path / (name + ".gz")).write_bytes(gzip.compress(blob))
        ds, peak = traced_peak(lambda: load_mnist(str(tmp_path), "test"))
        np.testing.assert_array_equal(ds.images, images)
        assert peak <= 1.2 * n * 28 * 28

    def test_cifar_split_allocates_one_byte_a_pixel(self, tmp_path):
        n = 2000
        records = np.random.default_rng(8).integers(0, 256, (n, 3073),
                                                    dtype=np.uint8)
        records[:, 0] %= 10
        (tmp_path / "test_batch.bin").write_bytes(records.tobytes())
        ds, peak = traced_peak(lambda: load_cifar10(str(tmp_path), "test"))
        assert ds.images.dtype == np.uint8 and len(ds) == n
        assert peak <= 1.2 * n * 32 * 32 * 3

    @pytest.mark.parametrize("names, gzipped", [
        (["test_batch.bin"], True),
        ([f"data_batch_{i}.bin" for i in range(1, 6)], False)],
        ids=["gzipped-one-file", "raw-five-files"])
    def test_cifar_batches_read_into_one_array(self, tmp_path, names,
                                               gzipped):
        # Each batch is read in slices into one array sized for the split
        # up front. Reading a gzipped batch whole held it twice, and
        # joining five batches held the split twice.
        n = 2000
        records = np.random.default_rng(9).integers(0, 256, (n, 3073),
                                                    dtype=np.uint8)
        records[:, 0] %= 10
        for name, part in zip(names, np.array_split(records, len(names))):
            blob = part.tobytes()
            if gzipped:
                (tmp_path / (name + ".gz")).write_bytes(gzip.compress(blob))
            else:
                (tmp_path / name).write_bytes(blob)
        split = "test" if len(names) == 1 else "train"
        ds, peak = traced_peak(lambda: load_cifar10(str(tmp_path), split))
        np.testing.assert_array_equal(ds.images, records[:, 1:].reshape(
            n, 3, 32, 32).transpose(0, 2, 3, 1))
        np.testing.assert_array_equal(ds.labels, records[:, 0])
        assert peak <= 1.2 * n * 32 * 32 * 3

    def test_gzip_trailer_beyond_the_file_refused_before_allocating(
            self, tmp_path):
        blob = bytearray(gzip.compress(bytes(3073)))
        blob[-4:] = struct.pack("<I", 3073 * 10 ** 6)
        (tmp_path / "test_batch.bin.gz").write_bytes(bytes(blob))
        result, peak = traced_peak(lambda: pytest.raises(
            DatasetError, load_cifar10, str(tmp_path), "test"))
        assert str(result.value).endswith(
            f"gzip trailer states 3073000000 bytes, the file holds at most "
            f"{len(blob) * 1032}")
        assert peak < 2 ** 20


# Loader fuzz: each file is a well-formed one that may be damaged
# (DAMAGE, or one header word replaced), gzipped, and damaged again as a
# compressed stream. Whatever the bytes, a loader either returns uint8
# images with one class index 0..9 per image, or raises DatasetError,
# which the CLI reports with exit code 2.
HEADER_WORD = st.tuples(st.just("word"), st.integers(0, 3),
                        st.integers(0, 2 ** 32 - 1))


def stored(draw, blob):
    """A file holding blob, drawn: damaged or not, and gzipped or not (a
    gzipped stream may be damaged in turn). Returns (bytes, gzipped)."""
    for damage in draw(st.lists(st.one_of(DAMAGE, HEADER_WORD), max_size=2)):
        if damage[0] == "word":
            if len(blob) >= 4 * damage[1] + 4:
                at = 4 * damage[1]
                blob = (blob[:at] + struct.pack(">I", damage[2])
                        + blob[at + 4:])
        elif blob or damage[0] == "append":
            blob = damaged(blob, damage)
    gzipped = draw(st.booleans())
    if gzipped:
        blob = gzip.compress(blob, mtime=0)
        for damage in draw(st.lists(DAMAGE, max_size=1)):
            blob = damaged(blob, damage)
    return blob, gzipped


def write_stored(root, name, stored_blob):
    """Write a stored blob as name, or as name.gz when gzipped, removing
    the other so the loader reads this one."""
    blob, gzipped = stored_blob
    for suffix in ("", ".gz"):
        (root / (name + suffix)).unlink(missing_ok=True)
    (root / (name + (".gz" if gzipped else ""))).write_bytes(blob)


def check_loaded(load):
    try:
        ds = load()
    except DatasetError:
        return
    assert ds.images.dtype == np.uint8
    assert ds.labels.dtype == np.int64 and len(ds.labels) == len(ds)
    assert ds.labels.size == 0 or 0 <= ds.labels.min() <= ds.labels.max() <= 9


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    return tmp_path_factory.mktemp("loader_fuzz")


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 3), h=st.integers(0, 4),
           w=st.integers(0, 4), extra_labels=st.integers(-1, 1))
    def test_idx_pair_loads_or_raises_dataset_error(self, fuzz_root, data, n,
                                                    h, w, extra_labels):
        gen = np.random.default_rng(n * 25 + h * 5 + w)
        images = idx_images(gen.integers(0, 256, (n, h, w), dtype=np.uint8))
        labels = idx_labels(gen.integers(0, 12, max(0, n + extra_labels)))
        write_stored(fuzz_root, "t10k-images-idx3-ubyte",
                     stored(data.draw, images))
        write_stored(fuzz_root, "t10k-labels-idx1-ubyte",
                     stored(data.draw, labels))
        check_loaded(lambda: load_mnist(str(fuzz_root), "test"))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 3))
    def test_cifar_batch_loads_or_raises_dataset_error(self, fuzz_root, data,
                                                       n):
        records = np.random.default_rng(n).integers(0, 256, (n, 3073),
                                                    dtype=np.uint8)
        records[:, 0] %= 12
        write_stored(fuzz_root, "test_batch.bin",
                     stored(data.draw, records.tobytes()))
        check_loaded(lambda: load_cifar10(str(fuzz_root), "test"))


def read_pnm(path):
    """Oracle: a binary PGM/PPM in write_image's layout, three header
    lines (magic, "width height", maxval 255) and then the pixel bytes."""
    magic, size, maxval, pixels = path.read_bytes().split(b"\n", 3)
    assert magic in (b"P5", b"P6") and maxval == b"255"
    w, h = map(int, size.split())
    shape = (h, w, 3) if magic == b"P6" else (h, w)
    return np.frombuffer(pixels, np.uint8).reshape(shape) / 255.0


class TestPortableImages:
    def test_pgm_round_trip_is_exact_on_byte_grid(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(9, 7)).astype(np.float64) / 255.0
        path = tmp_path / "img.pgm"
        write_image(img, path)
        np.testing.assert_allclose(read_pnm(path), img, atol=0, rtol=0)

    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 6, 3)).astype(np.float64) / 255.0
        path = tmp_path / "img.ppm"
        write_image(img, path)
        np.testing.assert_array_equal(read_pnm(path), img)

    def test_half_rounds_up(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_image(np.array([[0.5]]), path)
        assert read_pnm(path)[0, 0] == 128 / 255.0

    def test_out_of_range_clipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_image(np.array([[-0.5, 1.5]]), path)
        np.testing.assert_array_equal(read_pnm(path), [[0.0, 1.0]])

    def test_header_written_correctly(self, tmp_path):
        path = tmp_path / "h.pgm"
        write_image(np.zeros((2, 3)), path)
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_single_channel_axis_collapses_to_pgm(self, tmp_path):
        path = tmp_path / "s.pgm"
        write_image(np.zeros((2, 2, 1)), path)
        assert read_pnm(path).shape == (2, 2)

    def test_bad_image_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_image(np.zeros((2, 2, 4)), tmp_path / "b.pgm")


@pytest.mark.parametrize("shape", [(4, 5), (2, 3, 4, 3, 1)])
def test_plane_samples_refuses_other_ranks(shape):
    with pytest.raises(ValueError) as info:
        plane_samples(np.zeros(shape))
    assert str(info.value) == ("expected an (n, h, w) or (n, h, w, c) "
                               f"stack, got shape {shape}")


class TestPlaneChunks:
    @pytest.mark.parametrize("n", [1, 2, 3, 167, 168, 334, 335, 336, 1000])
    @pytest.mark.parametrize("plane_elements", [1, 3136, 6272, 2 ** 19,
                                                2 ** 30])
    def test_slices_cover_the_range_in_order(self, n, plane_elements):
        # Every chunk but the last holds one step of planes; a short last
        # chunk, 1 plane included, stays a chunk of its own.
        chunks = plane_chunks(n, plane_elements)
        assert [i for c in chunks for i in range(n)[c]] == list(range(n))
        step = max(1, 2 ** 19 // plane_elements)
        sizes = [c.stop - c.start for c in chunks]
        assert sizes == [step] * (n // step) + [n % step] * (n % step > 0)

    @pytest.mark.parametrize("n", [2, 3, 167, 168, 335, 336, 1000])
    @pytest.mark.parametrize("plane_elements", [3136, 2 ** 19, 2 ** 30])
    def test_no_one_plane_chunk(self, n, plane_elements):
        # No chunk reads as a 1-plane chunk apart: read through a
        # multi-column crossbar, every chunk, a 1-plane one included, gives
        # the rows of one whole readout, since the crossbar reads an odd
        # batch on an even row count.
        m = program(np.random.default_rng(n).uniform(-1.0, 1.0, size=(9, 8)),
                    DeviceModel(), np.random.default_rng(0))
        xs = np.random.default_rng(plane_elements).uniform(size=(n, 9))
        whole = matmul(m, xs)
        chunks = plane_chunks(n, plane_elements)
        assert any(c.stop - c.start == 1 for c in chunks) == (
            plane_elements > 2 ** 18 or n % 167 == 1)
        for c in chunks:
            assert np.array_equal(matmul(m, xs[c]), whole[c])

    @pytest.mark.parametrize("plane_elements", [1, 3136, 2 ** 30])
    def test_one_plane_is_one_chunk(self, plane_elements):
        assert plane_chunks(1, plane_elements) == [slice(0, 1)]

    def test_empty_stack_has_no_chunks(self):
        assert plane_chunks(0, 3136) == []

    def test_chunks_hold_about_two_to_the_nineteen_elements(self):
        # 2**19 // 3136 = 167 planes; a wider plane is a chunk on its own
        assert plane_chunks(335, 3136) == [slice(0, 167), slice(167, 334),
                                           slice(334, 335)]
        assert plane_chunks(336, 3136) == [slice(0, 167), slice(167, 334),
                                           slice(334, 336)]
        assert plane_chunks(3, 2 ** 30) == [slice(0, 1), slice(1, 2),
                                            slice(2, 3)]


class TestMapPlanes:
    @pytest.mark.parametrize("shape", [(5, 4, 6), (5, 4, 6, 3)])
    def test_planes_come_back_in_the_stack_layout(self, shape):
        imgs = np.random.default_rng(0).random(shape)
        flat, (h, w) = plane_samples(imgs)
        out = map_planes(lambda planes: planes * 2.0 + 1.0, imgs, h * w)
        assert out.flags.c_contiguous and out.shape == imgs.shape
        assert np.array_equal(out, imgs * 2.0 + 1.0)
        seen, c = [], len(flat) // 5
        map_planes(lambda planes: seen.append(planes.copy()) or planes, imgs,
                   2 ** 18 // c)  # 2 images per chunk, the last 1
        assert [len(planes) for planes in seen] == [2 * c, 2 * c, c]
        assert np.array_equal(np.concatenate(seen).reshape(flat.shape), flat)

    def test_shape_is_checked_by_owner(self):
        with pytest.raises(ImageShapeError, match="toy net expects"):
            map_planes(lambda planes: planes, np.zeros((2, 4, 4)), 16, (5, 5),
                       "toy net")

    # Raw pixels would be read as intensities 0..255.
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_integer_stack_is_refused(self, dtype):
        with pytest.raises(TypeError, match="Dataset.floats"):
            map_planes(lambda planes: planes, np.zeros((2, 4, 4), dtype), 16)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_plane_samples_refuse_an_integer_stack(self, dtype):
        with pytest.raises(TypeError, match="Dataset.floats"):
            plane_samples(np.zeros((2, 4, 4, 3), dtype))


# 8x8 RGB stack passes. Each takes an (n, 8, 8, 3) stack; its working
# memory must not grow with n, which it did while whole stacks were
# transposed into channel planes and back.
def _rgb_passes():
    rng = np.random.default_rng(1)
    k = rng.normal(0, 0.3, (8, 3, 3))
    cnn = CnnDenoiser(k, k / 9.0, np.eye(3))
    fusion = FusionDenoiser([identity_dense(8, 8) for _ in range(8)],
                            rng.normal(0, 0.1, (8, 3, 3)))
    return {
        "dense": identity_dense(8, 8).forward_stack,
        "cnn": cnn.forward_stack,
        "fusion": fusion.forward_stack,
        "median": lambda s: filter_stack(s, parse_filter("median:3")),
        "gauss": lambda s: filter_stack(s, parse_filter("gauss:0.8")),
        "tv": lambda s: filter_stack(s, parse_filter("tv:0.1:5")),
        # two test stacks share each chunk's reference statistics
        "score": lambda s: [QualityReport.from_scores("", "", *scores)
                            for scores in image_scores(s, s, s[::-1])],
    }


@pytest.mark.parametrize("name", sorted(_rgb_passes()))
def test_rgb_stack_pass_memory_does_not_grow_with_the_stack(name):
    stack_pass = _rgb_passes()[name]
    rng = np.random.default_rng(2)

    def growth(n):
        imgs = rng.random((n, 8, 8, 3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = stack_pass(imgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - before - getattr(out, "nbytes", 0)

    assert growth(8000) <= 2 * growth(2000)
