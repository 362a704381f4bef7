import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import identity_dense
from memdenoise.baselines import filter_stack, parse_filter
from memdenoise.imagecore import (BadMagicError, CountMismatchError, Dataset,
                                  DatasetError, ImageShapeError,
                                  TruncatedFileError, load_cifar10, load_mnist,
                                  map_planes, plane_chunks, plane_samples,
                                  write_image)
from memdenoise.metrics import evaluate_pairs
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
        path, imgs, labs = mnist_dir
        ds = load_mnist(str(path), "test")
        assert ds.images.shape == (5, 28, 28)
        assert ds.images.dtype == np.float64
        np.testing.assert_array_equal(ds.images, imgs / 255.0)
        np.testing.assert_array_equal(ds.labels, labs)
        assert ds.split == "test"

    def test_gzipped_files_load_transparently(self, tmp_path):
        gen = np.random.default_rng(1)
        imgs = gen.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
        labs = np.array([7, 8, 9], dtype=np.uint8)
        with gzip.open(tmp_path / "train-images-idx3-ubyte.gz", "wb") as f:
            f.write(idx_images(imgs))
        with gzip.open(tmp_path / "train-labels-idx1-ubyte.gz", "wb") as f:
            f.write(idx_labels(labs))
        ds = load_mnist(str(tmp_path), "train")
        np.testing.assert_array_equal(ds.images, imgs / 255.0)

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
        with pytest.raises(BadMagicError):
            load_mnist(str(tmp_path), "test")

    def test_truncated_payload(self, tmp_path, mnist_dir):
        path, imgs, labs = mnist_dir
        blob = idx_images(imgs)
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(blob[:-10])
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(labs))
        with pytest.raises(TruncatedFileError):
            load_mnist(str(tmp_path), "test")

    def test_truncated_header(self, tmp_path, mnist_dir):
        path, imgs, labs = mnist_dir
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(b"\x00\x00")
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(labs))
        with pytest.raises(TruncatedFileError):
            load_mnist(str(tmp_path), "test")

    def test_count_mismatch(self, tmp_path, mnist_dir):
        path, imgs, labs = mnist_dir
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(idx_images(imgs))
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(labs[:3]))
        with pytest.raises(CountMismatchError):
            load_mnist(str(tmp_path), "test")


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
        np.testing.assert_array_equal(
            ds.images[0], pixels[0].transpose(1, 2, 0) / 255.0)

    def test_ragged_file_rejected(self, tmp_path):
        (tmp_path / "test_batch.bin").write_bytes(bytes(3073 * 2 + 1))
        with pytest.raises(BadMagicError):
            load_cifar10(str(tmp_path), "test")


class TestDataset:
    def test_immutable(self, mnist_dir):
        ds = load_mnist(str(mnist_dir[0]), "test")
        with pytest.raises(ValueError):
            ds.images[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_count_checked_at_construction(self):
        with pytest.raises(CountMismatchError):
            Dataset(np.zeros((3, 2, 2)), np.zeros(2, dtype=np.int64), "test")

    def test_subset(self, mnist_dir):
        ds = load_mnist(str(mnist_dir[0]), "test")
        sub = ds.subset(2)
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.images, ds.images[:2])
        assert ds.subset(None) is ds
        assert ds.subset(100) is ds

    @pytest.mark.parametrize("n", [0, -3, 2.0, "abc", [2]])
    def test_subset_takes_none_or_a_positive_integer(self, n):
        ds = Dataset(np.zeros((3, 2, 2)), np.zeros(3, dtype=np.int64), "test")
        with pytest.raises(ValueError, match="integer >= 1"):
            ds.subset(n)


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


class TestPlaneChunks:
    @pytest.mark.parametrize("n", [1, 2, 3, 167, 168, 334, 335, 336, 1000])
    @pytest.mark.parametrize("plane_elements", [1, 3136, 6272, 2 ** 19,
                                                2 ** 30])
    def test_slices_cover_the_range_in_order(self, n, plane_elements):
        chunks = plane_chunks(n, plane_elements)
        assert [i for c in chunks for i in range(n)[c]] == list(range(n))

    @pytest.mark.parametrize("n", [2, 3, 167, 168, 335, 336, 1000])
    @pytest.mark.parametrize("plane_elements", [3136, 2 ** 19, 2 ** 30])
    def test_no_one_plane_chunk(self, n, plane_elements):
        sizes = [c.stop - c.start for c in plane_chunks(n, plane_elements)]
        assert min(sizes) >= 2

    @pytest.mark.parametrize("plane_elements", [1, 3136, 2 ** 30])
    def test_one_plane_is_one_chunk(self, plane_elements):
        assert plane_chunks(1, plane_elements) == [slice(0, 1)]

    def test_empty_stack_has_no_chunks(self):
        assert plane_chunks(0, 3136) == []

    def test_chunks_hold_about_two_to_the_nineteen_elements(self):
        # 2**19 // 3136 = 167 planes; the 1-plane tail joins the last chunk
        assert plane_chunks(335, 3136) == [slice(0, 167), slice(167, 335)]
        assert plane_chunks(336, 3136) == [slice(0, 167), slice(167, 334),
                                           slice(334, 336)]
        assert plane_chunks(5, 2 ** 30) == [slice(0, 2), slice(2, 5)]


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
                   2 ** 18)  # 2 images per chunk, the tail folded in
        assert [len(planes) for planes in seen] == [2 * c, 3 * c]
        assert np.array_equal(np.concatenate(seen).reshape(flat.shape), flat)

    def test_shape_is_checked_by_owner(self):
        with pytest.raises(ImageShapeError, match="toy net expects"):
            map_planes(lambda planes: planes, np.zeros((2, 4, 4)), 16, (5, 5),
                       "toy net")


# 8x8 RGB stack passes. Each takes an (n, 8, 8, 3) stack; its working
# memory must not grow with n, which it did while whole stacks were
# transposed into channel planes and back.
def _rgb_passes():
    rng = np.random.default_rng(1)
    k = rng.normal(0, 0.3, (3, 3, 3))
    cnn = CnnDenoiser(k, k / 9.0, np.eye(3))
    fusion = FusionDenoiser([identity_dense(8, 8) for _ in range(8)],
                            rng.normal(0, 0.1, (8, 3, 3)))
    return {
        "dense": identity_dense(8, 8).forward_stack,
        "cnn": cnn.forward_stack,
        "fusion": fusion.forward_stack,
        "median": lambda s: filter_stack(s, parse_filter("median:3")),
        "gauss": lambda s: filter_stack(s, parse_filter("gauss:0.8")),
        "score": lambda s: evaluate_pairs(s, s),
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
