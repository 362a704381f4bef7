import gzip
import struct

import numpy as np
import pytest

from memdenoise.imagecore import (BadMagicError, CountMismatchError, Dataset,
                                  DatasetError, TruncatedFileError,
                                  load_cifar10, load_mnist, read_image,
                                  write_image)


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

    def test_image_shape(self, mnist_dir):
        ds = load_mnist(str(mnist_dir[0]), "test")
        assert ds.image_shape == (28, 28, 1)


class TestPortableImages:
    def test_pgm_round_trip_is_exact_on_byte_grid(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(9, 7)).astype(np.float64) / 255.0
        path = tmp_path / "img.pgm"
        write_image(img, path)
        np.testing.assert_allclose(read_image(path), img, atol=0, rtol=0)

    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 6, 3)).astype(np.float64) / 255.0
        path = tmp_path / "img.ppm"
        write_image(img, path)
        np.testing.assert_array_equal(read_image(path), img)

    def test_half_rounds_up(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_image(np.array([[0.5]]), path)
        assert read_image(path)[0, 0] == 128 / 255.0

    def test_out_of_range_clipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_image(np.array([[-0.5, 1.5]]), path)
        np.testing.assert_array_equal(read_image(path), [[0.0, 1.0]])

    def test_header_written_correctly(self, tmp_path):
        path = tmp_path / "h.pgm"
        write_image(np.zeros((2, 3)), path)
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_single_channel_axis_collapses_to_pgm(self, tmp_path):
        path = tmp_path / "s.pgm"
        write_image(np.zeros((2, 2, 1)), path)
        assert read_image(path).shape == (2, 2)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        np.testing.assert_array_equal(read_image(path), [[0.0, 1.0]])

    def test_non_pnm_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(BadMagicError):
            read_image(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(TruncatedFileError):
            read_image(path)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4, 3)])
    def test_every_cut_is_truncation_naming_path(self, tmp_path, rng, shape):
        # P5 (grayscale) and P6 (RGB): cut inside the header, between the
        # header and the pixels, and inside the pixels.
        path = tmp_path / "cut.pnm"
        write_image(rng.random(shape), path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(TruncatedFileError) as info:
                read_image(path)
            assert str(path) in str(info.value), cut
        path.write_bytes(blob)
        assert read_image(path).shape == shape

    @pytest.mark.parametrize("header", [
        b"P5\nx 2\n255\n", b"P5\n2 -2\n255\n", b"P5\n2 2\n2.5\n",
        b"P6\n+2 2\n255\n", b"P5\n2 2\n0\n", b"P5\n2 2\n256\n",
        b"P5\n2 2\n65535\n", b"P7\n2 2\n255\n", b"\x00\x01\x02 ",
    ])
    def test_bad_header_is_bad_magic_naming_path(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(12))
        with pytest.raises(BadMagicError) as info:
            read_image(path)
        assert str(path) in str(info.value)

    def test_low_maxval_scales(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n1\n\x00\x01")
        np.testing.assert_array_equal(read_image(path), [[0.0, 1.0]])

    def test_bad_image_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_image(np.zeros((2, 2, 4)), tmp_path / "b.pgm")
