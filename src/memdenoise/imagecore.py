"""Image tensors, dataset ingestion and portable image dumps.

Images are float64 numpy arrays with intensities in [0, 1], shaped (h, w)
for a single grayscale plane or (h, w, c) with c channels (3 for RGB).
Datasets stack images along axis 0 and are immutable after construction.
plane_samples and map_planes are the one view of a stack as (h, w)
planes, one per image channel: the denoisers, the filters and the SSIM
scorer work on planes, and no other module moves a channel axis.
plane_chunks is the one chunk rule of those stack passes.

Supported inputs: IDX files (big-endian dimension header, optionally
gzipped) and CIFAR-10 binary batches (1 label byte + 3072 channel-planar
pixel bytes per record). Output dumps are binary PGM (P5) / PPM (P6).
"""

import gzip
import numbers
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

_CIFAR_FILES = {
    "train": tuple("data_batch_%d.bin" % i for i in range(1, 6)),
    "test": ("test_batch.bin",),
}


class DatasetError(Exception):
    """Base class for dataset ingestion failures."""


class BadMagicError(DatasetError):
    """File header does not identify the expected format."""


class TruncatedFileError(DatasetError):
    """File ends before the payload promised by its header."""


class CountMismatchError(DatasetError):
    """Image file and label file disagree on the record count."""


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable image/label collection.

    images: float64 array, (n, h, w) grayscale or (n, h, w, 3) RGB, in [0, 1].
    labels: int64 array of class indices 0..9, same length as images.
    split:  'train' or 'test'.
    """

    images: np.ndarray
    labels: np.ndarray
    split: str

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise CountMismatchError(
                "%d images vs %d labels" % (len(self.images), len(self.labels)))
        self.images.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self):
        return len(self.images)

    def subset(self, n):
        """First n images as a new Dataset (n=None keeps everything)."""
        if not (n is None or isinstance(n, numbers.Integral) and n >= 1):
            raise ValueError(f"image count must be None or an integer >= 1, "
                             f"got {n!r}")
        if n is None or n >= len(self):
            return self
        return Dataset(self.images[:n].copy(), self.labels[:n].copy(), self.split)


def _open_maybe_gzip(path):
    # Sniff the two gzip magic bytes so both raw and .gz distributions load
    # without flags.
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


@contextmanager
def _gzip_errors(path):
    # A gzip stream cut short or damaged fails like a raw file would.
    try:
        yield
    except EOFError as e:
        raise TruncatedFileError("%s: compressed stream ends early (%s)"
                                 % (path, e)) from e
    except (gzip.BadGzipFile, zlib.error) as e:
        raise BadMagicError("%s: corrupt gzip stream (%s)" % (path, e)) from e


def _read_idx(path, expected_magic):
    """Read one IDX file and return its payload as a uint8 array.

    The header is four big-endian uint32 words minimum: a magic number
    (two zero bytes, a dtype byte 0x08 for unsigned byte, a rank byte)
    followed by one uint32 per dimension.
    """
    with _gzip_errors(path), _open_maybe_gzip(path) as f:
        head = f.read(4)
        if len(head) < 4:
            raise TruncatedFileError("%s: header shorter than 4 bytes" % path)
        (magic,) = struct.unpack(">I", head)
        if magic != expected_magic:
            raise BadMagicError(
                "%s: magic 0x%08x, expected 0x%08x" % (path, magic, expected_magic))
        ndim = magic & 0xFF
        dim_bytes = f.read(4 * ndim)
        if len(dim_bytes) < 4 * ndim:
            raise TruncatedFileError("%s: truncated dimension header" % path)
        dims = struct.unpack(">" + "I" * ndim, dim_bytes)
        payload = f.read()
    count = int(np.prod(dims))
    if len(payload) < count:
        raise TruncatedFileError(
            "%s: payload %d bytes, header promises %d" % (path, len(payload), count))
    data = np.frombuffer(payload[:count], dtype=np.uint8)
    return data.reshape(dims)


def _resolve(path, name):
    for cand in ("%s/%s" % (path, name), "%s/%s.gz" % (path, name)):
        try:
            with open(cand, "rb"):
                return cand
        except OSError:
            continue
    raise DatasetError("%s: no %s or %s.gz" % (path, name, name))


def load_mnist(path, split):
    """Load the MNIST IDX pair under `path` for the given split.

    Args:
        path: directory holding the standard IDX files, raw or gzipped.
        split: 'train' or 'test'.

    Returns:
        Dataset of (n, 28, 28) float64 images scaled by 1/255, labels 0..9,
        file order preserved. DatasetError if the split holds no records.
    """
    if split not in _MNIST_FILES:
        raise ValueError("unknown split %r" % (split,))
    img_name, lab_name = _MNIST_FILES[split]
    raw = _read_idx(_resolve(path, img_name), IDX_MAGIC_IMAGES)
    labels = _read_idx(_resolve(path, lab_name), IDX_MAGIC_LABELS)
    if raw.shape[0] != labels.shape[0]:
        raise CountMismatchError(
            "%s: %d images vs %d labels" % (path, raw.shape[0], labels.shape[0]))
    if raw.shape[0] == 0:
        raise DatasetError("%s: the %s split holds no records" % (path, split))
    images = raw.astype(np.float64) / 255.0
    return Dataset(images, labels.astype(np.int64), split)


def load_cifar10(path, split):
    """Load CIFAR-10 binary batches under `path` for the given split.

    Records are 1 label byte followed by 3072 pixel bytes in channel-planar
    R,G,B order; planes are reordered to interleaved (h, w, c) layout.
    """
    if split not in _CIFAR_FILES:
        raise ValueError("unknown split %r" % (split,))
    chunks, labels = [], []
    for name in _CIFAR_FILES[split]:
        try:
            fname = _resolve(path, name)
        except DatasetError:
            fname = _resolve("%s/cifar-10-batches-bin" % path, name)
        with _gzip_errors(fname), _open_maybe_gzip(fname) as f:
            blob = f.read()
        if len(blob) == 0 or len(blob) % 3073 != 0:
            raise BadMagicError(
                "%s: %d bytes is not a multiple of 3073" % (fname, len(blob)))
        rec = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 3073)
        labels.append(rec[:, 0])
        chunks.append(rec[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1))
    images = np.concatenate(chunks).astype(np.float64) / 255.0
    return Dataset(images, np.concatenate(labels).astype(np.int64), split)


class ImageShapeError(ValueError):
    """An image stack whose planes are not the size a network was built for."""


def _planes(images, shape, owner):
    """An (n, h, w) or (n, h, w, c) float64 stack as an (n, c, h, w)
    view (c = 1 for the former): each image's channels in channel order.

    With shape given, ImageShapeError naming owner unless the planes are
    that shape.
    """
    if shape is not None and images.shape[1:3] != tuple(shape):
        raise ImageShapeError(
            f"images {images.shape}, {owner} expects {tuple(shape)}")
    if images.ndim not in (3, 4):
        raise ValueError(f"expected an (n, h, w) or (n, h, w, c) stack, got "
                         f"shape {images.shape}")
    return images[:, None] if images.ndim == 3 else images.transpose(0, 3, 1, 2)


def plane_samples(images, shape=None, owner=""):
    """An (n, h, w) or (n, h, w, c) stack as (n*c, h*w) flattened planes,
    each image's channels in channel order, and the plane shape (h, w);
    see _planes for shape and owner."""
    planes = _planes(np.asarray(images, dtype=np.float64), shape, owner)
    h, w = planes.shape[2:]
    return planes.reshape(-1, h * w), (h, w)


def plane_chunks(n, plane_elements):
    """Ordered slices covering range(n), each about 2**19 float64s of a
    stack pass holding plane_elements per plane, so its memory does not
    grow with n. No chunk is 1 plane unless n == 1 (the tail joins the
    chunk before it): a 1-row crossbar readout takes another BLAS path."""
    step = max(2, 2 ** 19 // max(1, plane_elements))
    edges = [0, *range(step, n - 1, step), n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def map_planes(fn, images, plane_elements, shape=None, owner=""):
    """fn over the channel planes of an (n, h, w) or (n, h, w, c) stack,
    back in the stack's layout (a new C-contiguous float64 array).

    fn takes an (m, h, w) array of planes and returns m planes of values.
    It is called once per plane_chunks chunk of images, each image's
    planes together, so neither the stack nor its output is ever
    transposed whole; see _planes for shape and owner.
    """
    images = np.asarray(images, dtype=np.float64)
    out = np.empty(images.shape)
    planes, into = _planes(images, shape, owner), _planes(out, None, "")
    n, c, h, w = planes.shape
    for chunk in plane_chunks(n, c * plane_elements):
        into[chunk] = fn(planes[chunk].reshape(-1, h, w)).reshape(-1, c, h, w)
    return out


def image_suffix(img):
    """'.ppm' for an (h, w, 3) image, else '.pgm': write_image's format."""
    return ".ppm" if np.shape(img)[2:] == (3,) else ".pgm"


def write_image(img, path):
    """Dump an (h, w) or (h, w, 1) image as binary PGM, an (h, w, 3) one
    as PPM, maxval 255.

    Intensities quantize to bytes by round-half-up, so 0.5 maps to 128.
    """
    arr = np.asarray(img, dtype=np.float64)
    if not (arr.ndim == 2 or arr.ndim == 3 and arr.shape[2] in (1, 3)):
        raise ValueError("bad image shape %r" % (arr.shape,))
    raw = np.floor(np.clip(arr, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    magic = b"P6" if image_suffix(arr) == ".ppm" else b"P5"
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0])
                + raw.tobytes())

