"""Image tensors, dataset ingestion and portable image dumps.

Images are float64 numpy arrays with intensities in [0, 1], shaped (h, w)
for a single grayscale plane or (h, w, c) with c channels (3 for RGB).
Datasets stack images along axis 0 and are immutable after construction.
A loaded split keeps the file's uint8 pixels; Dataset.floats converts
only the slice a pass reads into float64 intensities. The float stack
passes (plane_samples, map_planes, noise.corrupt_dataset,
metrics.image_scores) refuse an integer stack with TypeError
(float_stack), so raw pixels are never read as intensities 0..255.
plane_samples and map_planes are the one view of a stack as (h, w)
planes, one per image channel: the denoisers, the filters and the SSIM
scorer work on planes, and no other module moves a channel axis.
plane_chunks is the one chunk rule of those stack passes.

Supported inputs: IDX files (big-endian dimension header, optionally
gzipped) and CIFAR-10 binary batches (1 label byte + 3072 channel-planar
pixel bytes per record). Output dumps are binary PGM (P5) / PPM (P6).
"""

import gzip
import math
import numbers
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .ckpt import replacing

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


def check_count(n):
    """n, if it is None or an integer >= 1 (an image count), else ValueError."""
    if not (n is None or isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"image count must be None or an integer >= 1, "
                         f"got {n!r}")
    return n


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable image/label collection.

    images: (n, h, w) grayscale or (n, h, w, 3) RGB; uint8 pixels 0..255
            (a loaded split, 1 byte per pixel) or float64 intensities in
            [0, 1]. Passes read them through floats, never directly.
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
        if self.images.dtype not in (np.uint8, np.float64):
            raise TypeError(f"images must be uint8 pixels or float64 "
                            f"intensities, got {self.images.dtype}")
        self.images.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self):
        return len(self.images)

    def subset(self, n):
        """First n images as a new Dataset (n=None keeps everything)."""
        if check_count(n) is None or n >= len(self):
            return self
        return Dataset(self.images[:n].copy(), self.labels[:n].copy(), self.split)

    def floats(self, part=slice(None)):
        """images[part] (a slice or an index array) as a new C-contiguous
        float64 array in [0, 1]: uint8 pixels divided by 255.0, float64
        intensities by 1.0, which is exact."""
        out = self.images[part].astype(np.float64, order="C")
        out /= 255.0 if self.images.dtype == np.uint8 else 1.0
        return out


def _open_maybe_gzip(path):
    # Sniff the two gzip magic bytes so both raw and .gz distributions load
    # without flags. A raw file is read unbuffered, straight into the
    # caller's array.
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb", buffering=0)


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


# An IDX payload is read in 64 KiB slices: one read of a gzipped payload
# would hold it twice, as decompressed bytes and then in the array.
_READ_SLICE = 2 ** 16
_MAX_DEFLATE_RATIO = 1032  # no gzipped file of n bytes holds over 1032 n


def _read_idx(path, expected_magic):
    """Read one IDX file and return its payload as a uint8 array.

    The header is four big-endian uint32 words minimum: a magic number
    (two zero bytes, a dtype byte 0x08 for unsigned byte, a rank byte)
    followed by one uint32 per dimension. Raw and gzipped files are read
    the same way, into an array of the header's size, which is refused
    first if the file cannot hold it.
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
        count, size = math.prod(dims), os.path.getsize(path)
        room = (size * _MAX_DEFLATE_RATIO if isinstance(f, gzip.GzipFile)
                else size - 4 - 4 * ndim)
        if count > room:
            raise TruncatedFileError("%s: header promises %d bytes, the file "
                                     "holds at most %d" % (path, count, room))
        out = np.empty(count, np.uint8)
        _read_payload(f, out, path)
    return out.reshape(dims)


def _read_payload(f, out, path):
    """Fill the uint8 array out from f in _READ_SLICE slices, then read f
    to its end, so a gzip stream checks its CRC; the bytes past out."""
    got = 0
    while got < len(out):
        n = f.readinto(out[got:got + _READ_SLICE])
        if not n:
            raise TruncatedFileError("%s: payload %d bytes, header promises "
                                     "%d" % (path, got, len(out)))
        got += n
    extra = 0
    while chunk := f.read(_READ_SLICE):
        extra += len(chunk)
    return extra


def _class_indices(labels, path):
    """uint8 labels as int64 class indices; DatasetError naming path for a
    label outside 0..9."""
    if labels.size and labels.max() > 9:
        raise DatasetError("%s: label %d is not a class index 0..9"
                           % (path, labels.max()))
    return labels.astype(np.int64)


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
        Dataset of (n, 28, 28) uint8 images (read into one array, about
        1 byte a pixel while loading, raw or gzipped),
        labels 0..9, file order preserved. DatasetError if the split
        holds no records.
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
    return Dataset(raw, _class_indices(labels, path), split)


def _cifar_size(path):
    """The bytes a CIFAR-10 batch file holds once read: a raw file's size,
    a gzipped one's as its trailer states it (mod 2**32), refused if no
    gzipped file of its size could hold that much."""
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        head = f.read(2)
        if head != b"\x1f\x8b":
            return size
        if size < 18:  # a gzip header and trailer take 18 bytes
            raise TruncatedFileError("%s: a %d-byte gzip stream" % (path, size))
        f.seek(-4, os.SEEK_END)
        (stated,) = struct.unpack("<I", f.read(4))
    if stated > size * _MAX_DEFLATE_RATIO:
        raise TruncatedFileError("%s: gzip trailer states %d bytes, the file "
                                 "holds at most %d"
                                 % (path, stated, size * _MAX_DEFLATE_RATIO))
    return stated


def load_cifar10(path, split):
    """Load CIFAR-10 binary batches under `path` for the given split.

    Records are 1 label byte followed by 3072 pixel bytes in channel-planar
    R,G,B order; the uint8 images are an interleaved (h, w, c) view of
    them. Every batch file of the split is read, in _READ_SLICE slices,
    into one array sized for them all up front, so loading holds about 1
    byte a pixel, raw or gzipped.
    """
    if split not in _CIFAR_FILES:
        raise ValueError("unknown split %r" % (split,))
    names = []
    for name in _CIFAR_FILES[split]:
        try:
            names.append(_resolve(path, name))
        except DatasetError:
            names.append(_resolve("%s/cifar-10-batches-bin" % path, name))
    sizes = [_cifar_size(fname) for fname in names]
    for fname, size in zip(names, sizes):
        if size == 0 or size % 3073 != 0:
            raise BadMagicError(
                "%s: %d bytes is not a multiple of 3073" % (fname, size))
    records, lo = np.empty((sum(sizes) // 3073, 3073), np.uint8), 0
    for fname, size in zip(names, sizes):
        with _gzip_errors(fname), _open_maybe_gzip(fname) as f:
            if _read_payload(f, records.reshape(-1)[lo:lo + size], fname):
                raise BadMagicError("%s: holds more than the %d bytes its "
                                    "gzip trailer states" % (fname, size))
        lo += size
    images = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    return Dataset(images, _class_indices(records[:, 0], path), split)


class ImageShapeError(ValueError):
    """An image stack whose planes are not the size a network was built for."""


def float_stack(images):
    """images as a float64 array; TypeError for an integer stack, whose
    values a float pass would read as intensities 0..255 (Dataset.floats
    gives a split's pixels in [0, 1])."""
    images = np.asarray(images)
    if np.issubdtype(images.dtype, np.integer):
        raise TypeError(f"{images.dtype} stack: image passes read float64 "
                        f"intensities in [0, 1] (use Dataset.floats)")
    return np.asarray(images, dtype=np.float64)


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
    planes = _planes(float_stack(images), shape, owner)
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
    images = float_stack(images)
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
    as PPM, maxval 255, whole or not at all (ckpt.replacing).

    Intensities quantize to bytes by round-half-up, so 0.5 maps to 128.
    """
    arr = np.asarray(img, dtype=np.float64)
    if not (arr.ndim == 2 or arr.ndim == 3 and arr.shape[2] in (1, 3)):
        raise ValueError("bad image shape %r" % (arr.shape,))
    raw = np.floor(np.clip(arr, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    magic = b"P6" if image_suffix(arr) == ".ppm" else b"P5"
    with replacing(path) as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0])
                + raw.tobytes())

