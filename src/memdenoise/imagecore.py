"""Image tensors, dataset ingestion and portable image dumps.

Images are float64 numpy arrays with intensities in [0, 1], shaped (h, w)
for a single grayscale plane or (h, w, 3) for RGB. Datasets stack images
along axis 0 and are immutable after construction.

Supported inputs: IDX files (big-endian dimension header, optionally
gzipped) and CIFAR-10 binary batches (1 label byte + 3072 channel-planar
pixel bytes per record). Output dumps are binary PGM (P5) / PPM (P6).
"""

import gzip
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

    @property
    def image_shape(self):
        """(height, width, channels) of every image in the set."""
        h, w = self.images.shape[1:3]
        c = self.images.shape[3] if self.images.ndim == 4 else 1
        return (h, w, c)

    def subset(self, n):
        """First n images as a new Dataset (n=None keeps everything)."""
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
        file order preserved.
    """
    if split not in _MNIST_FILES:
        raise ValueError("unknown split %r" % (split,))
    img_name, lab_name = _MNIST_FILES[split]
    raw = _read_idx(_resolve(path, img_name), IDX_MAGIC_IMAGES)
    labels = _read_idx(_resolve(path, lab_name), IDX_MAGIC_LABELS)
    if raw.shape[0] != labels.shape[0]:
        raise CountMismatchError(
            "%s: %d images vs %d labels" % (path, raw.shape[0], labels.shape[0]))
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


def write_image(img, path):
    """Dump an image as binary PGM (grayscale) or PPM (RGB), maxval 255.

    Intensities quantize to bytes by round-half-up, so 0.5 maps to 128.
    """
    arr = np.asarray(img, dtype=np.float64)
    raw = np.floor(np.clip(arr, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    if arr.ndim == 3 and arr.shape[2] == 1:
        raw = raw[:, :, 0]
    if raw.ndim == 2:
        header = b"P5\n%d %d\n255\n" % (raw.shape[1], raw.shape[0])
    elif raw.ndim == 3 and raw.shape[2] == 3:
        header = b"P6\n%d %d\n255\n" % (raw.shape[1], raw.shape[0])
    else:
        raise ValueError("bad image shape %r" % (arr.shape,))
    with open(path, "wb") as f:
        f.write(header + raw.tobytes())


def read_image(path):
    """Read back a binary PGM/PPM written by write_image.

    A file that ends inside its header or pixels raises
    TruncatedFileError; a header that is not P5/P6, has a non-numeric
    size, or a maxval outside 1..255 raises BadMagicError. Both name
    the path.
    """
    with open(path, "rb") as f:
        blob = f.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos] in b" \t\r\n":
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and blob[pos] not in b" \t\r\n":
            pos += 1
        if pos == len(blob):
            raise TruncatedFileError("%s: header ends in field %d of 4"
                                     % (path, len(fields) + 1))
        fields.append(blob[start:pos])
        if fields[0] not in (b"P5", b"P6"):
            raise BadMagicError("%s: not a binary PGM/PPM (%r)"
                                % (path, fields[0]))
    pos += 1  # single whitespace after maxval
    if not all(field.isdigit() for field in fields[1:]):
        raise BadMagicError("%s: non-numeric size or maxval %r"
                            % (path, fields[1:]))
    w, h, maxval = (int(field) for field in fields[1:])
    if not 1 <= maxval <= 255:
        raise BadMagicError("%s: maxval %d outside 1..255" % (path, maxval))
    channels = 1 if fields[0] == b"P5" else 3
    need = w * h * channels
    raw = np.frombuffer(blob[pos:pos + need], dtype=np.uint8)
    if raw.size < need:
        raise TruncatedFileError("%s: expected %d pixel bytes" % (path, need))
    img = raw.astype(np.float64) / float(maxval)
    return img.reshape(h, w) if channels == 1 else img.reshape(h, w, 3)
