"""One streamed checkpoint container for every network and the classifier.

Layout: the magic ``MEMDCKPT``, little-endian uint32 version and header
length, a UTF-8 JSON header (kind, metadata, and each array's name,
dtype ``<f8`` or ``|b1`` and shape), then each array's raw C-order
little-endian bytes in header order. Arrays are written straight from
memory, and a load maps the file read-only and views each array in it:
no copy of the file, or of any array, is ever held. Loaded arrays are
read-only. The mapped pages are dropped from memory (release) once they
are no longer needed: by a dense network (each fusion member) once its
readout matrix is built and again once its load checks have read its
weights, and by a save once it has written each array. A later read of a
view faults its pages back in from the page cache. A save writes a new
file that replaces the old one, so a file a loaded network still maps is
never changed under it; a checkpoint must not be truncated or rewritten
in place while a run reads it.
"""

import json
import math
import mmap
import os
import struct
from contextlib import contextmanager

import numpy as np

MAGIC = b"MEMDCKPT"
VERSION = 1

_PREFIX = struct.Struct("<8sII")
_DTYPES = {"<f8": np.dtype("<f8"), "|b1": np.dtype(bool)}


def _raw(a):
    # The bytes of a contiguous array as a flat uint8 view (empty ones too)
    return a.reshape(-1).view(np.uint8)


def _stored(a):
    a = np.asarray(a)
    return np.ascontiguousarray(a, dtype=bool if a.dtype == bool else "<f8")


@contextmanager
def replacing(path, mode="wb"):
    """A file opened in mode that replaces path once the block succeeds.

    It is a temporary file beside path, <path>.<pid>.tmp, so a write
    that fails part-way leaves any earlier file at path as it was and
    removes the temporary file. An operating-system error is raised
    naming path. (No fsync: this guards against the process failing,
    not against the machine losing power.)
    """
    # One writer per process, so the process id makes the name unique.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except OSError as e:
        if e.errno is None:
            raise
        raise OSError(e.errno, e.strerror, os.fspath(path)) from e
    finally:
        if os.path.exists(tmp):  # the write failed before the replace
            os.remove(tmp)


def save(path, kind, meta, arrays):
    """Write a checkpoint of the given kind: JSON metadata plus named arrays.

    Boolean arrays are stored as bytes, every other array as float64.
    The file replaces path only once it is whole (replacing). Its size
    is reserved first where the platform can (posix_fallocate): a disk
    that cannot hold it fails the save before any byte is written, and
    ext4 then has no delayed allocation to force out when the file
    replaces an older one (about 0.08 s for a 123 MB fusion checkpoint).
    """
    arrays = {name: _stored(a) for name, a in arrays.items()}
    header = json.dumps({
        "kind": kind, "meta": meta,
        "arrays": [[name, a.dtype.str, list(a.shape)]
                   for name, a in arrays.items()],
    }, sort_keys=True).encode()
    size = _PREFIX.size + len(header) + sum(a.nbytes for a in arrays.values())
    with replacing(path) as f:
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(f.fileno(), 0, size)
        f.write(_PREFIX.pack(MAGIC, VERSION, len(header)))
        f.write(header)
        for a in arrays.values():
            f.write(_raw(a))
            release(a)


def release(*arrays):
    """Drop the resident pages of the loaded checkpoint mappings the
    arrays view (madvise MADV_DONTNEED, where the platform has it); other
    arrays are left alone. The views stay valid: a later read faults the
    read-only pages back in from the page cache."""
    advice = getattr(mmap, "MADV_DONTNEED", None)
    for a in arrays:
        while isinstance(a, np.ndarray):
            a = a.base
        if isinstance(a, memoryview):  # np.frombuffer may hold its buffer so
            a = a.obj
        if isinstance(a, mmap.mmap) and advice is not None:
            a.madvise(advice)


def _parse_header(blob, path):
    """(kind, meta, [(name, dtype, shape)]) of a header, strictly checked."""
    try:
        header = json.loads(blob)
        kind, meta, layout = header["kind"], header["meta"], []
        for name, dtype, shape in header["arrays"]:
            if not (isinstance(name, str) and dtype in _DTYPES
                    and all(type(d) is int and d >= 0 for d in shape)):
                raise ValueError(f"bad array entry {name!r}")
            layout.append((name, _DTYPES[dtype], tuple(shape)))
        if not isinstance(kind, str):
            raise ValueError(f"bad kind {kind!r}")
    except (KeyError, TypeError, ValueError) as e:
        # JSON and unicode decode errors are ValueErrors too
        raise ValueError(f"{path}: malformed checkpoint header: {e}") from e
    return kind, meta, layout


def load(path, kinds):
    """(kind, object) of the checkpoint at path.

    kinds maps each accepted kind to a callable (meta, arrays) ->
    object. The header-declared size must equal the file size; every
    format fault, including a field that callable rejects, is a
    ValueError naming path once. The arrays are read-only views of the
    file, mapped once its size, header and kind are checked.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        prefix = f.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size or prefix[:8] != MAGIC:
            raise ValueError(f"{path}: not a recognized checkpoint")
        _, version, n = _PREFIX.unpack(prefix)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if _PREFIX.size + n > size:
            raise ValueError(f"{path}: holds {size} bytes, expected at least "
                             f"{_PREFIX.size + n}")
        kind, meta, layout = _parse_header(f.read(n), path)
        expected = _PREFIX.size + n + sum(
            dtype.itemsize * math.prod(shape) for _, dtype, shape in layout)
        if size != expected:
            raise ValueError(f"{path}: holds {size} bytes, expected {expected}")
        if kind not in kinds:
            raise ValueError(f"{path}: holds a {kind} checkpoint, expected "
                             + " or ".join(kinds))
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    arrays, offset = {}, _PREFIX.size + n
    try:
        for name, dtype, shape in layout:
            count = math.prod(shape)
            arrays[name] = np.frombuffer(mapped, dtype, count,
                                         offset).reshape(shape)
            offset += count * dtype.itemsize
        return kind, kinds[kind](meta, arrays)
    except KeyError as e:
        raise ValueError(f"{path}: {kind} checkpoint lacks {e}") from e
    except (IndexError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: bad {kind} checkpoint: {e}") from e
