"""One streamed checkpoint container for every network and the classifier.

Layout: the magic ``MEMDCKPT``, little-endian uint32 version and header
length, a UTF-8 JSON header (kind, metadata, and each array's name,
dtype ``<f8`` or ``|b1`` and shape), then each array's raw C-order
little-endian bytes in header order. Arrays are written straight from
memory and read straight into fresh arrays: no copy of the file, or of
any array, is ever held.
"""

import json
import math
import os
import struct

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


def save(path, kind, meta, arrays):
    """Write a checkpoint of the given kind: JSON metadata plus named arrays.

    Boolean arrays are stored as bytes, every other array as float64.
    The bytes go to a temporary file beside path that then replaces it,
    so a save that fails part-way leaves any earlier file at path as it
    was and removes its temporary file. (No fsync: this guards against
    the process failing, not against the machine losing power.)
    """
    arrays = {name: _stored(a) for name, a in arrays.items()}
    header = json.dumps({
        "kind": kind, "meta": meta,
        "arrays": [[name, a.dtype.str, list(a.shape)]
                   for name, a in arrays.items()],
    }, sort_keys=True).encode()
    # One writer per process, so the process id makes the name unique.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_PREFIX.pack(MAGIC, VERSION, len(header)))
            f.write(header)
            for a in arrays.values():
                f.write(_raw(a))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the save failed before the replace
            os.remove(tmp)


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
    ValueError naming path once.
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
        arrays = {}
        for name, dtype, shape in layout:
            a = np.empty(shape, dtype)
            if f.readinto(_raw(a)) != a.nbytes:
                raise ValueError(f"{path}: ended while reading {name}")
            arrays[name] = a
    try:
        return kind, kinds[kind](meta, arrays)
    except KeyError as e:
        raise ValueError(f"{path}: {kind} checkpoint lacks {e}") from e
    except (IndexError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: bad {kind} checkpoint: {e}") from e
