"""PSWT: a minimal binary tensor-dump format.

Layout (all integers little-endian):

    bytes 0..3   magic "PSWT"
    bytes 4..5   format version, u16 (currently 1)
    byte  6      dtype code, u8: 0 = float64, 1 = float32
    byte  7      rank, u8
    next 8*rank  extents, u64 each
    rest         element data, little-endian, row-major (C order)

Round-trips are bit-exact; the loader refuses anything it cannot prove
it understands (bad magic, unknown version/dtype, truncated payload).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..errors import UsageError
from .tensor import Tensor

MAGIC = b"PSWT"
VERSION = 1
_DTYPE_CODES = {np.dtype("<f8"): 0, np.dtype("<f4"): 1}
_CODE_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


def dump_tensor(t, path) -> None:
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    key = np.dtype(data.dtype.str.replace(">", "<"))
    if key not in _DTYPE_CODES:
        raise UsageError(f"PSWT stores float32/float64 only, got {data.dtype}")
    le = np.asarray(data, dtype=key, order="C")  # keeps 0-d rank at 0
    header = MAGIC + struct.pack("<HBB", VERSION, _DTYPE_CODES[key], le.ndim)
    header += struct.pack(f"<{le.ndim}Q", *le.shape) if le.ndim else b""
    Path(path).write_bytes(header + le.tobytes())


def load_tensor(path) -> Tensor:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise UsageError(f"{path}: not a PSWT file")
    version, dtype_code, rank = struct.unpack_from("<HBB", raw, 4)
    if version != VERSION:
        raise UsageError(f"{path}: unsupported PSWT version {version}")
    if dtype_code not in _CODE_DTYPES:
        raise UsageError(f"{path}: unknown dtype code {dtype_code}")
    offset = 8
    if len(raw) < offset + 8 * rank:
        raise UsageError(f"{path}: truncated PSWT header")
    shape = struct.unpack_from(f"<{rank}Q", raw, offset) if rank else ()
    offset += 8 * rank
    dtype = _CODE_DTYPES[dtype_code]
    count = math.prod(shape)  # Python ints: a fixed-width product can wrap to a size that matches
    expected = count * dtype.itemsize
    if len(raw) - offset != expected:
        raise UsageError(f"{path}: payload is {len(raw) - offset} bytes, expected {expected}")
    try:
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)
    except ValueError as exc:  # empty, but the other extents are beyond what numpy can index
        raise UsageError(f"{path}: extents {shape} cannot be loaded: {exc}") from None
    return Tensor._wrap(arr.copy())  # writable, and a 0-d tensor stays 0-d
