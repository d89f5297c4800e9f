"""Primitives for the binary model/snapshot containers.

Every container in the toolkit follows the same pattern: a 4-byte ASCII
magic, a u32 version, then fixed-width little-endian fields. Matrices are
stored column-major as f64; complex matrices interleave (real, imag) pairs.
These helpers keep the per-format readers and writers short and make the
round-trips bit-exact.
"""

import math
import os
import struct

import numpy as np

from .errors import FormatError

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _read_exact(f, n: int) -> bytes:
    """Read n bytes, refusing a declared size beyond the end of the file
    before anything is allocated for it."""
    pos = f.tell()
    left = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    if n > left:
        raise FormatError(f"truncated file: expected {n} bytes, got {left}")
    return f.read(n)


def write_header(f, magic: bytes, version: int = 1) -> None:
    assert len(magic) == 4
    f.write(magic)
    f.write(_U32.pack(version))


def read_header(f, magic: bytes) -> int:
    got = _read_exact(f, 4)
    if got != magic:
        raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")
    (version,) = _U32.unpack(_read_exact(f, 4))
    if version != 1:
        raise FormatError(f"unsupported {magic.decode()} version {version}")
    return version


def peek_magic(path) -> bytes:
    with open(path, "rb") as f:
        return _read_exact(f, 4)


def write_u16(f, value: int) -> None:
    f.write(_U16.pack(value))


def read_u16(f) -> int:
    return _U16.unpack(_read_exact(f, 2))[0]


def write_u32(f, value: int) -> None:
    f.write(_U32.pack(value))


def read_u32(f) -> int:
    return _U32.unpack(_read_exact(f, 4))[0]


def write_u64(f, value: int) -> None:
    f.write(_U64.pack(value))


def read_u64(f) -> int:
    return _U64.unpack(_read_exact(f, 8))[0]


def write_f64(f, value: float) -> None:
    f.write(_F64.pack(value))


def read_f64(f) -> float:
    return _F64.unpack(_read_exact(f, 8))[0]


def write_label(f, text: str) -> None:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError("label too long for u16 length prefix")
    write_u16(f, len(data))
    f.write(data)


def read_label(f) -> str:
    n = read_u16(f)
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"label is not valid UTF-8: {exc}") from exc


def write_f64_vector(f, v: np.ndarray) -> None:
    f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def read_f64_vector(f, n: int) -> np.ndarray:
    buf = _read_exact(f, 8 * n)
    return np.frombuffer(buf, dtype="<f8", count=n).astype(np.float64)


def write_f64_matrix(f, a: np.ndarray) -> None:
    """Column-major f64 payload."""
    f.write(np.asarray(a, dtype="<f8").tobytes(order="F"))


def read_f64_matrix(f, rows: int, cols: int) -> np.ndarray:
    buf = _read_exact(f, 8 * rows * cols)
    flat = np.frombuffer(buf, dtype="<f8", count=rows * cols)
    return flat.reshape((rows, cols), order="F").astype(np.float64)


def write_c128_array(f, a: np.ndarray) -> None:
    """Interleaved (real, imag) f64 pairs, column-major for matrices."""
    a = np.asarray(a, dtype=np.complex128)
    flat = a.flatten(order="F")
    inter = np.empty(2 * flat.size, dtype="<f8")
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    f.write(inter.tobytes())


def read_c128_array(f, shape) -> np.ndarray:
    size = math.prod(shape)
    buf = _read_exact(f, 16 * size)
    inter = np.frombuffer(buf, dtype="<f8", count=2 * size)
    flat = inter[0::2] + 1j * inter[1::2]
    return flat.reshape(shape, order="F").astype(np.complex128)


def expect_eof(f, what: str) -> None:
    if f.read(1):
        raise FormatError(f"trailing bytes after {what} payload")
