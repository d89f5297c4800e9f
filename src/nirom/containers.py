"""The binary model/snapshot container frame and its field primitives.

Every container in the toolkit follows the same pattern: a 4-byte ASCII
magic, a u32 version, then fixed-width little-endian fields. Matrices are
stored column-major as f64; complex matrices interleave (real, imag) pairs.
This module owns the whole frame: ``writing`` and ``reading`` open the file,
handle magic, version and the end-of-file check, and map every decoding
failure to ``FormatError``; the per-format save/load functions list only
their fields. ``replacing`` is the one writer of every artifact: it writes a
sibling temp file and moves it into place, so an interrupted write never
leaves a half-written file under the final name.
"""

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, NiromError

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

VERSION = 1


@contextmanager
def replacing(path, mode: str = "wb"):
    """Open a sibling temp file for writing and move it onto ``path`` when
    the block finishes; on any failure the temp file is removed and an
    existing file at ``path`` keeps its old bytes."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@contextmanager
def writing(path, magic: bytes):
    """Binary file for one container's fields, after its magic and version."""
    with replacing(path) as f:
        f.write(magic)
        f.write(_U32.pack(VERSION))
        yield f


@contextmanager
def reading(path, magic: bytes):
    """Binary file positioned at one container's fields.

    The block reads the fields and builds the object from them; any
    ``ValueError`` or toolkit error raised meanwhile, or bytes left after
    the block, becomes a ``FormatError`` that names the file.
    """
    with open(path, "rb") as f:
        try:
            got = _read_exact(f, 4)
            if got != magic:
                raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")
            (version,) = _U32.unpack(_read_exact(f, 4))
            if version != VERSION:
                raise FormatError(f"unsupported {magic.decode()} version {version}")
            yield f
            if f.read(1):
                raise FormatError(f"trailing bytes after {magic.decode()} payload")
        except (ValueError, NiromError) as exc:
            raise FormatError(f"{os.fspath(path)}: {exc}") from exc


def _read_exact(f, n: int) -> bytes:
    """Read n bytes, refusing a negative size or one beyond the end of the
    file before anything is allocated for it."""
    pos = f.tell()
    left = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    if n < 0:
        raise FormatError(f"negative length {n}")
    if n > left:
        raise FormatError(f"truncated file: expected {n} bytes, got {left}")
    return f.read(n)


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
    return _read_exact(f, read_u16(f)).decode("utf-8")


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
    """Interleaved (real, imag) f64 pairs, column-major for matrices. These
    are exactly the bytes of "<c16", so neither direction needs arithmetic
    and every bit round-trips."""
    f.write(np.asarray(a, dtype="<c16").tobytes(order="F"))


def read_c128_array(f, shape) -> np.ndarray:
    size = math.prod(shape)
    buf = _read_exact(f, 16 * size)
    flat = np.frombuffer(buf, dtype="<c16", count=size)
    return flat.reshape(shape, order="F").astype(np.complex128)
