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

At every instant an artifact's name holds the old complete file, no file,
or the new complete file: ``replacing`` unlinks the old file and then
renames the temp file to the free name. Renaming over an existing file
would make ext4 (with its default ``auto_da_alloc``) allocate and start
writing back the new file inside ``rename(2)``, 35-60 ms for a 40 MB field;
on a free name the rename costs a few microseconds. Between the unlink and
the rename no file exists under the name. Nothing is fsynced, so after a
power loss an artifact may be missing or truncated; every reader refuses
both (exit 4), and the stage that writes it runs again.
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
    """Open a sibling temp file for writing and move it to ``path`` when
    the block finishes, unlinking the old file first (see the module
    docstring); on any failure the temp file is removed and an existing
    file at ``path`` keeps its old bytes."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as f:
            yield f
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.rename(tmp, path)
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
def decoding(path):
    """Turn a ``ValueError`` or toolkit error raised in the block into a
    ``FormatError`` that names the file."""
    try:
        yield
    except (ValueError, NiromError) as exc:
        raise FormatError(f"{os.fspath(path)}: {exc}") from exc


def read_frame(f, magic: bytes) -> None:
    """Check the magic and version that open every container."""
    got = _read_exact(f, 4)
    if got != magic:
        raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")
    (version,) = _U32.unpack(_read_exact(f, 4))
    if version != VERSION:
        raise FormatError(f"unsupported {magic.decode()} version {version}")


@contextmanager
def reading(path, magic: bytes):
    """Binary file positioned at one container's fields.

    The block reads the fields and builds the object from them; any
    ``ValueError`` or toolkit error raised meanwhile, or bytes left after
    the block, becomes a ``FormatError`` that names the file.
    """
    with open(path, "rb") as f, decoding(path):
        read_frame(f, magic)
        yield f
        if f.read(1):
            raise FormatError(f"trailing bytes after {magic.decode()} payload")


def check_left(f, n: int, magic: bytes | None = None) -> None:
    """Refuse a negative size, or one beyond the end of the file, before
    anything is allocated for it. With a magic, the n bytes must also be
    all that is left of that container."""
    pos = f.tell()
    left = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    if n < 0:
        raise FormatError(f"negative length {n}")
    if n > left:
        raise FormatError(f"truncated file: expected {n} bytes, got {left}")
    if magic is not None and n < left:
        raise FormatError(f"trailing bytes after {magic.decode()} payload")


def _read_exact(f, n: int) -> bytes:
    """Read n bytes that ``check_left`` found in the file."""
    check_left(f, n)
    return f.read(n)


def _fill(f, flipped: np.ndarray) -> None:
    """Read a C-contiguous array's bytes from the file."""
    got = f.readinto(flipped)
    if got != flipped.nbytes:
        raise FormatError(
            f"truncated file: expected {flipped.nbytes} bytes, got {got}")


def _read_array(f, shape, dtype: str) -> np.ndarray:
    """A column-major array of ``shape`` read straight into its buffer; the
    size is checked against the file before the array is allocated."""
    check_left(f, math.prod(shape) * np.dtype(dtype).itemsize)
    # the reversed shape in row-major order is ``shape`` in column-major
    flipped = np.empty(shape[::-1], dtype=dtype)
    _fill(f, flipped)
    return flipped.T.astype(flipped.dtype.newbyteorder("="), copy=False)


def read_f64_block(f, out: np.ndarray) -> np.ndarray:
    """Fill a column-major "<f8" matrix from the file's next bytes, which
    the caller has checked are there, and return it."""
    _fill(f, out.T)
    return out


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


def _write_array(f, a: np.ndarray, dtype: str) -> None:
    """Column-major payload, written through the array's own buffer when it
    already is column-major in ``dtype``: every vector, the fields that
    load_snapshots, generate_synthetic, pod.reconstruct and dmd.dmd_forecast
    return, and the column blocks of a lifted field, so generate and
    predict write their fields without a copy.
    Other matrices (latent coefficients, POD and DMD modes) are copied
    column-major first."""
    f.write(np.asarray(a, dtype=dtype).ravel(order="F"))


def write_f64_vector(f, v: np.ndarray) -> None:
    _write_array(f, v, "<f8")


def read_f64_vector(f, n: int) -> np.ndarray:
    return _read_array(f, (n,), "<f8")


def write_f64_matrix(f, a: np.ndarray) -> None:
    """Column-major f64 payload."""
    _write_array(f, a, "<f8")


def read_f64_matrix(f, rows: int, cols: int) -> np.ndarray:
    return _read_array(f, (rows, cols), "<f8")


def write_c128_array(f, a: np.ndarray) -> None:
    """Interleaved (real, imag) f64 pairs, column-major for matrices. These
    are exactly the bytes of "<c16", so neither direction needs arithmetic
    and every bit round-trips."""
    _write_array(f, a, "<c16")


def read_c128_array(f, shape) -> np.ndarray:
    return _read_array(f, shape, "<c16")
