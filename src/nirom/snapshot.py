"""Full-order snapshot matrices: container type, SNP1 file I/O, centering,
the time-grid checks, and the synthetic generators that stand in for
high-fidelity solver output.

A snapshot matrix stores one spatial degree of freedom per row and one time
instant per column. The binary ``SNP1`` container round-trips bit-exactly.
A field too large to hold twice moves through it a column block at a time
(``column_blocks``): ``write_snapshots`` takes the blocks that every field
builder makes (``lifted_field``; ``product_field`` for a product of modes
and coefficients), and ``open_snapshots`` hands them back.
"""

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import containers as io
from .errors import NumericalError, ValidationError

SNP_MAGIC = b"SNP1"
MAX_GRID_POINTS = 2**32 - 1  # SNP1 stores the grid size as a u32

#: the SyntheticSpec fields each synthetic kind reads besides its grid and
#: component
KIND_PARAMETERS = {
    "traveling_wave": ("wave_speed",),
    "linear_system": ("seed",),
    "harmonic_latent": ("omega", "seed"),
}
SYNTHETIC_KINDS = tuple(KIND_PARAMETERS)


def first_nonfinite(a: np.ndarray):
    """(row, col) of the first non-finite entry, or None."""
    finite = np.isfinite(a)
    if finite.all():
        return None
    i, k = np.unravel_index(np.argmin(finite), a.shape)
    return int(i), int(k)


def check_steps(states: np.ndarray, times: np.ndarray, what: str,
                first: int = 0, to_time=float) -> None:
    """Refuse a trajectory whose states, the columns of ``states``, are not
    all finite: a NumericalError "<what> at step k (t=...)" naming the
    first step k that holds a non-finite value, counted from ``first`` for
    a block of a longer trajectory, and its time to_time(times[k])."""
    bad = first_nonfinite(states.T)
    if bad is not None:
        k = first + bad[0]
        raise NumericalError(f"{what} at step {k} (t={to_time(times[k]):.6g})")


def check_finite(data: np.ndarray, col0: int = 0) -> None:
    """Refuse a non-finite value, naming its row and its column, counted
    from ``col0`` for a block of a larger field."""
    pos = first_nonfinite(data)
    if pos is not None:
        raise ValidationError(
            f"non-finite value at row {pos[0]}, column {col0 + pos[1]}")


def _check_size(n: int, m: int) -> None:
    if n < 1:
        raise ValidationError("need at least one spatial DOF")
    if m < 2:
        raise ValidationError("need at least two snapshots")


#: values in one column block of a streamed field: 1 MiB of f64 stays in a
#: core's L2 cache between the steps that make a block and use it
BLOCK_VALUES = 1 << 17


def column_blocks(n: int, m: int):
    """Slices of the column blocks an n x m field moves in: BLOCK_VALUES
    // n columns each (at least one), the last one narrower if need be."""
    width = max(1, BLOCK_VALUES // n)
    return [slice(start, min(m, start + width)) for start in range(0, m, width)]


def check_times(times) -> np.ndarray:
    """The one check of a time vector: 1-D, at least one entry, finite,
    strictly increasing. Returns it as float64; raises ValidationError."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 1:
        raise ValidationError("times must be a nonempty 1-D vector")
    if not np.all(np.isfinite(times)):
        raise ValidationError("times contain non-finite values")
    steps = np.diff(times) <= 0
    if np.any(steps):
        k = int(np.argmax(steps))
        raise ValidationError(
            f"times must be strictly increasing; violation between "
            f"indices {k} and {k + 1} ({times[k]} -> {times[k + 1]})")
    return times


def time_tolerance(times: np.ndarray) -> float:
    """How far a time may be from one of `times` and still be the same
    time: 1e-9 relative to the grid's largest magnitude, at least 1e-9."""
    return 1e-9 * max(abs(times[0]), abs(times[-1]), 1.0)


@dataclass(frozen=True)
class SnapshotSet:
    """Full-order solution matrix with one column per time instant."""

    data: np.ndarray  # (N, M)
    times: np.ndarray  # (M,)
    component: str = "u"

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "times", times)
        if data.ndim != 2:
            raise ValidationError("snapshot data must be a 2-D matrix")
        n, m = data.shape
        _check_size(n, m)
        if times.shape != (m,):
            raise ValidationError(
                f"times length {times.shape} does not match {m} columns")
        check_times(times)
        check_finite(data)

    @property
    def mesh_size(self) -> int:
        return self.data.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]


def _lifted_blocks(lift, times: np.ndarray, dest: np.ndarray):
    """Lift the field one column block at a time into ``dest``, the whole
    column-major field or a buffer narrower than it that every block
    reuses, and yield each block once it is checked. A non-finite value in
    a lift of finite model values can only be an overflow: a NumericalError
    naming the first step and time it reaches."""
    n, m = dest.shape[0], times.size
    reuse = dest.shape[1] < m
    for cols in column_blocks(n, m):
        block = dest[:, :cols.stop - cols.start] if reuse else dest[:, cols]
        # an overflow is reported below, without numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            lift(cols, block)
        check_steps(block, times, "full field overflows", cols.start)
        yield block


def lifted_field(lift, n: int, times: np.ndarray, component: str, path=None):
    """The full n-row field that lift(cols, out) writes columns cols of into
    out, a column-major (n, w) array, lifted one column block at a time
    (column_blocks). With a path the blocks go straight into that SNP1 file
    through one block-wide buffer, and None is returned; without one they
    fill a SnapshotSet. Either way every value is the same."""
    m = times.size
    _check_size(n, m)
    if path is None:
        data = np.empty((n, m), order="F")
        for _ in _lifted_blocks(lift, times, data):
            pass
        return SnapshotSet(data, times, component)
    buf = np.empty((n, column_blocks(n, m)[0].stop), order="F")
    write_snapshots(path, n, times, component,
                    _lifted_blocks(lift, times, buf))


def matmul_like(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b written in a's own memory layout.

    numpy writes a @ b row-major. For a tall column-major a, OpenBLAS forms
    that result on a route 1.8-5.6x slower than the column-major one, with
    the same bits (2-core x86-64, 2 OpenBLAS threads; 20000 x 250 by
    250 x 116: 23.6 against 13.2 ms; by 250 x 2: 9.2 against 1.6 ms). A
    row-major a, such as a wide field's transpose, keeps a row-major
    result: there the column-major one is slower and rounds differently
    (500 x 64 by 64 x 64: 0.082 against 0.104 ms)."""
    return np.matmul(a, b, np.empty_like(a, shape=(a.shape[0], b.shape[1])))


def product_field(coeffs: np.ndarray, modes_t: np.ndarray, times: np.ndarray,
                  component: str, path=None, mean=None):
    """The field modes_t.T @ coeffs (+ mean in every column), one GEMM per
    column block (lifted_field). A one-column block is taken as two equal
    columns: BLAS's one-column route rounds otherwise, so a column's bits
    do not depend on the block it falls in."""
    def lift(cols, out):
        # the transposed product is the block in SNP1's column-major layout,
        # the orientation OpenBLAS writes fastest (matmul_like)
        if out.shape[1] > 1:
            np.matmul(coeffs[:, cols].T, modes_t, out.T)
        else:
            out[:, 0] = (coeffs[:, [cols.start] * 2].T @ modes_t)[0]
        if mean is not None:
            out += mean[:, None]

    return lifted_field(lift, modes_t.shape[1], times, component, path)


@dataclass(frozen=True)
class CenteredSet:
    """Mean-removed snapshots: ``deviations[:, k] = data[:, k] - mean``."""

    deviations: np.ndarray  # (N, M)
    mean: np.ndarray  # (N,)
    times: np.ndarray  # (M,)
    component: str = "u"

    def __post_init__(self):
        for name in ("deviations", "mean", "times"):
            object.__setattr__(self, name, np.asarray(getattr(self, name),
                                                      dtype=np.float64))

    @property
    def mesh_size(self) -> int:
        return self.deviations.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic snapshot set.

    kinds:
      traveling_wave  sin(x - c t) on a uniform periodic grid over [0, 2*pi),
                      lifted as sin x cos ct - cos x sin ct (product_field)
      linear_system   v_{k+1} = A v_k, A seeded and normalized to unit
                      spectral radius (one map application per time step)
      harmonic_latent [cos(w t), sin(w t)] lifted to N dims by a seeded
                      orthonormal map (identity when N == 2)

    Refused before any allocation, by a ValueError naming the field: a rate
    that overflows, or a grid, label or field beyond SNP1 or MAX_FIELD_BYTES.
    """

    kind: str
    grid_points: int
    t_start: float
    t_end: float
    dt: float
    wave_speed: float = 1.0
    omega: float = 1.0
    seed: int = 0
    component: str = "u"
    #: the uniform grid (time_grid) of t_start, t_end and dt
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(
                f"kind must be one of {SYNTHETIC_KINDS}, got {self.kind!r}")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        object.__setattr__(self, "times",
                           time_grid(self.t_start, self.t_end, self.dt))
        # Python floats: an overflow gives inf here instead of a warning
        far = float(max(abs(self.times[0]), abs(self.times[-1])))
        for rate in ("wave_speed", "omega"):
            if (rate in KIND_PARAMETERS[self.kind]
                    and not math.isfinite(float(getattr(self, rate)) * far)):
                raise ValueError(f"{rate} is too large: {rate} * t overflows "
                                 f"at t = {far:.6g}")
        n = int(self.grid_points)  # numpy's fixed-width n * n would wrap
        if n > MAX_GRID_POINTS:
            raise ValueError(f"grid_points is {n}, but SNP1 holds at most "
                             f"{MAX_GRID_POINTS} points")
        try:
            size = len(self.component.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise ValueError(
                f"component is not UTF-8 text ({exc.reason})") from exc
        if size > io.MAX_LABEL_BYTES:
            raise ValueError(f"component is {size} bytes in UTF-8, but SNP1 "
                             f"holds a label of at most {io.MAX_LABEL_BYTES}")
        need = 8 * n * self.times.size + (
            8 * n * n if self.kind == "linear_system" else 0)
        if need > MAX_FIELD_BYTES:
            raise ValueError(
                f"grid_points is {n}: the {self.kind} field takes "
                f"{need / 2**30:.3g} GiB, above the limit of "
                f"{MAX_FIELD_BYTES / 2**30:g} GiB")

    @property
    def recipe(self) -> dict:
        """The kind, the component and the parameters the kind reads: all
        that tells two fields on one grid apart."""
        return {"kind": self.kind, "component": self.component,
                **{name: getattr(self, name)
                   for name in KIND_PARAMETERS[self.kind]}}


#: the most times a uniform grid may hold
MAX_GRID_TIMES = 1_000_000
#: the most bytes a synthetic field (8 N M), with linear_system's N x N
#: operator, may take: generate streams it, but decompose and fit --method
#: dmd load it whole beside their working copies, so SyntheticSpec refuses
#: a larger one, not the allocator; 20000 points x 3000 times fit
MAX_FIELD_BYTES = 1 << 32


def time_grid(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """The one builder and check of a uniform grid: the times t_start +
    k*dt covering [t_start, t_end] (inclusive up to a slack on the endpoint
    of 1e-9*dt plus four roundings of the grid's largest time). A
    nonpositive dt, an empty span, fewer than two times, more than
    MAX_GRID_TIMES (counted in float first, so a span over dt that
    overflows is refused too) or a slack of half a step is a ValueError
    whose message starts with the parameter at fault, 'dt' or 't_end'."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not t_end > t_start:
        raise ValueError("t_end must exceed t_start")
    steps = (t_end - t_start) / dt + 1e-9
    if not steps < MAX_GRID_TIMES:
        raise ValueError(
            f"dt is too fine: the grid would hold {steps + 1:.6g} times; at "
            f"most {MAX_GRID_TIMES} are allowed")
    # after the count check, which bounds far / dt, so nothing overflows
    far = max(abs(t_start), abs(t_end))
    slack = 4 * sys.float_info.epsilon * far / dt
    if slack >= 0.5:
        raise ValueError(
            f"dt is too fine: steps of {dt:.6g} cannot be told apart at "
            f"t = {far:.6g}")
    steps += slack
    if steps < 1:
        raise ValueError("dt must not exceed t_end - t_start: the grid needs "
                         "at least two times")
    return t_start + dt * np.arange(math.floor(steps) + 1)


def same_times(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether times a are the nonempty times b: as many, each within
    time_tolerance(b) of its counterpart."""
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= time_tolerance(b)))


def uniform_step(times: np.ndarray, message: str) -> float:
    """Spacing of a uniform time grid: every step within 1e-9 of the first,
    relative, plus four roundings of the grid's largest time, which is what
    time_grid's own steps are off by far from t = 0. Raises
    ValueError(message) for any other grid."""
    dts = np.diff(times)
    far = max(abs(times[0]), abs(times[-1]))
    slack = 1e-9 * abs(dts[0]) + 4 * np.finfo(np.float64).eps * far
    if np.any(np.abs(dts - dts[0]) > slack):
        raise ValueError(message)
    return float(dts[0])


def center(snapshots: SnapshotSet, in_place: bool = False) -> CenteredSet:
    """Remove the temporal mean from every snapshot column. With
    ``in_place`` the deviations overwrite ``snapshots.data``, which saves a
    field of memory and its copy; only a caller that owns the array and
    does not read the snapshots again may ask for it. A mean that
    overflows is a NumericalError, raised before the field is changed; a
    deviation that overflows is left to the Gram SVD's check."""
    data = snapshots.data
    with np.errstate(over="ignore", invalid="ignore"):
        mean = data.mean(axis=1)
        if not np.all(np.isfinite(mean)):
            i = int(np.argmin(np.isfinite(mean)))
            raise NumericalError(
                f"the temporal mean of grid point {i} is not finite: its "
                f"entries (largest magnitude {np.max(np.abs(data[i])):.3g}) "
                "overflow when summed")
        if in_place:
            data -= mean[:, None]
            deviations = data
        else:
            deviations = data - mean[:, None]
    return CenteredSet(deviations, mean, snapshots.times, snapshots.component)


def orthonormal_lift(n: int, k: int, seed: int) -> np.ndarray:
    """Seeded (n, k) matrix with orthonormal columns; identity when n == k."""
    if n == k:
        return np.eye(n)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    # fix the QR sign ambiguity so the lift is deterministic
    return q * np.sign(np.diag(r))


def generate_synthetic(spec: SyntheticSpec, path=None):
    """The spec's field, lifted a column block at a time (lifted_field):
    with a path, written there and never held whole; else a SnapshotSet."""
    times, n = spec.times, spec.grid_points
    if spec.kind == "linear_system":
        rng = np.random.default_rng(spec.seed)
        a = rng.standard_normal((n, n))
        a /= np.max(np.abs(np.linalg.eigvals(a)))
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)

        def lift(cols, out):
            # v_k, carried from block to block apart from out, which a
            # path reuses
            nonlocal v
            for k in range(cols.start, cols.stop):
                v = a @ v if k else v
                out[:, k - cols.start] = v

        return lifted_field(lift, n, times, spec.component, path)
    if spec.kind == "traveling_wave":
        x = 2.0 * np.pi * np.arange(n) / n
        rate, map_t = spec.wave_speed, np.array([np.sin(x), -np.cos(x)])
    else:  # harmonic_latent
        rate, map_t = spec.omega, orthonormal_lift(n, 2, spec.seed).T
    wt = rate * times
    return product_field(np.array([np.cos(wt), np.sin(wt)]), map_t, times,
                         spec.component, path)


# ---------------------------------------------------------------------------
# File I/O
#
# SNP1 layout: magic "SNP1", u32 version=1, "II" N, M, component label,
# M f64 time stamps, N*M f64 values column-major, all little-endian.
# ---------------------------------------------------------------------------


def write_snapshots(path, n: int, times: np.ndarray, component: str,
                    blocks) -> None:
    """An SNP1 file of a field given as column-major (n, w) blocks of its
    columns, in order; save_snapshots is the one-block case."""
    m = times.size
    with io.writing(path, SNP_MAGIC) as f:
        io.write_fields(f, "II", n, m)
        io.write_label(f, component)
        io.write_array(f, times, "<f8")
        cols = 0
        for block in blocks:
            io.write_array(f, block, "<f8")
            cols += block.shape[1]
        if cols != m:
            raise ValueError(f"the blocks hold {cols} columns, not {m}")


def save_snapshots(snapshots: SnapshotSet, path) -> None:
    write_snapshots(path, snapshots.mesh_size, snapshots.times,
                    snapshots.component, [snapshots.data])


def _read_header(f):
    io.read_frame(f, SNP_MAGIC)
    n, m = io.read_fields(f, "II")
    label = io.read_label(f)
    return n, label, io.read_array(f, (m,), "<f8")


def snapshot_header(path) -> tuple:
    """(N, times) of an SNP1 file, read without its field."""
    with open(path, "rb") as f, io.decoding(path):
        n, _, times = _read_header(f)
        return n, times


class SnapshotFile:
    """An SNP1 file open at its field (open_snapshots), whose columns
    ``read`` takes in order, a block at a time."""

    def __init__(self, f, path, n: int, times: np.ndarray, component: str):
        self._f = f
        self._col = 0
        self.path = path
        self.n = n
        self.times = times
        self.component = component

    @property
    def shape(self) -> tuple:
        return self.n, self.times.size

    def read(self, out: np.ndarray, check: bool = True) -> np.ndarray:
        """Fill out, a column-major (n, w) "<f8" array, with the next w
        columns and return it; with ``check``, a non-finite value is
        refused, naming its row and its column in the field. Every error
        is a FormatError that names the file."""
        with io.decoding(self.path):
            io.read_f64_block(self._f, out)
            if check:
                check_finite(out, self._col)
        self._col += out.shape[1]
        return out

    def check_last(self, out: np.ndarray) -> None:
        """Read the columns the last ``read`` took into out again, and
        refuse a non-finite value among them as a checked ``read`` does."""
        self._f.seek(-8 * out.size, os.SEEK_CUR)
        self._col -= out.shape[1]
        self.read(out)


@contextmanager
def open_snapshots(path):
    """An SNP1 file open at its field, once its header holds a valid size
    and time grid and the file holds exactly that field: a truncated file
    or trailing bytes are a FormatError before any field is read."""
    with open(path, "rb") as f:
        with io.decoding(path):
            n, label, times = _read_header(f)
            _check_size(n, times.size)
            check_times(times)
            io.check_left(f, 8 * n * times.size, SNP_MAGIC)
        yield SnapshotFile(f, path, n, times, label)


def load_snapshots(path) -> SnapshotSet:
    with open_snapshots(path) as snp:
        data = snp.read(np.empty(snp.shape, "<f8", order="F"), check=False)
        with io.decoding(path):
            return SnapshotSet(data, snp.times, snp.component)
