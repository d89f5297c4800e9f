"""Full-order snapshot matrices: container type, SNP1 file I/O, centering,
the time-grid checks, and the synthetic generators that stand in for
high-fidelity solver output.

A snapshot matrix stores one spatial degree of freedom per row and one time
instant per column. The binary ``SNP1`` container round-trips bit-exactly.
A field too large to hold twice moves through it a column block at a time
(``column_blocks``): ``write_snapshots`` takes the blocks a lift makes
(``lifted_field``), and ``open_snapshots`` hands them back in order.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import containers as io
from .errors import NumericalError, ValidationError

SNP_MAGIC = b"SNP1"

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


def check_finite(data: np.ndarray, col0: int = 0) -> None:
    """Refuse a non-finite value, naming its row and its column, counted
    from ``col0`` for a block of a larger field."""
    pos = first_nonfinite(data)
    if pos is not None:
        raise ValidationError(
            f"non-finite value at row {pos[0]}, column {col0 + pos[1]}"
        )


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
            f"indices {k} and {k + 1} ({times[k]!r} -> {times[k + 1]!r})"
        )
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
                f"times length {times.shape} does not match {m} columns"
            )
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
        bad = first_nonfinite(block.T)
        if bad is not None:
            k = cols.start + bad[0]
            raise NumericalError(
                f"full field overflows at step {k} (t={times[k]:.6g})")
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
    return None


@dataclass(frozen=True)
class CenteredSet:
    """Mean-removed snapshots: ``deviations[:, k] = data[:, k] - mean``."""

    deviations: np.ndarray  # (N, M)
    mean: np.ndarray  # (N,)
    times: np.ndarray  # (M,)
    component: str = "u"

    def __post_init__(self):
        object.__setattr__(
            self, "deviations", np.asarray(self.deviations, dtype=np.float64)
        )
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))

    @property
    def mesh_size(self) -> int:
        return self.deviations.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic snapshot set.

    kinds:
      traveling_wave  sin(x - c t) on a uniform periodic grid over [0, 2*pi)
      linear_system   v_{k+1} = A v_k, A seeded and normalized to unit
                      spectral radius (one map application per time step)
      harmonic_latent [cos(w t), sin(w t)] lifted to N dims by a seeded
                      orthonormal map (identity when N == 2)
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

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(
                f"unknown synthetic kind {self.kind!r}; expected one of "
                f"{SYNTHETIC_KINDS}"
            )
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def times(self) -> np.ndarray:
        return time_grid(self.t_start, self.t_end, self.dt)

    @property
    def recipe(self) -> dict:
        """The kind, the component and the parameters the kind reads: all
        that tells two fields on one grid apart."""
        return {"kind": self.kind, "component": self.component,
                **{name: getattr(self, name)
                   for name in KIND_PARAMETERS[self.kind]}}


#: the most times a uniform grid may hold
MAX_GRID_TIMES = 1_000_000


def grid_size(t_start: float, t_end: float, dt: float) -> int:
    """Number of times on the uniform grid t_start + k*dt covering
    [t_start, t_end] (inclusive up to a 1e-9*dt slack on the endpoint).
    Raises ValueError beyond MAX_GRID_TIMES, or when the count is not
    finite (a span over dt that overflows)."""
    steps = (t_end - t_start) / dt + 1e-9
    if not steps < MAX_GRID_TIMES:
        raise ValueError(
            f"the grid would hold {steps + 1:.6g} times; at most "
            f"{MAX_GRID_TIMES} are allowed"
        )
    return math.floor(steps) + 1


def time_grid(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """Uniform grid t_start + k*dt of grid_size times."""
    return t_start + dt * np.arange(grid_size(t_start, t_end, dt))


def uniform_step(times: np.ndarray, message: str) -> float:
    """Spacing of a uniform time grid (steps equal to 1e-9 relative);
    raises ValueError(message) for any other grid."""
    dts = np.diff(times)
    if np.any(np.abs(dts - dts[0]) > 1e-9 * abs(dts[0])):
        raise ValueError(message)
    return float(dts[0])


def center(snapshots: SnapshotSet, in_place: bool = False) -> CenteredSet:
    """Remove the temporal mean from every snapshot column. With
    ``in_place`` the deviations overwrite ``snapshots.data``, which saves a
    field of memory and its copy; only a caller that owns the array and
    does not read the snapshots again may ask for it."""
    data = snapshots.data
    mean = data.mean(axis=1)
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


def generate_synthetic(spec: SyntheticSpec) -> SnapshotSet:
    """The spec's field, built column-major (SNP1's layout), so that
    save_snapshots writes it without a copy."""
    times = spec.times
    if len(times) < 2:
        raise ValueError("time range too short for the given step")
    n = spec.grid_points

    if spec.kind == "traveling_wave":
        x = 2.0 * np.pi * np.arange(n) / n
        # one time per row, so the transpose is column-major; the sine is
        # taken in place on its argument
        phase = x[None, :] - spec.wave_speed * times[:, None]
        data = np.sin(phase, out=phase).T
    elif spec.kind == "linear_system":
        rng = np.random.default_rng(spec.seed)
        a = rng.standard_normal((n, n))
        a /= np.max(np.abs(np.linalg.eigvals(a)))
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        data = np.empty((n, len(times)), order="F")
        data[:, 0] = v
        for k in range(1, len(times)):
            data[:, k] = a @ data[:, k - 1]
    else:  # harmonic_latent
        latent = np.vstack(
            [np.cos(spec.omega * times), np.sin(spec.omega * times)]
        )
        data = (latent.T @ orthonormal_lift(n, 2, spec.seed).T).T

    return SnapshotSet(data, times, spec.component)


# ---------------------------------------------------------------------------
# File I/O
#
# SNP1 layout: magic "SNP1", u32 version=1, u32 N, u32 M, u16 label length +
# UTF-8 component label, M f64 time stamps, N*M f64 values column-major,
# all little-endian.
# ---------------------------------------------------------------------------


def write_snapshots(path, n: int, times: np.ndarray, component: str,
                    blocks) -> None:
    """An SNP1 file of a field given as column-major (n, w) blocks of its
    columns, in order; save_snapshots is the one-block case."""
    m = times.size
    with io.writing(path, SNP_MAGIC) as f:
        io.write_u32(f, n)
        io.write_u32(f, m)
        io.write_label(f, component)
        io.write_f64_vector(f, times)
        cols = 0
        for block in blocks:
            io.write_f64_matrix(f, block)
            cols += block.shape[1]
        if cols != m:
            raise ValueError(f"the blocks hold {cols} columns, not {m}")


def save_snapshots(snapshots: SnapshotSet, path) -> None:
    write_snapshots(path, snapshots.mesh_size, snapshots.times,
                    snapshots.component, [snapshots.data])


def _read_header(f):
    io.read_frame(f, SNP_MAGIC)
    n = io.read_u32(f)
    m = io.read_u32(f)
    label = io.read_label(f)
    return n, label, io.read_f64_vector(f, m)


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
