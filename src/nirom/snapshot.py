"""Full-order snapshot matrices: container type, SNP1 file I/O, centering,
the time-grid checks, and the synthetic generators that stand in for
high-fidelity solver output.

A snapshot matrix stores one spatial degree of freedom per row and one time
instant per column. The binary ``SNP1`` container round-trips bit-exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import containers as io
from .errors import NumericalError, ValidationError

SNP_MAGIC = b"SNP1"

SYNTHETIC_KINDS = ("traveling_wave", "linear_system", "harmonic_latent")


def first_nonfinite(a: np.ndarray):
    """(row, col) of the first non-finite entry, or None."""
    finite = np.isfinite(a)
    if finite.all():
        return None
    i, k = np.unravel_index(np.argmin(finite), a.shape)
    return int(i), int(k)


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
        if n < 1:
            raise ValidationError("need at least one spatial DOF")
        if m < 2:
            raise ValidationError("need at least two snapshots")
        if times.shape != (m,):
            raise ValidationError(
                f"times length {times.shape} does not match {m} columns"
            )
        check_times(times)
        pos = first_nonfinite(data)
        if pos is not None:
            raise ValidationError(
                f"non-finite value at row {pos[0]}, column {pos[1]}"
            )

    @property
    def mesh_size(self) -> int:
        return self.data.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]


def lifted_field(data, times: np.ndarray, component: str) -> SnapshotSet:
    """A full field lifted from finite model values, as a SnapshotSet. A
    non-finite entry there can only be an overflow: a NumericalError naming
    the first step and time it reaches. SnapshotSet's own check is the one
    scan of a finite field."""
    try:
        return SnapshotSet(data, times, component)
    except ValidationError:
        bad = first_nonfinite(np.asarray(data).T)
        if bad is None:
            raise
        k = bad[0]
        raise NumericalError(
            f"full field overflows at step {k} (t={times[k]:.6g})"
        ) from None


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


def save_snapshots(snapshots: SnapshotSet, path) -> None:
    n, m = snapshots.data.shape
    with io.writing(path, SNP_MAGIC) as f:
        io.write_u32(f, n)
        io.write_u32(f, m)
        io.write_label(f, snapshots.component)
        io.write_f64_vector(f, snapshots.times)
        io.write_f64_matrix(f, snapshots.data)


def _read_header(f):
    n = io.read_u32(f)
    m = io.read_u32(f)
    label = io.read_label(f)
    return n, label, io.read_f64_vector(f, m)


def snapshot_header(path) -> tuple:
    """(N, times) of an SNP1 file, read without its field."""
    with io.reading(path, SNP_MAGIC, whole=False) as f:
        n, _, times = _read_header(f)
        return n, times


def load_snapshots(path) -> SnapshotSet:
    with io.reading(path, SNP_MAGIC) as f:
        n, label, times = _read_header(f)
        data = io.read_f64_matrix(f, n, times.size)
        return SnapshotSet(data, times, label)
