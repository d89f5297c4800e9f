"""Full-order snapshot matrices: container type, file I/O, centering, the
uniform-grid check, and the synthetic generators that stand in for
high-fidelity solver output.

A snapshot matrix stores one spatial degree of freedom per row and one time
instant per column. The binary ``SNP1`` container round-trips bit-exactly;
the CSV form is for spreadsheet inspection and round-trips to the last ulp
via 17-significant-digit decimals.
"""

from dataclasses import dataclass, field

import numpy as np

from . import containers as io
from .errors import FormatError, ValidationError

SNP_MAGIC = b"SNP1"

SYNTHETIC_KINDS = ("traveling_wave", "linear_system", "harmonic_latent")


def _first_nonfinite(a: np.ndarray):
    """(row, col) of the first non-finite entry, or None."""
    bad = ~np.isfinite(a)
    if not bad.any():
        return None
    i, k = np.unravel_index(np.argmax(bad), a.shape)
    return int(i), int(k)


def check_times(times: np.ndarray) -> None:
    if times.ndim != 1:
        raise ValidationError("times must be a 1-D vector")
    if not np.all(np.isfinite(times)):
        raise ValidationError("times contain non-finite values")
    if np.any(np.diff(times) <= 0):
        k = int(np.argmax(np.diff(times) <= 0))
        raise ValidationError(
            f"times must be strictly increasing; violation between "
            f"indices {k} and {k + 1} ({times[k]!r} -> {times[k + 1]!r})"
        )


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
        pos = _first_nonfinite(data)
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


def time_grid(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """Uniform grid t_start + k*dt covering [t_start, t_end] (inclusive up
    to a 1e-9*dt slack on the endpoint)."""
    n = int(np.floor((t_end - t_start) / dt + 1e-9)) + 1
    return t_start + dt * np.arange(n)


def uniform_step(times: np.ndarray, message: str) -> float:
    """Spacing of a uniform time grid (steps equal to 1e-9 relative);
    raises ValueError(message) for any other grid."""
    dts = np.diff(times)
    if np.any(np.abs(dts - dts[0]) > 1e-9 * abs(dts[0])):
        raise ValueError(message)
    return float(dts[0])


def center(snapshots: SnapshotSet) -> CenteredSet:
    """Remove the temporal mean from every snapshot column."""
    mean = snapshots.data.mean(axis=1)
    deviations = snapshots.data - mean[:, None]
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
    times = time_grid(spec.t_start, spec.t_end, spec.dt)
    if len(times) < 2:
        raise ValueError("time range too short for the given step")
    n = spec.grid_points

    if spec.kind == "traveling_wave":
        x = 2.0 * np.pi * np.arange(n) / n
        data = np.sin(x[:, None] - spec.wave_speed * times[None, :])
    elif spec.kind == "linear_system":
        rng = np.random.default_rng(spec.seed)
        a = rng.standard_normal((n, n))
        a /= np.max(np.abs(np.linalg.eigvals(a)))
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        data = np.empty((n, len(times)))
        data[:, 0] = v
        for k in range(1, len(times)):
            data[:, k] = a @ data[:, k - 1]
    else:  # harmonic_latent
        latent = np.vstack(
            [np.cos(spec.omega * times), np.sin(spec.omega * times)]
        )
        data = orthonormal_lift(n, 2, spec.seed) @ latent

    return SnapshotSet(data, times, spec.component)


# ---------------------------------------------------------------------------
# File I/O
#
# SNP1 layout: magic "SNP1", u32 version=1, u32 N, u32 M, u16 label length +
# UTF-8 component label, M f64 time stamps, N*M f64 values column-major,
# all little-endian.
# ---------------------------------------------------------------------------


def save_snapshots(snapshots: SnapshotSet, path, format: str = "binary") -> None:
    if format == "binary":
        _save_binary(snapshots, path)
    elif format == "csv":
        _save_csv(snapshots, path)
    else:
        raise ValueError(f"unknown snapshot format {format!r}")


def load_snapshots(path, format: str = "binary") -> SnapshotSet:
    if format == "binary":
        return _load_binary(path)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown snapshot format {format!r}")


def _save_binary(s: SnapshotSet, path) -> None:
    n, m = s.data.shape
    with open(path, "wb") as f:
        io.write_header(f, SNP_MAGIC)
        io.write_u32(f, n)
        io.write_u32(f, m)
        io.write_label(f, s.component)
        io.write_f64_vector(f, s.times)
        io.write_f64_matrix(f, s.data)


def _load_binary(path) -> SnapshotSet:
    with open(path, "rb") as f:
        io.read_header(f, SNP_MAGIC)
        n = io.read_u32(f)
        m = io.read_u32(f)
        label = io.read_label(f)
        times = io.read_f64_vector(f, m)
        data = io.read_f64_matrix(f, n, m)
        io.expect_eof(f, "SNP1")
    return SnapshotSet(data, times, label)


def _save_csv(s: SnapshotSet, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("t," + ",".join(f"{t:.17g}" for t in s.times) + "\n")
        for row in s.data:
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _load_csv(path) -> SnapshotSet:
    with open(path, "r", newline="") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        raise FormatError("empty CSV file")
    head = lines[0].split(",")
    if head[0].strip() != "t":
        raise FormatError(
            f"malformed CSV header: first cell must be 't', got {head[0]!r}"
        )
    try:
        times = np.array([float(v) for v in head[1:]])
    except ValueError as exc:
        raise FormatError(f"unparseable time stamp in header: {exc}") from exc
    rows = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(times):
            raise FormatError(
                f"row {i} has {len(cells)} cells, expected {len(times)}"
            )
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise FormatError(f"unparseable value in row {i}: {exc}") from exc
    return SnapshotSet(np.array(rows), times)
