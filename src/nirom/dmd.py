"""Exact dynamic mode decomposition: a best-fit linear one-step operator
identified through a POD projection of the snapshot pairs, with spectral
forecasting at arbitrary (also non-training) times.

The operator itself is never formed; eigenpairs of the r x r reduced matrix
are lifted to full-space modes. Raw snapshots are used directly, without
mean removal. Eigenvalues are per-step; the physical step is kept so the
spectrum can be reported in continuous time.
"""

from dataclasses import dataclass

import numpy as np

from . import containers as io
from .errors import NumericalError
from .pod import thin_svd_matrix
from .snapshot import SnapshotSet, check_times, lifted_field, uniform_step

DMD_MAGIC = b"DMD1"


@dataclass(frozen=True)
class DmdModel:
    """Spectral surrogate v(t) = Re(modes @ (eigenvalues^((t-t0)/dt) * amplitudes))."""

    modes: np.ndarray  # (N, r) complex
    eigenvalues: np.ndarray  # (r,) complex, per time step
    amplitudes: np.ndarray  # (r,) complex
    dt: float
    t0: float
    component: str = "u"

    def __post_init__(self):
        object.__setattr__(self, "modes", np.asarray(self.modes, dtype=np.complex128))
        object.__setattr__(
            self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.complex128)
        )
        object.__setattr__(
            self, "amplitudes", np.asarray(self.amplitudes, dtype=np.complex128)
        )
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not np.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        r = self.eigenvalues.size
        if self.modes.shape[1] != r or self.amplitudes.shape != (r,):
            raise ValueError("modes/eigenvalues/amplitudes sizes disagree")
        if not all(np.all(np.isfinite(a)) for a in
                   (self.modes, self.eigenvalues, self.amplitudes)):
            raise ValueError("modes, eigenvalues and amplitudes must be finite")

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @property
    def mesh_size(self) -> int:
        return self.modes.shape[0]


def dmd_fit(snapshots: SnapshotSet, r: int) -> DmdModel:
    """Fit on the shifted pair X (columns 0..M-2), X' (columns 1..M-1).

    The reduced operator U^T X' V / sigma is an r x r projection of the
    one-step map; its eigenvectors W lift to exact modes X' V / sigma W.
    """
    data, times = snapshots.data, snapshots.times
    dt = uniform_step(times, "fitting requires uniformly spaced snapshots")
    n, m = data.shape
    if not 1 <= r <= min(n, m - 1):
        raise ValueError(f"rank must be in [1, {min(n, m - 1)}], got {r}")

    x, xp = data[:, :-1], data[:, 1:]
    svd = thin_svd_matrix(x, r)
    if r > svd.rank:
        raise NumericalError(
            f"requested rank {r} exceeds the numerical rank {svd.rank} of the "
            f"snapshot matrix; choose r <= {svd.rank}"
        )
    u, sigma, v = svd.left, svd.singular, svd.right

    lift = (xp @ v) / sigma  # X' V Sigma^-1, reused for modes
    atilde = u.T @ lift
    try:
        lam, w = np.linalg.eig(atilde)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    phi = lift @ w
    # b fits the first snapshot. One step of iterative refinement, a second
    # solve for the residual, takes lstsq's own rounding out of b: lstsq
    # alone can leave ten times the refined t0 residual (2e-15 against
    # 2.6e-16 rms on a column-major 64-point wave)
    x0 = data[:, 0].astype(np.complex128)
    b, *_ = np.linalg.lstsq(phi, x0, rcond=None)
    db, *_ = np.linalg.lstsq(phi, x0 - phi @ b, rcond=None)
    b += db

    order = np.argsort(-np.abs(b), kind="stable")
    return DmdModel(
        phi[:, order],
        lam[order],
        b[order],
        dt=dt,
        t0=float(times[0]),
        component=snapshots.component,
    )


def _eig_powers(lam: np.ndarray, p: np.ndarray) -> np.ndarray:
    """lam[i] ** p[k] with principal-branch powers; zero eigenvalues only
    admit integer exponents."""
    powers = np.zeros((lam.size, p.size), dtype=np.complex128)
    nz = lam != 0
    if nz.any():
        powers[nz, :] = lam[nz, None] ** p[None, :]
    if (~nz).any():
        ip = np.rint(p)
        if np.any(np.abs(p - ip) > 1e-9):
            raise NumericalError(
                "zero eigenvalue cannot be raised to a non-integer power"
            )
        powers[~nz, :] = np.where(ip == 0, 1.0, 0.0)
    return powers


def dmd_forecast(model: DmdModel, times: np.ndarray, path=None):
    """Evaluate the spectral expansion at the requested times (real part):
    the field as a SnapshotSet, or with a path written there as SNP1 one
    column block at a time (snapshot.lifted_field)."""
    times = check_times(times)
    if times.size < 2:
        raise ValueError("need at least two forecast times")
    p = (times - model.t0) / model.dt
    if p[0] < -1e-9:
        raise ValueError("forecast times must not precede the fit start time")
    # Re(modes @ coefs) = [Re modes, -Im modes] @ [Re coefs; Im coefs]: one
    # real GEMM per block with no complex N x T product, taken transposed so
    # the block comes out in SNP1's column-major layout. A growing mode
    # overflows quietly; lifted_field reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        coefs = _eig_powers(model.eigenvalues, p) * model.amplitudes[:, None]
    stacked = np.concatenate([coefs.real, coefs.imag])
    lift_t = np.concatenate([model.modes.real, -model.modes.imag], axis=1).T

    def lift(cols, out):
        np.matmul(stacked[:, cols].T, lift_t, out.T)

    return lifted_field(lift, model.mesh_size, times, model.component, path)


# ---------------------------------------------------------------------------
# DMD1 container: magic, u32 version=1, u32 N, u32 r, f64 dt, f64 t0,
# u16 label, then complex modes (N x r), eigenvalues (r), amplitudes (r)
# as interleaved (re, im) f64 little-endian, column-major.
# ---------------------------------------------------------------------------


def save_model(model: DmdModel, path) -> None:
    with io.writing(path, DMD_MAGIC) as f:
        io.write_u32(f, model.mesh_size)
        io.write_u32(f, model.rank)
        io.write_f64(f, model.dt)
        io.write_f64(f, model.t0)
        io.write_label(f, model.component)
        io.write_c128_array(f, model.modes)
        io.write_c128_array(f, model.eigenvalues)
        io.write_c128_array(f, model.amplitudes)


def load_model(path) -> DmdModel:
    with io.reading(path, DMD_MAGIC) as f:
        n = io.read_u32(f)
        r = io.read_u32(f)
        dt = io.read_f64(f)
        t0 = io.read_f64(f)
        label = io.read_label(f)
        modes = io.read_c128_array(f, (n, r))
        lam = io.read_c128_array(f, (r,))
        amps = io.read_c128_array(f, (r,))
        return DmdModel(modes, lam, amps, dt=dt, t0=t0, component=label)
