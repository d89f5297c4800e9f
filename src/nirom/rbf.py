"""Radial-basis-function interpolation of the latent time derivative and the
forward-Euler marching that turns it into a latent forecast.

The derivative targets are first-order forward differences of the training
coefficients, so marching on the training grid reproduces the training
trajectory as an exact recurrence. Centers are the first M-1 snapshots; the
final one has no forward difference and only supplies a target for its
predecessor.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import containers as io
from .errors import FitError, NumericalError
from .pod import LatentTrajectory
from .snapshot import check_times, uniform_step

RBF_MAGIC = b"RBF1"

KERNEL_IDS = {"matern_c0": 0}
KERNEL_NAMES = {v: k for k, v in KERNEL_IDS.items()}

#: relative residual allowed on the interpolation system after solving
FIT_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class RbfModel:
    """Interpolant of the latent dynamics: component j of the field at z is
    sum_k coefficients[j, k] * exp(-shape_factor * ||z - centers[:, k]||)."""

    centers: np.ndarray  # (m, Mc)
    coefficients: np.ndarray  # (m, Mc)
    shape_factor: float
    kernel: str = "matern_c0"

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=np.float64))
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=np.float64)
        )
        if not self.shape_factor > 0:
            raise ValueError("shape_factor must be positive")
        if self.kernel not in KERNEL_IDS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.centers.shape != self.coefficients.shape:
            raise ValueError("centers and coefficients must have matching shapes")

    @property
    def dim(self) -> int:
        return self.centers.shape[0]

    @property
    def n_centers(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class DerivativeTable:
    """Forward-difference targets g^k = (z^{k+1} - z^k) / dt, one column per
    retained center."""

    values: np.ndarray  # (m, Mc)
    times: np.ndarray  # (Mc,)


def build_derivatives(traj: LatentTrajectory) -> DerivativeTable:
    """Forward differences on a uniform time grid."""
    if traj.n_steps < 2:
        raise ValueError("need at least two snapshots to difference")
    dt = uniform_step(
        traj.times, "derivative targets require uniformly spaced times"
    )
    values = (traj.coeffs[:, 1:] - traj.coeffs[:, :-1]) / dt
    return DerivativeTable(values, traj.times[:-1].copy())


def _distance_matrix(centers: np.ndarray) -> np.ndarray:
    d = centers[:, :, None] - centers[:, None, :]
    return np.sqrt(np.sum(d * d, axis=0))


def fit(traj: LatentTrajectory, c: float) -> RbfModel:
    """Solve the symmetric interpolation system A alpha^j = g^j per latent
    component. A failed or inaccurate Cholesky factorization is retried once
    with a small diagonal shift before giving up."""
    if c <= 0:
        raise ValueError(f"shape factor must be positive, got {c}")
    table = build_derivatives(traj)
    centers = traj.coeffs[:, :-1].copy()
    mc = centers.shape[1]

    r = _distance_matrix(centers)
    off = ~np.eye(mc, dtype=bool)
    if np.any(r[off] == 0.0):
        n, k = np.argwhere((r == 0.0) & off)[0]
        raise FitError(f"duplicate centers at indices {min(n, k)} and {max(n, k)}")

    a = np.exp(-c * r)
    g = table.values.T  # (Mc, m), one rhs per latent component
    gnorm = np.linalg.norm(g, axis=0)

    shift = 0.0
    for attempt in range(2):
        try:
            factor = scipy.linalg.cho_factor(a + shift * np.eye(mc), lower=True)
            alpha = scipy.linalg.cho_solve(factor, g)
        except scipy.linalg.LinAlgError:
            alpha = None
        if alpha is not None:
            resid = np.linalg.norm(a @ alpha - g, axis=0)
            if np.all(resid <= FIT_RESIDUAL_RTOL * np.maximum(gnorm, 1e-300)):
                return RbfModel(centers, alpha.T.copy(), c)
        # trace(A) = Mc since the kernel has unit diagonal
        shift = 1e-10 * np.trace(a) / mc
    raise NumericalError(
        "interpolation system could not be solved to tolerance, even with a "
        f"diagonal shift of {shift:g}"
    )


def _field(centers, coeffs, c, z):
    """sum_k coeffs[:, k] * exp(-c * ||z - centers[:, k]||)."""
    d = centers - z.reshape(z.shape[0], 1)
    w = np.exp(-c * np.sqrt(np.sum(d * d, axis=0)))
    return np.dot(coeffs, w)


def eval_dynamics(model: RbfModel, z: np.ndarray) -> np.ndarray:
    """Interpolated latent time derivative at state z."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.dim,):
        raise ValueError(f"state must have shape ({model.dim},), got {z.shape}")
    return _field(model.centers, model.coefficients, float(model.shape_factor), z)


def _rollout(centers, coeffs, c, z0, times):
    out = np.empty((centers.shape[0], times.shape[0]))
    out[:, 0] = z0
    z = z0.copy()
    for k in range(times.shape[0] - 1):
        z = z + (times[k + 1] - times[k]) * _field(centers, coeffs, c, z)
        out[:, k + 1] = z
    return out


def forecast(model: RbfModel, z0: np.ndarray, times: np.ndarray) -> LatentTrajectory:
    """March z^{n+1} = z^n + dt_n * F(z^n) across the given time stamps."""
    times = check_times(times)
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (model.dim,):
        raise ValueError(f"initial state must have shape ({model.dim},)")
    coeffs = _rollout(
        np.ascontiguousarray(model.centers),
        np.ascontiguousarray(model.coefficients),
        float(model.shape_factor),
        z0,
        times,
    )
    return LatentTrajectory(coeffs, times)


# ---------------------------------------------------------------------------
# RBF1 container: magic, u32 version=1, u32 m, u32 Mc, f64 shape factor,
# u16 kernel id, centers (m x Mc), coefficients (m x Mc), column-major f64.
# ---------------------------------------------------------------------------


def save_model(model: RbfModel, path) -> None:
    with io.writing(path, RBF_MAGIC) as f:
        io.write_u32(f, model.dim)
        io.write_u32(f, model.n_centers)
        io.write_f64(f, model.shape_factor)
        io.write_u16(f, KERNEL_IDS[model.kernel])
        io.write_f64_matrix(f, model.centers)
        io.write_f64_matrix(f, model.coefficients)


def load_model(path) -> RbfModel:
    with io.reading(path, RBF_MAGIC) as f:
        m = io.read_u32(f)
        mc = io.read_u32(f)
        c = io.read_f64(f)
        kid = io.read_u16(f)
        if kid not in KERNEL_NAMES:
            raise io.FormatError(f"unknown kernel id {kid}")
        centers = io.read_f64_matrix(f, m, mc)
        coeffs = io.read_f64_matrix(f, m, mc)
        return RbfModel(centers, coeffs, c, KERNEL_NAMES[kid])
