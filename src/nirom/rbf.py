"""Radial-basis-function interpolation of the latent time derivative and the
forward-Euler marching that turns it into a latent forecast.

The derivative targets are first-order forward differences of the training
coefficients, so marching on the training grid reproduces the training
trajectory as an exact recurrence. Centers are the first M-1 snapshots; the
final one has no forward difference and only supplies a target for its
predecessor.
"""

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import containers as io
from .errors import NumericalError
from .pod import LatentTrajectory
from .snapshot import check_steps, check_times, uniform_step

RBF_MAGIC = b"RBF1"

#: RBF1 kernel id of exp(-c r), the only kernel
_KERNEL_ID = 0

#: relative residual allowed on the interpolation system after solving
FIT_RESIDUAL_RTOL = 1e-8

#: most centers a fit accepts: the interpolation system is a dense Mc x Mc
#: matrix, 512 MiB of float64 at this count, and the fit holds two of them
#: at its peak
MAX_CENTERS = 8192


@dataclass(frozen=True)
class RbfModel:
    """Interpolant of the latent dynamics: component j of the field at z is
    sum_k coefficients[j, k] * exp(-shape_factor * ||z - centers[:, k]||)."""

    centers: np.ndarray  # (m, Mc)
    coefficients: np.ndarray  # (m, Mc)
    shape_factor: float

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=np.float64))
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=np.float64)
        )
        if not self.shape_factor > 0:
            raise ValueError("shape_factor must be positive")
        if self.centers.shape != self.coefficients.shape:
            raise ValueError("centers and coefficients must have matching shapes")
        if not (np.all(np.isfinite(self.centers))
                and np.all(np.isfinite(self.coefficients))):
            raise ValueError("centers and coefficients must be finite")

    @property
    def dim(self) -> int:
        return self.centers.shape[0]

    @property
    def n_centers(self) -> int:
        return self.centers.shape[1]


def build_derivatives(traj: LatentTrajectory) -> np.ndarray:
    """Forward-difference targets g^k = (z^{k+1} - z^k) / dt on a uniform
    time grid, one column per retained center: an (m, Mc) array."""
    if traj.n_steps < 2:
        raise ValueError("need at least two snapshots to difference")
    dt = uniform_step(
        traj.times, "derivative targets require uniformly spaced times"
    )
    return (traj.coeffs[:, 1:] - traj.coeffs[:, :-1]) / dt


def _distance_matrix(centers: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances of the columns, summing the squared
    component differences in component order into one Mc x Mc buffer."""
    mc = centers.shape[1]
    r = np.zeros((mc, mc))
    d = np.empty((mc, mc))
    for row in centers:
        np.subtract(row[:, None], row[None, :], out=d)
        np.multiply(d, d, out=d)
        r += d
    return np.sqrt(r, out=r)


@functools.cache
def _scipy_openblas():
    """The get and set thread-count functions of the OpenBLAS copy that
    scipy's wheels vendor (scipy.libs/libscipy_openblas-*.so), or None
    where scipy uses another BLAS. numpy's own copy is left alone."""
    import ctypes

    import scipy

    libs = Path(scipy.__file__).parents[1] / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas-*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            return (lib.scipy_openblas_get_num_threads,
                    lib.scipy_openblas_set_num_threads)
        except (OSError, AttributeError):
            pass
    return None


@contextmanager
def _scipy_blas_threads():
    """Run the block on one of scipy's OpenBLAS threads and restore the
    library's count after; where that library is not found, do nothing.

    A worker woken for a threaded call busy-waits for about 0.12 s of CPU
    after it, beside numpy's threads. Up to 1000 centers a second thread
    saves no time (2-core x86-64); larger systems would factor faster on
    more, but no workload fits one."""
    found = _scipy_openblas()
    if found is None:
        yield
        return
    get, set_threads = found
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def fit(traj: LatentTrajectory, c: float) -> RbfModel:
    """Solve the symmetric interpolation system A alpha^j = g^j per latent
    component. A failed or inaccurate Cholesky factorization is retried once
    with a small diagonal shift before giving up. The factorization, the
    solve and the residual run on one thread of scipy's BLAS."""
    if c <= 0:
        raise ValueError(f"shape factor must be positive, got {c}")
    if traj.n_steps - 1 > MAX_CENTERS:
        raise ValueError(
            f"{traj.n_steps - 1} RBF centers (one per snapshot but the last) "
            f"exceed the limit of {MAX_CENTERS}; fit on fewer snapshots, "
            "e.g. with a coarser 'input.dt'"
        )
    targets = build_derivatives(traj)
    centers = traj.coeffs[:, :-1].copy()
    mc = centers.shape[1]

    # at its peak the fit holds two Mc x Mc matrices: the system matrix,
    # built in the distance matrix's buffer, and the copy factored in place
    r = _distance_matrix(centers)
    # the diagonal holds Mc zeros; any other zero is a repeated center
    if np.count_nonzero(r == 0.0) > mc:
        n, k = np.argwhere((r == 0.0) & ~np.eye(mc, dtype=bool))[0]
        raise NumericalError(
            f"duplicate centers at indices {min(n, k)} and {max(n, k)}")

    # a distance whose product with c overflows gives an exact zero weight
    with np.errstate(over="ignore"):
        a = np.multiply(-c, r, out=r)
    np.exp(a, out=a)
    g = targets.T  # (Mc, m), one rhs per latent component
    gnorm = np.linalg.norm(g, axis=0)

    # imported here, its only use, to keep scipy off every other command's
    # start-up
    import scipy.linalg
    from scipy.linalg.blas import dgemm

    shifted = np.empty((mc, mc))
    shift = 0.0
    with _scipy_blas_threads():
        for attempt in range(2):
            np.copyto(shifted, a)
            shifted[np.diag_indices(mc)] += shift
            # the matrix is symmetric, so its transpose is the same matrix in
            # column-major order, which LAPACK and BLAS read where it lies
            try:
                factor = scipy.linalg.cho_factor(shifted.T, lower=True,
                                                 overwrite_a=True)
                alpha = scipy.linalg.cho_solve(factor, g)
            except scipy.linalg.LinAlgError:
                alpha = None
            if alpha is not None:
                # A alpha - g on the solve's BLAS: numpy's would wake its
                # own worker threads for this small product
                resid = np.linalg.norm(dgemm(1.0, a.T, alpha, -1.0, g), axis=0)
                if np.all(resid <= FIT_RESIDUAL_RTOL * np.maximum(gnorm, 1e-300)):
                    return RbfModel(centers, alpha.T.copy(), c)
            # trace(A) = Mc since the kernel has unit diagonal
            shift = 1e-10 * np.trace(a) / mc
    raise NumericalError(
        "interpolation system could not be solved to tolerance, even with a "
        f"diagonal shift of {shift:g}"
    )


def forecast(model: RbfModel, z0: np.ndarray, times: np.ndarray) -> LatentTrajectory:
    """March z^{n+1} = z^n + dt_n * F(z^n) across the given time stamps."""
    times = check_times(times)
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (model.dim,):
        raise ValueError(f"initial state must have shape ({model.dim},)")
    # a loaded model holds column-major arrays; the field's sums run over
    # row-major copies
    centers = np.ascontiguousarray(model.centers)
    coeffs = np.ascontiguousarray(model.coefficients)
    neg_c = -float(model.shape_factor)
    out = np.empty((model.dim, times.size))
    out[:, 0] = z0
    # each step evaluates F(z) = coeffs exp(-c |centers - z|) as the
    # subtract, square, column sum, sqrt, scale, exp and GEMV below, into
    # buffers, and writes the state update into the next column of out;
    # outputs are passed positionally, which numpy parses faster than out=,
    # and the GEMV is the ndarray method, which skips np.dot's Python-level
    # dispatch (see node.kernels)
    d = np.empty_like(centers)
    w = np.empty(model.n_centers)
    f = np.empty(model.dim)
    cols = out.T
    # a far state's squared distance overflows to an exact zero weight, and
    # a blown-up state overflows quietly; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for dt, z, z_next in zip(np.diff(times).tolist(), cols[:-1, :, None],
                                 cols[1:]):
            np.subtract(centers, z, d)
            np.multiply(d, d, d)
            np.add.reduce(d, 0, None, w)
            np.sqrt(w, w)
            np.multiply(neg_c, w, w)
            np.exp(w, w)
            coeffs.dot(w, f)
            np.multiply(dt, f, f)
            np.add(z[:, 0], f, z_next)
    check_steps(out, times, "RBF forecast became non-finite")
    return LatentTrajectory(out, times)


# ---------------------------------------------------------------------------
# RBF1 container: magic, u32 version=1, "IIdH" m, Mc, shape factor, kernel
# id, f64 centers (m x Mc), coefficients (m x Mc), column-major.
# ---------------------------------------------------------------------------


def save_model(model: RbfModel, path) -> None:
    with io.writing(path, RBF_MAGIC) as f:
        io.write_fields(f, "IIdH", model.dim, model.n_centers,
                        model.shape_factor, _KERNEL_ID)
        io.write_array(f, model.centers, "<f8")
        io.write_array(f, model.coefficients, "<f8")


def load_model(path) -> RbfModel:
    with io.reading(path, RBF_MAGIC) as f:
        m, mc, c, kid = io.read_fields(f, "IIdH")
        if kid != _KERNEL_ID:
            raise io.FormatError(f"unknown kernel id {kid}")
        centers = io.read_array(f, (m, mc), "<f8")
        coeffs = io.read_array(f, (m, mc), "<f8")
        return RbfModel(centers, coeffs, c)
