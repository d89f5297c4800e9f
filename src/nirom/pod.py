"""Truncated proper orthogonal decomposition of centered snapshot matrices.

The thin SVD is computed through the Gram matrix of the smaller dimension
(method of snapshots), which is the cheap route when the number of snapshots
is far below the number of spatial DOFs. The recovered left vectors are
polished with a QR factorization plus a small dense SVD so that both factor
matrices are orthonormal to machine precision even when the spectrum spans
many orders of magnitude.

The Gram eigenvalues carry eps * sigma[0]**2 of roundoff, so a rank-deficient
field leaves columns at about sqrt(eps) * sigma[0] above the Gram cut. Lifted
as s @ v they shrink to the rounding of that product, and the lift drops such
a trailing block (``TAIL_RTOL``) before the polish instead of factoring it:
on a rank-2 wave of 20000 x 250 the QR takes 2 columns instead of 119.
"""

from dataclasses import dataclass

import numpy as np

from . import containers as io
from .errors import NumericalError, ValidationError
from .snapshot import CenteredSet, check_times, lifted_field

POD_MAGIC = b"POD1"

#: singular values below this fraction of the largest are treated as zero
RANK_RTOL = 1e-12

#: Forming one column of s @ v commits about eps * sigma[0] of rounding, so a
#: column of that size is what s @ v gives for a v that s annihilates: the
#: Gram cut keeps such columns, but they carry no signal.
#: The lift drops the trailing K - j of its K columns when their Frobenius
#: norm is at most sqrt(K - j) * TAIL_RTOL * sigma[0], with a small factor
#: (4) over eps for the GEMM's accumulation. By Weyl's inequality, dropping a
#: block of norm tau moves each singular value by at most tau, and each
#: vector by about tau over its gap, so the full lift cannot tell the block
#: from zero. For K below 1e6 columns tau stays under RANK_RTOL * sigma[0],
#: so the polish's keep rule would have dropped the same columns.
TAIL_RTOL = 4 * np.finfo(np.float64).eps

#: Entries of a left vector that are equal in exact arithmetic come out of
#: the Gram route apart by the vector's rounding: about eps * sigma[0] / gap
#: for a mode whose singular value stands gap from the others (Wedin's
#: bound), against a largest entry of at least 1 / sqrt(N) in a unit vector.
#: The sign rule counts entries within SIGN_RTOL of the largest as tied, so
#: an exact tie stays one while sqrt(N) * sigma[0] / gap < SIGN_RTOL / eps,
#: about 4.5e7: on a million-point mesh, a gap of 1/45000 of sigma[0]. Two
#: entries that differ by less than SIGN_RTOL are only a convention apart,
#: so either sign is right for them, and a wider tolerance only moves the
#: rule's boundary further from the exact ties that symmetric meshes give.
SIGN_RTOL = 1e-8


@dataclass(frozen=True)
class ThinSvd:
    """Rank-revealing thin SVD: ``input = left @ diag(singular) @ right.T``."""

    left: np.ndarray  # (N, R)
    singular: np.ndarray  # (R,), nonincreasing, positive
    right: np.ndarray  # (M, R)

    def __post_init__(self):
        s = np.asarray(self.singular, dtype=np.float64)
        object.__setattr__(self, "singular", s)
        object.__setattr__(self, "left", np.asarray(self.left, dtype=np.float64))
        object.__setattr__(self, "right", np.asarray(self.right, dtype=np.float64))
        if np.any(np.diff(s) > 0):
            raise ValueError("singular values must be nonincreasing")
        if s.size and s[-1] <= 0:
            raise ValueError("singular values must be positive")
        if self.left.shape[1] != s.size or self.right.shape[1] != s.size:
            raise ValueError("factor widths do not match the singular values")

    @property
    def rank(self) -> int:
        return self.singular.size


@dataclass(frozen=True)
class PodBasis:
    """Truncated POD basis plus the temporal mean it was centered against."""

    modes: np.ndarray  # (N, m), orthonormal columns
    singular: np.ndarray  # (m,)
    mean: np.ndarray  # (N,)
    tolerance_used: float | None = None
    component: str = "u"

    @property
    def m(self) -> int:
        return self.modes.shape[1]

    @property
    def mesh_size(self) -> int:
        return self.modes.shape[0]


@dataclass(frozen=True)
class LatentTrajectory:
    """Time-indexed modal coefficients; one column per time instant."""

    coeffs: np.ndarray  # (m, M)
    times: np.ndarray  # (M,)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "times", times)
        if coeffs.ndim != 2:
            raise ValidationError("latent coefficients must be a 2-D matrix")
        if times.shape != (coeffs.shape[1],):
            raise ValidationError("times length does not match coefficient columns")
        check_times(times)
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("latent coefficients contain non-finite values")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_steps(self) -> int:
        return self.coeffs.shape[1]


def _lift(s: np.ndarray, sigma: np.ndarray, v: np.ndarray):
    """SVD triplets of s lifted from its Gram eigenpairs (sigma, v), less
    those the polish puts at or below ``RANK_RTOL``."""
    sv = s @ v
    # tail[j] = ||sv[:, j:]||_F^2 over its K - j columns, down to the empty
    # block at j = K; the polish takes the columns before the first
    # trailing block of rounding
    sq = np.einsum("ij,ij->j", sv, sv)
    tail = np.append(np.cumsum(sq[::-1])[::-1], 0.0)
    width = np.arange(sq.size, -1, -1)
    j = int(np.argmax(tail <= width * (TAIL_RTOL * sigma[0]) ** 2))
    # Recovered left vectors lose orthogonality roughly as sigma[0]/sigma[i];
    # polish with QR and an exact small SVD of the triangular residue. The
    # division is in place on a view: no second N x K buffer beside sv.
    u0 = sv[:, :j]
    u0 /= sigma[:j]
    q, r = np.linalg.qr(u0)
    # sv goes before q @ p is formed; the polished values come out sorted,
    # so the kept columns are a prefix, sliced without a copy
    del sv, u0
    p, d, wt = np.linalg.svd(r * sigma[:j])
    left = q @ p
    right = v[:, :j] @ wt.T
    n_keep = int(np.count_nonzero(d > RANK_RTOL * d[0]))
    return left[:, :n_keep], d[:n_keep], right[:, :n_keep]


def _gram_svd(s: np.ndarray, count: int | None = None):
    """Leading ``count`` triplets (all for None) of the thin SVD of s
    (n x m, m <= n) via eigendecomposition of s.T @ s."""
    try:
        w, v = np.linalg.eigh(s.T @ s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigendecomposition failed: {exc}") from exc
    w = np.maximum(w[::-1], 0.0)
    v = v[:, ::-1]
    sigma = np.sqrt(w)
    if sigma.size == 0 or sigma[0] == 0.0:
        n, m = s.shape
        return np.zeros((n, 0)), np.zeros(0), np.zeros((m, 0))
    keep = sigma > RANK_RTOL * sigma[0]
    sigma, v = sigma[keep], v[:, keep]

    if count is not None and count < sigma.size:
        # The Gram eigenvectors carry about eps * sigma[0]**2 of roundoff,
        # so the leading count of them span the right subspace only while
        # sigma[count - 1] stands well above it. The short lift is taken
        # when it keeps every column and each triplet satisfies
        # s.T @ u = d * v to RANK_RTOL * d; otherwise every kept column is
        # lifted, as for the whole spectrum.
        left, d, right = _lift(s, sigma[:count], v[:, :count])
        residual = np.linalg.norm(s.T @ left - right * d, axis=0)
        if d.size == count and np.all(residual <= RANK_RTOL * d):
            return left, d, right
    left, d, right = _lift(s, sigma, v)
    return left[:, :count], d[:count], right[:, :count]


def _signed(left: np.ndarray, sigma: np.ndarray, right: np.ndarray) -> ThinSvd:
    """Fix the sign ambiguity: of the entries of each left vector whose
    magnitude is within ``SIGN_RTOL`` of its largest, the one at the highest
    index is made nonnegative.

    Sinusoidal modes, such as a traveling wave's on a periodic grid, tie in
    magnitude at rows i and i + N/2 up to roundoff, so a rule that took the
    largest entry alone would let roundoff (the field's memory layout, a
    reordered sum) pick the sign."""
    for j in range(sigma.size):
        mag = np.abs(left[::-1, j])
        i = left.shape[0] - 1 - int(np.argmax(mag >= (1.0 - SIGN_RTOL) * mag.max()))
        if left[i, j] < 0:
            left[:, j] = -left[:, j]
            right[:, j] = -right[:, j]
    return ThinSvd(left, sigma, right)


def thin_svd_matrix(s: np.ndarray, count: int | None = None) -> ThinSvd:
    """Deterministic thin SVD of an arbitrary real matrix: its leading
    ``count`` triplets, or all of its numerical rank for None."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n, m = s.shape
    if m <= n:
        left, sigma, right = _gram_svd(s, count)
    else:
        right, sigma, left = _gram_svd(s.T, count)
    return _signed(left, sigma, right)


def thin_svd(centered: CenteredSet) -> ThinSvd:
    return thin_svd_matrix(centered.deviations)


def residual_energies(singular: np.ndarray) -> np.ndarray:
    """Entry i: fraction of squared singular values discarded when keeping
    the first i+1 modes. The final entry is exactly zero."""
    sq = singular**2
    tail = np.concatenate([np.cumsum(sq[::-1])[::-1][1:], [0.0]])
    return tail / sq.sum()


def energy_spectrum(svd: ThinSvd) -> np.ndarray:
    """Cumulative energy fractions; the final entry equals 1."""
    sq = svd.singular**2
    cum = np.cumsum(sq)
    return cum / cum[-1]


def truncate(
    svd: ThinSvd,
    mean: np.ndarray,
    rank: int | None = None,
    tol: float | None = None,
    component: str = "u",
) -> PodBasis:
    """Keep the first ``rank`` modes, or the smallest count whose residual
    energy fraction is at most ``tol``."""
    if (rank is None) == (tol is None):
        raise ValueError("specify exactly one of rank or tol")
    if svd.rank == 0:
        raise ValueError("cannot truncate a rank-zero decomposition")
    if rank is not None:
        if not 1 <= rank <= svd.rank:
            raise ValueError(
                f"rank must be in [1, {svd.rank}], got {rank}"
            )
        m = rank
    else:
        if not 0.0 < tol < 1.0:
            raise ValueError(f"energy tolerance must be in (0, 1), got {tol}")
        m = int(np.argmax(residual_energies(svd.singular) <= tol)) + 1
    return PodBasis(
        svd.left[:, :m].copy(),
        svd.singular[:m].copy(),
        np.asarray(mean, dtype=np.float64),
        tolerance_used=tol,
        component=component,
    )


def project(basis: PodBasis, centered: CenteredSet) -> LatentTrajectory:
    """Modal coefficients of the deviations: ``modes.T @ deviations``."""
    if basis.mesh_size != centered.mesh_size:
        raise ValueError(
            f"basis has {basis.mesh_size} DOFs, data has {centered.mesh_size}"
        )
    return LatentTrajectory(basis.modes.T @ centered.deviations, centered.times)


def reconstruct(basis: PodBasis, traj: LatentTrajectory, path=None):
    """Lift latent coefficients back to the full space and re-add the mean:
    the field as a SnapshotSet, or with a path written there as SNP1 one
    column block at a time (snapshot.lifted_field)."""
    if traj.dim != basis.m:
        raise ValueError(
            f"trajectory has {traj.dim} coefficients, basis rank is {basis.m}"
        )
    coeffs, modes_t, mean = traj.coeffs, basis.modes.T, basis.mean[:, None]

    def lift(cols, out):
        # the transposed product is the block in SNP1's column-major layout
        np.matmul(coeffs[:, cols].T, modes_t, out.T)
        out += mean

    return lifted_field(lift, basis.mesh_size, traj.times, basis.component,
                        path)


# ---------------------------------------------------------------------------
# POD1 container: magic, u32 version=1, u32 N, u32 m, u16 label, f64
# tolerance (NaN when truncated by rank), mean (N), singular values (m),
# modes (N x m column-major).
# ---------------------------------------------------------------------------


def save_basis(basis: PodBasis, path) -> None:
    with io.writing(path, POD_MAGIC) as f:
        io.write_u32(f, basis.mesh_size)
        io.write_u32(f, basis.m)
        io.write_label(f, basis.component)
        io.write_f64(f, np.nan if basis.tolerance_used is None else basis.tolerance_used)
        io.write_f64_vector(f, basis.mean)
        io.write_f64_vector(f, basis.singular)
        io.write_f64_matrix(f, basis.modes)


def load_basis(path) -> PodBasis:
    with io.reading(path, POD_MAGIC) as f:
        n = io.read_u32(f)
        m = io.read_u32(f)
        label = io.read_label(f)
        tol = io.read_f64(f)
        mean = io.read_f64_vector(f, n)
        singular = io.read_f64_vector(f, m)
        modes = io.read_f64_matrix(f, n, m)
        return PodBasis(
            modes, singular, mean,
            tolerance_used=None if np.isnan(tol) else tol,
            component=label,
        )
