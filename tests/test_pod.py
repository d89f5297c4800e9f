"""Thin SVD, truncation, projection/reconstruction, and the POD1 container.

The traveling-wave singular values are frozen from an oracle that assembled
the matrix directly from the sine identity and factored it with a dense SVD,
cross-checked against square roots of Gram-matrix eigenvalues. The lift is
checked against ``_gram_svd``, which lifts and polishes every column the
Gram cut keeps, including the rounding-level tail the lift drops.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nirom import dmd, pod
from nirom.dmd import dmd_fit
from nirom.errors import FormatError, NumericalError
from nirom.pod import (
    RANK_RTOL,
    SIGN_RTOL,
    LatentTrajectory,
    PodBasis,
    ThinSvd,
    _signed,
    energy_spectrum,
    load_basis,
    project,
    reconstruct,
    save_basis,
    thin_svd,
    thin_svd_matrix,
    truncate,
)
from nirom.snapshot import (
    CenteredSet,
    SnapshotSet,
    SyntheticSpec,
    center,
    generate_synthetic,
    matmul_like,
)
from reference import row_major_product

# frozen oracle values for the centered 64 x 100 traveling wave
WAVE_S1 = 41.075401634898164
WAVE_S2 = 37.349868403980402


def wave_centered() -> CenteredSet:
    spec = SyntheticSpec("traveling_wave", 64, 0.0, 9.9, 0.1)
    return center(generate_synthetic(spec))


def eye_svd(n: int, singular) -> ThinSvd:
    singular = np.asarray(singular, dtype=np.float64)
    r = singular.size
    return ThinSvd(np.eye(n)[:, :r], singular, np.eye(n)[:, :r])


def _gram_svd(s: np.ndarray):
    """Reference: thin SVD of s (n x m, m <= n) via eigendecomposition of
    s.T @ s, lifting and polishing every column the Gram cut keeps."""
    w, v = np.linalg.eigh(s.T @ s)
    w = np.maximum(w[::-1], 0.0)
    v = v[:, ::-1]
    sigma = np.sqrt(w)
    if sigma.size == 0 or sigma[0] == 0.0:
        n, m = s.shape
        return np.zeros((n, 0)), np.zeros(0), np.zeros((m, 0))
    keep = sigma > RANK_RTOL * sigma[0]
    sigma, v = sigma[keep], v[:, keep]
    u0 = (s @ v) / sigma
    q, r = np.linalg.qr(u0)
    p, d, wt = np.linalg.svd(r * sigma)
    left = q @ p
    right = v @ wt.T
    keep = d > RANK_RTOL * d[0]
    return left[:, keep], d[keep], right[:, keep]


def reference_svd(s: np.ndarray) -> ThinSvd:
    n, m = s.shape
    if m <= n:
        left, sigma, right = _gram_svd(s)
    else:
        right, sigma, left = _gram_svd(s.T)
    return _signed(left, sigma, right)


def _graded() -> np.ndarray:
    # columns scaled over 12 orders of magnitude stress the Gram route
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((30, 8)))
    return q @ np.diag(10.0 ** -np.arange(0, 12, 1.5)) @ rng.standard_normal((8, 15))


def _low_rank(n: int, m: int, rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))


def _wave() -> np.ndarray:
    # rank 2, with 117 columns of Gram roundoff above RANK_RTOL
    spec = SyntheticSpec("traveling_wave", 4000, 0.0, 2.4925, 0.01)
    return center(generate_synthetic(spec)).deviations


def _separated(d: np.ndarray) -> np.ndarray:
    """A value is well separated when its nearest neighbour is 1% away."""
    gaps = np.abs(np.diff(d)) / d[:-1]
    return np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 1e-2


COUNT_CASES = {
    "full-rank-tall": np.random.default_rng(10).standard_normal((40, 12)),
    "full-rank-wide": np.random.default_rng(11).standard_normal((12, 40)),
    "rank-deficient-tall": _low_rank(40, 12, 5, 12),
    "rank-deficient-wide": _low_rank(12, 40, 5, 13),
    # values down to 1e-11 of the largest, below the Gram's roundoff
    "graded-tall": _graded(),
    "graded-wide": _graded().T,
}


# ---------------------------------------------------------------------------
# thin_svd
# ---------------------------------------------------------------------------


def test_diagonal_matrix():
    out = thin_svd_matrix(np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(out.singular, [2.0])
    assert np.allclose(out.left, [[1.0], [0.0]], atol=1e-14)


def test_identity_matrix():
    out = thin_svd_matrix(np.eye(3))
    assert np.allclose(out.singular, [1.0, 1.0, 1.0], atol=1e-12)


def test_traveling_wave_singular_values():
    out = thin_svd(wave_centered())
    assert out.rank == 2
    assert out.singular[0] == pytest.approx(WAVE_S1, rel=1e-9)
    assert out.singular[1] == pytest.approx(WAVE_S2, rel=1e-9)


def test_traveling_wave_matches_gram_oracle():
    c = wave_centered()
    out = thin_svd(c)
    gram = np.sqrt(np.maximum(np.linalg.eigvalsh(c.deviations.T @ c.deviations)[::-1], 0.0))
    assert out.singular[0] == pytest.approx(gram[0], rel=1e-9)
    assert out.singular[1] == pytest.approx(gram[1], rel=1e-9)


def test_factors_orthonormal():
    rng = np.random.default_rng(0)
    out = thin_svd_matrix(rng.standard_normal((40, 12)))
    r = out.rank
    assert np.max(np.abs(out.left.T @ out.left - np.eye(r))) < 1e-10
    assert np.max(np.abs(out.right.T @ out.right - np.eye(r))) < 1e-10


def test_wide_matrix_orthonormal():
    rng = np.random.default_rng(1)
    out = thin_svd_matrix(rng.standard_normal((7, 30)))
    r = out.rank
    assert r == 7
    assert np.max(np.abs(out.left.T @ out.left - np.eye(r))) < 1e-10
    assert np.max(np.abs(out.right.T @ out.right - np.eye(r))) < 1e-10


def test_reassembly_matches_input():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((25, 10))
    out = thin_svd_matrix(s)
    err = np.linalg.norm(out.left @ np.diag(out.singular) @ out.right.T - s)
    assert err <= 1e-8 * out.singular[0]


def test_graded_spectrum_stays_orthonormal():
    s = _graded()
    out = thin_svd_matrix(s)
    r = out.rank
    assert np.max(np.abs(out.left.T @ out.left - np.eye(r))) < 1e-10
    err = np.linalg.norm(out.left @ np.diag(out.singular) @ out.right.T - s)
    assert err <= 1e-8 * out.singular[0]


def test_deterministic_bit_identical():
    rng = np.random.default_rng(4)
    s = rng.standard_normal((20, 9))
    a = thin_svd_matrix(s)
    b = thin_svd_matrix(s.copy())
    assert a.left.tobytes() == b.left.tobytes()
    assert a.singular.tobytes() == b.singular.tobytes()
    assert a.right.tobytes() == b.right.tobytes()


def test_sign_convention():
    out = thin_svd_matrix(np.random.default_rng(5).standard_normal((15, 6)))
    for j in range(out.rank):
        col = out.left[:, j]
        assert col[np.argmax(np.abs(col))] >= 0


def test_sign_rule_breaks_a_tie_at_the_highest_index():
    left = np.array([[-0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.5, -0.5]])
    right = np.eye(2)
    out = _signed(left.copy(), np.array([2.0, 1.0]), right.copy())
    assert np.array_equal(out.left, left * [1.0, -1.0])
    assert np.array_equal(out.right, right * [1.0, -1.0])


@pytest.mark.parametrize("excess, flips", [(0.5, False), (2.0, True)],
                         ids=["within", "beyond"])
def test_sign_rule_near_tie(excess, flips):
    # row 0 is the largest by excess * SIGN_RTOL: within the tolerance the
    # positive row 2 decides, beyond it the negative row 0 alone
    col = np.array([[-0.5 * (1.0 + excess * SIGN_RTOL)], [0.1], [0.5], [0.3]])
    out = _signed(col.copy(), np.array([1.0]), np.eye(1))
    assert np.array_equal(out.left, -col if flips else col)


@pytest.mark.parametrize("n, t_end, dt", [(64, 9.9, 0.1), (4000, 2.4925, 0.01)])
def test_wave_signs_do_not_depend_on_layout(n, t_end, dt):
    # the wave's modes tie at rows i and i + N/2, and the layout moves the
    # mean and the Gram matrix at roundoff: a rule that took the largest
    # entry alone negated both modes of the F-order copy of each wave
    snap = generate_synthetic(SyntheticSpec("traveling_wave", n, 0.0, t_end, dt))
    c_order, f_order = (
        thin_svd(center(SnapshotSet(np.asarray(snap.data, order=o), snap.times)))
        for o in "CF"
    )
    assert c_order.rank == f_order.rank == 2
    assert np.max(np.abs(c_order.left - f_order.left)) <= 1e-12
    assert np.max(np.abs(c_order.right - f_order.right)) <= 1e-12


def test_zero_matrix_has_rank_zero():
    out = thin_svd_matrix(np.zeros((4, 3)))
    assert out.rank == 0


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_leading_triplets_match_full_lift(case):
    s = COUNT_CASES[case]
    ref = reference_svd(s)
    d = ref.singular
    separated = _separated(d)
    for count in range(1, ref.rank + 3):
        out = thin_svd_matrix(s, count)
        k = min(count, ref.rank)
        assert out.rank == k, count
        assert np.all(np.abs(out.singular - d[:k]) <= 1e-12 * d[:k]), count
        for j in np.flatnonzero(separated[:k]):
            assert np.max(np.abs(out.left[:, j] - ref.left[:, j])) <= 1e-12
            assert np.max(np.abs(out.right[:, j] - ref.right[:, j])) <= 1e-12


WAVE_CASES = {"wave-tall": _wave(), "wave-wide": _wave().T}
FULL_LIFT_CASES = {**COUNT_CASES, **WAVE_CASES}
# the Gram cut keeps columns of s @ v at rounding level here, and the lift
# drops them before its polish; every other case is lifted whole
ROUNDING_TAIL = {"rank-deficient-tall", "rank-deficient-wide", *WAVE_CASES}


@pytest.mark.parametrize("case", sorted(FULL_LIFT_CASES))
def test_every_kept_column_is_the_full_lift(case):
    s = FULL_LIFT_CASES[case]
    ref, out = reference_svd(s), thin_svd_matrix(s)
    if case not in ROUNDING_TAIL:
        assert out.left.tobytes() == ref.left.tobytes()
        assert out.singular.tobytes() == ref.singular.tobytes()
        assert out.right.tobytes() == ref.right.tobytes()
        return
    d = ref.singular
    assert out.rank == ref.rank
    assert np.all(np.abs(out.singular - d) <= 1e-12 * d)
    if case in WAVE_CASES:
        # the wave's modes tie in magnitude at rows i and i + N/2, so
        # roundoff decides each sign: compare them sign-free
        eye = np.eye(ref.rank)
        assert np.max(np.abs(np.abs(out.left.T @ ref.left) - eye)) <= 1e-12
        assert np.max(np.abs(np.abs(out.right.T @ ref.right) - eye)) <= 1e-12
        return
    for j in np.flatnonzero(_separated(d)):
        assert np.max(np.abs(out.left[:, j] - ref.left[:, j])) <= 1e-12
        assert np.max(np.abs(out.right[:, j] - ref.right[:, j])) <= 1e-12


def test_numerical_rank_is_unchanged():
    # without a count every kept column is lifted, so spectrum.csv keeps
    # its rows
    assert thin_svd_matrix(_graded()).rank == 8
    assert thin_svd(wave_centered()).rank == 2


def test_rank_beyond_the_spectrum_rejected():
    c = wave_centered()
    with pytest.raises(ValueError, match=r"rank must be in \[1, 2\], got 3"):
        truncate(thin_svd_matrix(c.deviations, 3), c.mean, rank=3)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 12), m=st.integers(2, 12), seed=st.integers(0, 10**6))
def test_eckart_young(n, m, seed):
    s = np.random.default_rng(seed).standard_normal((n, m))
    out = thin_svd_matrix(s)
    sq = out.singular**2
    for k in range(1, out.rank + 1):
        approx = out.left[:, :k] @ np.diag(out.singular[:k]) @ out.right[:, :k].T
        tail = sq[k:].sum()
        # 1e-20*s1^2 floors the comparison where the exact tail is zero
        assert np.isclose(
            np.linalg.norm(s - approx) ** 2, tail, rtol=1e-8, atol=1e-20 * sq[0]
        )


# ---------------------------------------------------------------------------
# truncate
# ---------------------------------------------------------------------------


def test_energy_tolerance_picks_two_modes():
    svd = eye_svd(5, [2.0, 1.0, 1e-9])
    basis = truncate(svd, np.zeros(5), tol=1e-6)
    assert basis.m == 2
    assert basis.tolerance_used == 1e-6


def test_rank_one_identity():
    svd = eye_svd(3, [5.0])
    basis = truncate(svd, np.zeros(3), rank=1)
    assert basis.m == 1
    assert np.array_equal(basis.singular, [5.0])


def test_tiny_energy_tolerance_accepted():
    svd = thin_svd(wave_centered())
    basis = truncate(svd, np.zeros(64), tol=5e-7)
    assert 1 <= basis.m <= svd.rank


def test_rank_beyond_decomposition_rejected():
    svd = eye_svd(4, [3.0, 2.0])
    with pytest.raises(ValueError):
        truncate(svd, np.zeros(4), rank=3)


def test_exactly_one_criterion_required():
    svd = eye_svd(4, [3.0, 2.0])
    with pytest.raises(ValueError):
        truncate(svd, np.zeros(4))
    with pytest.raises(ValueError):
        truncate(svd, np.zeros(4), rank=1, tol=0.1)


def test_tolerance_bounds_checked():
    svd = eye_svd(4, [3.0, 2.0])
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            truncate(svd, np.zeros(4), tol=bad)


def test_truncations_stay_orthonormal():
    rng = np.random.default_rng(6)
    svd = thin_svd_matrix(rng.standard_normal((30, 10)))
    for m in range(1, svd.rank + 1):
        basis = truncate(svd, np.zeros(30), rank=m)
        assert np.max(np.abs(basis.modes.T @ basis.modes - np.eye(m))) < 1e-10


# ---------------------------------------------------------------------------
# project / reconstruct
# ---------------------------------------------------------------------------


def test_project_unit_mode():
    basis = PodBasis(np.array([[1.0], [0.0]]), np.array([1.0]), np.zeros(2))
    c = CenteredSet(np.array([[3.0], [4.0]]), np.zeros(2), np.array([0.0]))
    traj = project(basis, c)
    assert traj.coeffs[0, 0] == 3.0


def test_project_dimension_mismatch():
    basis = PodBasis(np.eye(3)[:, :1], np.array([1.0]), np.zeros(3))
    c = CenteredSet(np.zeros((2, 2)), np.zeros(2), np.arange(2.0))
    with pytest.raises(ValueError):
        project(basis, c)


def test_project_then_reconstruct_in_span():
    rng = np.random.default_rng(7)
    svd = thin_svd_matrix(rng.standard_normal((20, 6)))
    basis = truncate(svd, np.zeros(20), rank=svd.rank)
    dev = basis.modes @ rng.standard_normal((svd.rank, 4))
    c = CenteredSet(dev, np.zeros(20), np.arange(4.0))
    out = reconstruct(basis, project(basis, c))
    assert np.linalg.norm(out.data - dev) <= 1e-9 * np.linalg.norm(dev)


def test_latent_ellipse():
    c = wave_centered()
    basis = truncate(thin_svd(c), c.mean, rank=2)
    z = project(basis, c).coeffs
    design = np.stack(
        [z[0] ** 2, z[0] * z[1], z[1] ** 2, z[0], z[1], np.ones(z.shape[1])],
        axis=1,
    )
    w = np.linalg.svd(design, compute_uv=False)
    assert w[-1] / w[0] < 1e-8


def test_reconstruct_zero_coefficients_gives_mean():
    mean = np.array([1.0, -2.0, 0.5])
    basis = PodBasis(np.eye(3)[:, :2], np.array([2.0, 1.0]), mean)
    traj = LatentTrajectory(np.zeros((2, 3)), np.arange(3.0))
    out = reconstruct(basis, traj)
    assert np.array_equal(out.data, np.column_stack([mean] * 3))


def test_reconstruct_single_mode():
    theta = np.array([0.6, 0.8])
    basis = PodBasis(theta[:, None], np.array([1.0]), np.array([1.0, 1.0]))
    traj = LatentTrajectory(np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))
    out = reconstruct(basis, traj)
    assert np.allclose(out.data[:, 0], 1.0 + theta)
    assert np.allclose(out.data[:, 1], 1.0)


def reference_reconstruct(basis: PodBasis, traj: LatentTrajectory) -> np.ndarray:
    """The whole-field expression reconstruct replaced."""
    return basis.mean[:, None] + basis.modes @ traj.coeffs


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("shape", [(400, 30), (5, 300)], ids=["tall", "wide"])
def test_reconstruct_matches_reference_in_column_major(m, shape):
    n, t = shape
    rng = np.random.default_rng(10 * m + n)
    # modes read from a POD1 file are column-major, built ones row-major
    for modes in (np.asfortranarray(rng.standard_normal((n, m))),
                  rng.standard_normal((n, m))):
        basis = PodBasis(modes, np.ones(m), rng.standard_normal(n))
        traj = LatentTrajectory(1e3 * rng.standard_normal((m, t)),
                                np.arange(float(t)))
        out = reconstruct(basis, traj).data
        assert out.flags.f_contiguous
        assert out.tobytes() == reference_reconstruct(basis, traj).tobytes()


def _factors(field: np.ndarray, times: np.ndarray) -> dict:
    svd = thin_svd_matrix(field)
    model = dmd_fit(SnapshotSet(field, times), 2)
    return {"left": svd.left, "singular": svd.singular, "right": svd.right,
            "modes": model.modes, "eigenvalues": model.eigenvalues,
            "amplitudes": model.amplitudes}


def _row_major_factors(monkeypatch, field, times) -> dict:
    with monkeypatch.context() as m:
        m.setattr(pod, "matmul_like", row_major_product)
        m.setattr(dmd, "matmul_like", row_major_product)
        return _factors(field, times)


def test_lift_in_column_major_matches_the_row_major_product(monkeypatch):
    # the tall lifts s @ v and X' V write a column-major field's result
    # column-major, which OpenBLAS forms with the row-major route's bits
    wave = generate_synthetic(
        SyntheticSpec("traveling_wave", 4000, 0.0, 2.4925, 0.01))
    assert wave.data.shape == (4000, 250) and wave.data.flags.f_contiguous
    got = _factors(wave.data, wave.times)
    want = _row_major_factors(monkeypatch, wave.data, wave.times)
    assert got["singular"].size == 2
    for key, value in want.items():
        assert got[key].tobytes() == value.tobytes(), key


def test_full_rank_lift_in_column_major_agrees_to_rounding(monkeypatch):
    # lifting all 250 columns, OpenBLAS rounds the two orientations apart
    # (by at most 7e-16 of the product's largest entry in five seeds); the
    # factors the lift feeds stay within 1e-14
    field = np.asfortranarray(
        np.random.default_rng(3).standard_normal((4000, 250)))
    times = np.arange(250.0)
    got = _factors(field, times)
    want = _row_major_factors(monkeypatch, field, times)
    assert got["singular"].size == 250
    assert np.allclose(got["singular"], want["singular"], rtol=1e-14, atol=0)

    def product(f):
        return (f["left"] * f["singular"]) @ f["right"].T

    assert (np.linalg.norm(product(got) - product(want))
            <= 1e-14 * np.linalg.norm(product(want)))
    for key in ("modes", "eigenvalues", "amplitudes"):
        assert np.allclose(got[key], want[key], rtol=1e-14, atol=0), key


def test_row_major_lift_keeps_a_row_major_result(monkeypatch):
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((500, 64)), rng.standard_normal((64, 64))
    out = matmul_like(a, b)
    assert out.flags.c_contiguous
    assert out.tobytes() == row_major_product(a, b).tobytes()
    assert matmul_like(np.asfortranarray(a), b).flags.f_contiguous
    # a wide field is lifted through its transpose, a row-major view; a
    # column-major result would round this full-rank lift differently
    wide = np.asfortranarray(rng.standard_normal((64, 500)))
    times = np.arange(500.0)
    got = _factors(wide, times)
    want = _row_major_factors(monkeypatch, wide, times)
    for key, value in want.items():
        assert got[key].tobytes() == value.tobytes(), key


def test_reconstruct_dimension_mismatch():
    basis = PodBasis(np.eye(3)[:, :2], np.array([2.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        reconstruct(basis, LatentTrajectory(np.zeros((3, 2)), np.arange(2.0)))


def test_reconstruct_overflow_is_numerical_error():
    # each product 0.7 * 1.5e308 is finite; their sum over two modes is not
    basis = PodBasis(np.full((4, 2), 0.7), np.ones(2), np.zeros(4))
    coeffs = np.ones((2, 4))
    coeffs[:, 2:] = 1.5e308
    with pytest.raises(NumericalError, match=r"overflows at step 2 \(t=2\)"):
        reconstruct(basis, LatentTrajectory(coeffs, np.arange(4.0)))


def test_full_rank_round_trip():
    s = SnapshotSet(np.random.default_rng(8).standard_normal((15, 7)), np.arange(7.0))
    c = center(s)
    svd = thin_svd(c)
    basis = truncate(svd, c.mean, rank=svd.rank)
    out = reconstruct(basis, project(basis, c))
    assert np.linalg.norm(out.data - s.data) <= 1e-8 * np.linalg.norm(s.data)


def test_project_inverts_reconstruct_on_latent():
    rng = np.random.default_rng(9)
    svd = thin_svd_matrix(rng.standard_normal((18, 8)))
    basis = truncate(svd, np.zeros(18), rank=4)
    z = rng.standard_normal((4, 6))
    c = CenteredSet(basis.modes @ z, np.zeros(18), np.arange(6.0))
    assert np.max(np.abs(project(basis, c).coeffs - z)) < 1e-10


# ---------------------------------------------------------------------------
# energy spectrum
# ---------------------------------------------------------------------------


def test_energy_spectrum_equal_pair():
    assert np.allclose(energy_spectrum(eye_svd(2, [1.0, 1.0])), [0.5, 1.0])


def test_energy_spectrum_hand_value():
    out = energy_spectrum(eye_svd(2, [2.0, 1.0]))
    assert np.allclose(out, [0.8, 1.0])
    assert abs(out[-1] - 1.0) <= 1e-14


def test_increasing_singular_values_rejected():
    with pytest.raises(ValueError):
        eye_svd(2, [3.0, 4.0])


def test_nonpositive_singular_values_rejected():
    with pytest.raises(ValueError):
        eye_svd(2, [3.0, 0.0])


# ---------------------------------------------------------------------------
# POD1 container
# ---------------------------------------------------------------------------


def test_basis_round_trip(tmp_path):
    c = wave_centered()
    basis = truncate(thin_svd(c), c.mean, tol=1e-8, component="h")
    path = tmp_path / "b.pod"
    save_basis(basis, path)
    back = load_basis(path)
    assert back.modes.tobytes() == basis.modes.tobytes()
    assert back.singular.tobytes() == basis.singular.tobytes()
    assert back.mean.tobytes() == basis.mean.tobytes()
    assert back.tolerance_used == basis.tolerance_used
    assert back.component == "h"


def test_basis_round_trip_rank_criterion(tmp_path):
    c = wave_centered()
    basis = truncate(thin_svd(c), c.mean, rank=1)
    path = tmp_path / "b.pod"
    save_basis(basis, path)
    assert load_basis(path).tolerance_used is None


def test_basis_wrong_magic(tmp_path):
    path = tmp_path / "b.pod"
    path.write_bytes(b"SNP1" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_basis(path)
