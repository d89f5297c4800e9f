"""Latent-derivative interpolation and forward-Euler forecasting.

The 2-center coefficients and the midpoint value are frozen from the closed
form of the 2x2 interpolation system solved by hand.
"""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nirom
from nirom import rbf as rbf_mod
from nirom.errors import FormatError, NumericalError
from nirom.pod import LatentTrajectory, project, reconstruct, thin_svd, truncate
from nirom.rbf import (
    FIT_RESIDUAL_RTOL,
    MAX_CENTERS,
    RbfModel,
    _distance_matrix,
    build_derivatives,
    fit,
    forecast,
    load_model,
    save_model,
)
from nirom.snapshot import SyntheticSpec, center, generate_synthetic, time_grid
from reference import eval_dynamics, rbf_field

# closed-form solution of [[1, e^-1], [e^-1, 1]] alpha = [1, 0]
ALPHA_1 = 1.1565176427496657
ALPHA_2 = -0.42545906411966078
MIDPOINT_VALUE = 0.44340944198503701


def smooth_traj(m_steps: int = 30, dt: float = 0.1) -> LatentTrajectory:
    t = dt * np.arange(m_steps)
    coeffs = np.vstack([np.sin(t), np.cos(2 * t), 0.3 * t])
    return LatentTrajectory(coeffs, t)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def unit_kernel(c: float) -> RbfModel:
    # one center at the origin with unit coefficient: the field is the kernel
    return RbfModel(np.zeros((1, 1)), np.ones((1, 1)), shape_factor=c)


def test_kernel_at_zero_radius():
    assert eval_dynamics(unit_kernel(1.0), np.zeros(1))[0] == 1.0
    assert eval_dynamics(unit_kernel(0.01), np.zeros(1))[0] == 1.0


def test_kernel_halves_at_log_two():
    out = eval_dynamics(unit_kernel(1.0), np.array([np.log(2.0)]))
    assert out[0] == pytest.approx(0.5, rel=1e-15)


def test_kernel_rejects_bad_shape_factor():
    with pytest.raises(ValueError):
        unit_kernel(0.0)


# ---------------------------------------------------------------------------
# derivative targets
# ---------------------------------------------------------------------------


def test_constant_trajectory_has_zero_derivatives():
    traj = LatentTrajectory(np.ones((2, 5)), 0.5 * np.arange(5))
    targets = build_derivatives(traj)
    assert np.all(targets == 0.0)
    assert targets.shape == (2, 4)


def test_linear_trajectory_has_unit_derivative():
    t = 0.5 * np.arange(6)
    targets = build_derivatives(LatentTrajectory(t[None, :], t))
    assert np.allclose(targets, 1.0)


def test_quadratic_trajectory_forward_differences():
    t = 0.1 * np.arange(8)
    targets = build_derivatives(LatentTrajectory((t**2)[None, :], t))
    expected = 0.1 * (2 * np.arange(7) + 1)
    assert np.allclose(targets[0], expected, atol=1e-12)


def test_nonuniform_times_rejected():
    traj = LatentTrajectory(np.zeros((1, 4)), np.array([0.0, 0.1, 0.3, 0.4]))
    with pytest.raises(ValueError):
        build_derivatives(traj)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_single_center_coefficient_equals_target():
    traj = LatentTrajectory(np.array([[1.0, 3.0]]), np.array([0.0, 1.0]))
    model = fit(traj, c=2.0)
    assert model.n_centers == 1
    assert model.coefficients[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_two_center_closed_form():
    traj = LatentTrajectory(np.array([[0.0, 1.0, 1.0]]), np.arange(3.0))
    model = fit(traj, c=1.0)
    assert model.coefficients[0, 0] == pytest.approx(ALPHA_1, rel=1e-12)
    assert model.coefficients[0, 1] == pytest.approx(ALPHA_2, rel=1e-12)


def test_midpoint_of_two_center_example():
    traj = LatentTrajectory(np.array([[0.0, 1.0, 1.0]]), np.arange(3.0))
    model = fit(traj, c=1.0)
    out = eval_dynamics(model, np.array([0.5]))
    assert out[0] == pytest.approx(MIDPOINT_VALUE, rel=1e-12)


def test_duplicate_centers_named():
    traj = LatentTrajectory(np.array([[0.0, 1.0, 0.0, 2.0]]), np.arange(4.0))
    with pytest.raises(NumericalError, match="0 and 2"):
        fit(traj, c=1.0)


def test_interpolation_exact_at_centers():
    rng = np.random.default_rng(0)
    for trial in range(5):
        m, steps = rng.integers(1, 6), rng.integers(3, 51)
        traj = LatentTrajectory(
            rng.standard_normal((m, steps)), 0.1 * np.arange(steps)
        )
        model = fit(traj, c=1.0)
        targets = build_derivatives(traj)
        for k in range(model.n_centers):
            got = eval_dynamics(model, model.centers[:, k])
            assert np.linalg.norm(got - targets[:, k]) <= 1e-8 * max(
                np.linalg.norm(targets[:, k]), 1e-12
            )


def test_fit_gives_up_after_the_shifted_solve():
    # centers 1e-10 apart: both the plain and the shifted system miss the
    # residual tolerance
    traj = LatentTrajectory(np.array([[0.0, 1e-10, 3e-10]]), np.arange(3.0))
    with pytest.raises(NumericalError, match="diagonal shift of 1e-10"):
        fit(traj, c=1.0)


def test_fit_shifted_solve_rescues_a_singular_system():
    # centers 1e-17 apart at c = 1: the system matrix rounds to all ones,
    # which is singular, but the targets lie along its well-conditioned
    # direction and the shifted solve meets the tolerance
    assert np.exp(-1e-17) == 1.0
    traj = LatentTrajectory(np.array([[0.0, 1e-17, 2e-17]]), np.arange(3.0))
    model = fit(traj, c=1.0)
    assert np.allclose(model.coefficients, 5e-18, rtol=1e-5, atol=0)


def reference_fit(traj: LatentTrajectory, c: float) -> RbfModel:
    """The fit before it built the system matrix in the distance matrix's
    buffer and factored one copy in place: about four Mc x Mc matrices at
    its peak. Its coefficients are the bytes fit must reproduce."""
    import scipy.linalg

    targets = build_derivatives(traj)
    centers = traj.coeffs[:, :-1].copy()
    mc = centers.shape[1]
    r = _distance_matrix(centers)
    off = ~np.eye(mc, dtype=bool)
    if np.any(r[off] == 0.0):
        n, k = np.argwhere((r == 0.0) & off)[0]
        raise NumericalError(f"duplicate centers at indices {min(n, k)} and {max(n, k)}")
    a = np.exp(-c * r)
    g = targets.T
    gnorm = np.linalg.norm(g, axis=0)
    shift = 0.0
    for attempt in range(2):
        try:
            # at fit's thread count, which may reorder LAPACK's sums
            with rbf_mod._scipy_blas_threads():
                factor = scipy.linalg.cho_factor(a + shift * np.eye(mc),
                                                 lower=True)
                alpha = scipy.linalg.cho_solve(factor, g)
        except scipy.linalg.LinAlgError:
            alpha = None
        if alpha is not None:
            resid = np.linalg.norm(a @ alpha - g, axis=0)
            if np.all(resid <= FIT_RESIDUAL_RTOL * np.maximum(gnorm, 1e-300)):
                return RbfModel(centers, alpha.T.copy(), c)
        shift = 1e-10 * np.trace(a) / mc
    raise NumericalError("no solution")


@pytest.fixture
def factorizations(monkeypatch):
    """The number of cho_factor calls so far, as a one-item list."""
    import scipy.linalg

    count = [0]

    def counted(*args, _fn=scipy.linalg.cho_factor, **kwargs):
        count[0] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    return count


@pytest.mark.parametrize("traj,attempts", [
    (smooth_traj(), 1),
    (smooth_traj(400, 0.01), 1),
    # all-ones system matrix: the plain factorization fails, the shifted
    # retry solves it
    (LatentTrajectory(np.array([[0.0, 1e-17, 2e-17]]), np.arange(3.0)), 2),
], ids=["30 centers", "400 centers", "shifted retry"])
def test_fit_is_bytewise_the_reference(factorizations, traj, attempts):
    model = fit(traj, c=1.0)
    assert factorizations[0] == attempts
    want = reference_fit(traj, c=1.0)
    assert model.coefficients.tobytes() == want.coefficients.tobytes()
    assert model.centers.tobytes() == want.centers.tobytes()


def test_fit_peak_holds_about_two_system_matrices():
    # the reference peaks at about 4.13 Mc x Mc matrices
    mc = 2000
    t = 0.01 * np.arange(mc + 1.0)
    traj = LatentTrajectory(np.vstack([np.sin(t), np.cos(t), np.sin(3 * t)]), t)
    fit(traj, c=1.0)  # scipy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        fit(traj, c=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * mc * mc


#: fits twice on 500 centers in a fresh interpreter, then reports the CPU
#: time the process burns in a following 0.3 s sleep and the thread counts
#: of numpy's and scipy's OpenBLAS copies before the first fit and after
SPIN_CHILD = """\
import ctypes, json, time
from pathlib import Path
import numpy as np
import scipy.linalg
from nirom import rbf
from nirom.pod import LatentTrajectory

libs = Path(np.__file__).parents[1] / "numpy.libs"
found = sorted(libs.glob("libscipy_openblas64_-*.so"))
numpy_threads = (ctypes.CDLL(str(found[0])).scipy_openblas_get_num_threads64_
                 if found else lambda: None)
get_scipy_threads = rbf._scipy_openblas()[0]
before = [numpy_threads(), get_scipy_threads()]
t = 0.01 * np.arange(501.0)
traj = LatentTrajectory(np.vstack([np.sin(t), np.cos(t), np.sin(3 * t)]), t)
rbf.fit(traj, c=1.0)
rbf.fit(traj, c=1.0)
spun = time.process_time()
time.sleep(0.3)
spun = time.process_time() - spun
print(json.dumps({"spun": spun, "before": before,
                  "after": [numpy_threads(), get_scipy_threads()]}))
"""


def test_a_small_fit_wakes_no_blas_worker():
    # a woken OpenBLAS worker busy-waits for about 0.12 s after its job
    if rbf_mod._scipy_openblas() is None:
        pytest.skip("scipy's vendored OpenBLAS is not found")
    done = subprocess.run(
        [sys.executable, "-c", SPIN_CHILD],
        env=dict(os.environ, PYTHONPATH=str(Path(nirom.__file__).parents[1])),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["spun"] <= 0.02
    assert report["after"] == report["before"]


def test_distance_matrix_matches_the_stacked_difference_sum():
    # the (m, Mc, Mc) difference stack summed over its first axis, which the
    # one-buffer accumulation replaced
    rng = np.random.default_rng(4)
    for m, mc in [(1, 1), (1, 9), (3, 40), (8, 120)]:
        z = rng.standard_normal((m, mc)) * 10.0 ** rng.uniform(-100, 100, (m, 1))
        d = z[:, :, None] - z[:, None, :]
        assert np.array_equal(_distance_matrix(z),
                              np.sqrt(np.sum(d * d, axis=0)))


def test_fit_refuses_centers_beyond_the_limit_before_allocating():
    # one center per snapshot but the last: MAX_CENTERS + 1 centers, whose
    # system matrix alone would take over 512 MiB
    t = np.arange(MAX_CENTERS + 2.0)
    traj = LatentTrajectory(np.vstack([np.sin(t), np.cos(t)]), t)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            fit(traj, c=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert f"{MAX_CENTERS + 1} RBF centers" in message
    assert f"limit of {MAX_CENTERS}" in message
    assert "'input.dt'" in message
    assert peak < 1 << 20


def test_interpolation_matrix_positive_definite():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((3, 25))
    d = z[:, :, None] - z[:, None, :]
    a = np.exp(-0.7 * np.sqrt((d * d).sum(axis=0)))
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 1.0)
    chol = np.linalg.cholesky(a)
    assert np.min(np.diag(chol)) > 0


def test_fit_rejects_bad_shape_factor():
    with pytest.raises(ValueError):
        fit(smooth_traj(), c=-1.0)


# ---------------------------------------------------------------------------
# dynamics evaluation
# ---------------------------------------------------------------------------


def test_far_state_underflows_to_zero():
    model = RbfModel(np.zeros((1, 1)), np.ones((1, 1)), shape_factor=1.0)
    out = eval_dynamics(model, np.array([800.0]))
    assert abs(out[0]) < 1e-300


def test_far_forecast_state_has_zero_weight():
    # ||z - center||^2 overflows, and exp(-inf) = 0 is the right weight
    model = RbfModel(np.zeros((1, 1)), np.ones((1, 1)), shape_factor=1.0)
    out = forecast(model, np.array([1e200]), np.array([0.0, 1.0]))
    assert np.all(out.coeffs == 1e200)


def test_overflowing_forecast_is_numerical_error():
    model = RbfModel(np.zeros((1, 1)), np.full((1, 1), 1e300), shape_factor=1.0)
    with pytest.raises(NumericalError, match="step 1"):
        forecast(model, np.array([0.0]), np.array([0.0, 1e10, 2e10]))


def test_non_finite_model_rejected():
    with pytest.raises(ValueError, match="finite"):
        RbfModel(np.zeros((1, 1)), np.full((1, 1), np.nan), shape_factor=1.0)


def test_eval_dimension_mismatch():
    model = RbfModel(np.zeros((2, 3)), np.ones((2, 3)), shape_factor=1.0)
    with pytest.raises(ValueError):
        eval_dynamics(model, np.zeros(3))


# ---------------------------------------------------------------------------
# forecasting
# ---------------------------------------------------------------------------


def test_zero_dynamics_holds_state():
    model = RbfModel(np.zeros((2, 4)), np.zeros((2, 4)), shape_factor=1.0)
    z0 = np.array([1.5, -0.5])
    traj = forecast(model, z0, np.linspace(0, 1, 11))
    assert np.all(traj.coeffs == z0[:, None])


def test_repeated_times_rejected():
    model = RbfModel(np.ones((1, 2)), np.ones((1, 2)), shape_factor=1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        forecast(model, np.array([2.0]), np.array([0.0, 0.0]))


def test_decreasing_times_rejected():
    model = RbfModel(np.ones((1, 2)), np.ones((1, 2)), shape_factor=1.0)
    with pytest.raises(ValueError):
        forecast(model, np.array([0.0]), np.array([0.0, 1.0, 0.5]))


def field_loop(model, z0, times):
    """Forward Euler through rbf_field, one fresh array per operation: the
    reference the buffered forecast loop must match byte for byte."""
    centers = np.ascontiguousarray(model.centers)
    coeffs = np.ascontiguousarray(model.coefficients)
    out = np.empty((model.dim, times.size))
    out[:, 0] = z = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(times.size - 1):
            z = z + (times[k + 1] - times[k]) * rbf_field(
                centers, coeffs, float(model.shape_factor), z)
            out[:, k + 1] = z
    return out


def test_forecast_matches_the_field_loop_bytewise(tmp_path):
    rng = np.random.default_rng(5)
    save_model(fit(smooth_traj(), c=0.8), tmp_path / "m.rbf")
    models = [
        load_model(tmp_path / "m.rbf"),  # column-major arrays
        fit(LatentTrajectory(rng.standard_normal((1, 12)).cumsum(axis=1),
                             np.arange(12.0)), c=0.3),
        RbfModel(rng.standard_normal((4, 30)), rng.standard_normal((4, 30)),
                 shape_factor=2.5),
    ]
    for model in models:
        for times in (np.linspace(0.0, 3.0, 301),
                      np.cumsum(rng.uniform(0.001, 0.05, 200))):
            z0 = model.centers[:, 0] + 0.01
            got = forecast(model, z0, times).coeffs
            assert got.tobytes() == field_loop(model, z0, times).tobytes()
    far = forecast(models[2], np.full(4, 1e200), np.arange(3.0)).coeffs
    assert far.tobytes() == field_loop(models[2], np.full(4, 1e200),
                                       np.arange(3.0)).tobytes()


def test_training_grid_forecast_is_identity():
    traj = smooth_traj()
    model = fit(traj, c=1.0)
    out = forecast(model, traj.coeffs[:, 0], traj.times)
    assert np.max(np.abs(out.coeffs - traj.coeffs)) < 1e-8


def test_fine_step_harmonic_forecast():
    # train on dt = 0.01, predict at dt/4 across the same window
    spec = SyntheticSpec("harmonic_latent", 16, 0.0, 1.0, 0.01, omega=1.0, seed=7)
    snaps = generate_synthetic(spec)
    c = center(snaps)
    basis = truncate(thin_svd(c), c.mean, rank=2)
    traj = project(basis, c)
    model = fit(traj, c=1.0)

    fine_times = time_grid(0.0, 1.0, 0.0025)
    pred = reconstruct(basis, forecast(model, traj.coeffs[:, 0], fine_times))
    truth = generate_synthetic(
        SyntheticSpec("harmonic_latent", 16, 0.0, 1.0, 0.0025, omega=1.0, seed=7)
    )
    rmse = np.sqrt(np.mean((pred.data - truth.data) ** 2))
    assert rmse < 1e-2 * np.max(np.abs(truth.data))


@pytest.mark.parametrize(
    "kind,kwargs,rank",
    [
        ("traveling_wave", {"wave_speed": 1.0}, 1),
        ("harmonic_latent", {"omega": 1.0, "seed": 3}, 1),
    ],
)
def test_step_shrink_keeps_rmse_within_factor_two(kind, kwargs, rank):
    # with a lossy basis the reconstruction error is truncation-dominated,
    # so quartering the marching step must not grow it by more than 2x.
    # Only the generators with an ODE limit qualify: sub-stepping a
    # discrete map (linear_system) deviates O(1) by construction.
    spec = SyntheticSpec(kind, 24, 0.0, 1.5, 0.015, **kwargs)
    snaps = generate_synthetic(spec)
    c = center(snaps)
    basis = truncate(thin_svd(c), c.mean, rank=rank)
    traj = project(basis, c)
    model = fit(traj, c=1.0)

    coarse = reconstruct(basis, forecast(model, traj.coeffs[:, 0], snaps.times))
    rmse_coarse = np.sqrt(np.mean((coarse.data - snaps.data) ** 2))

    fine_times = time_grid(0.0, snaps.times[-1], 0.015 / 4)
    fine = reconstruct(basis, forecast(model, traj.coeffs[:, 0], fine_times))
    truth = generate_synthetic(
        SyntheticSpec(kind, 24, 0.0, 1.5, 0.015 / 4, **kwargs)
    )
    rmse_fine = np.sqrt(np.mean((fine.data - truth.data[:, : fine.n_snapshots]) ** 2))
    assert rmse_fine <= 2.0 * rmse_coarse


# ---------------------------------------------------------------------------
# RBF1 container
# ---------------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    model = fit(smooth_traj(), c=0.8)
    path = tmp_path / "m.rbf"
    save_model(model, path)
    back = load_model(path)
    assert back.centers.tobytes() == model.centers.tobytes()
    assert back.coefficients.tobytes() == model.coefficients.tobytes()
    assert back.shape_factor == model.shape_factor


def test_model_wrong_magic(tmp_path):
    path = tmp_path / "m.rbf"
    path.write_bytes(b"POD1" + b"\x00" * 24)
    with pytest.raises(FormatError):
        load_model(path)


def test_huge_shape_factor_fits_without_a_warning():
    # every off-diagonal c * r overflows to -inf, an exact zero weight, so
    # the system is the identity and the coefficients are the targets
    traj = smooth_traj(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(traj, 1e308)
    assert np.array_equal(model.coefficients, build_derivatives(traj))
