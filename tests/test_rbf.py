"""Latent-derivative interpolation and forward-Euler forecasting.

The 2-center coefficients and the midpoint value are frozen from the closed
form of the 2x2 interpolation system solved by hand.
"""

import numpy as np
import pytest

from nirom.errors import FitError, FormatError
from nirom.pod import LatentTrajectory, project, reconstruct, thin_svd, truncate
from nirom.rbf import (
    RbfModel,
    build_derivatives,
    eval_dynamics,
    fit,
    forecast,
    load_model,
    save_model,
)
from nirom.snapshot import SyntheticSpec, center, generate_synthetic, time_grid

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
    table = build_derivatives(traj)
    assert np.all(table.values == 0.0)
    assert table.values.shape == (2, 4)


def test_linear_trajectory_has_unit_derivative():
    t = 0.5 * np.arange(6)
    table = build_derivatives(LatentTrajectory(t[None, :], t))
    assert np.allclose(table.values, 1.0)


def test_quadratic_trajectory_forward_differences():
    t = 0.1 * np.arange(8)
    table = build_derivatives(LatentTrajectory((t**2)[None, :], t))
    expected = 0.1 * (2 * np.arange(7) + 1)
    assert np.allclose(table.values[0], expected, atol=1e-12)


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
    with pytest.raises(FitError, match="0 and 2"):
        fit(traj, c=1.0)


def test_interpolation_exact_at_centers():
    rng = np.random.default_rng(0)
    for trial in range(5):
        m, steps = rng.integers(1, 6), rng.integers(3, 51)
        traj = LatentTrajectory(
            rng.standard_normal((m, steps)), 0.1 * np.arange(steps)
        )
        model = fit(traj, c=1.0)
        table = build_derivatives(traj)
        for k in range(model.n_centers):
            got = eval_dynamics(model, model.centers[:, k])
            assert np.linalg.norm(got - table.values[:, k]) <= 1e-8 * max(
                np.linalg.norm(table.values[:, k]), 1e-12
            )


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
    assert back.kernel == model.kernel


def test_model_wrong_magic(tmp_path):
    path = tmp_path / "m.rbf"
    path.write_bytes(b"POD1" + b"\x00" * 24)
    with pytest.raises(FormatError):
        load_model(path)
