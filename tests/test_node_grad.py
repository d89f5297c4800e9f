"""Reverse-mode gradient integrity.

Every coordinate of the analytic gradient is compared against central finite
differences of the rolled-out loss; the adjoint route must agree with the
stage-replay route on fixed-step solvers and refuse to run where it cannot
be exact.
"""

import numpy as np
import pytest

from nirom.errors import SolverError
from nirom.node import (
    DynamicsNet,
    SolverSpec,
    build_net,
    grad,
    loss_mse,
)
from nirom.node.gradients import _loss_and_grad, _pad_state
from nirom.pod import LatentTrajectory

FD_STEP = 1e-6
TIMES = np.linspace(0.0, 1.0, 5)


def small_net(activation: str, seed: int = 1) -> DynamicsNet:
    # 2 latent components, 8 hidden units, time feature on: 50 parameters
    return build_net(2, [8], activation, seed=seed)


def problem(seed: int = 7):
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=2)
    target = rng.normal(size=(2, TIMES.size))
    return z0, target


def fd_gradient(net, z0, times, target, solver):
    z0p = _pad_state(net, z0)

    def loss_of(p):
        loss, _ = _loss_and_grad(
            net.with_params(p), z0p, times, target, solver,
            "backprop_through_solver",
        )
        return loss

    g = np.empty(net.params.size)
    for i in range(net.params.size):
        p = net.params.copy()
        p[i] += FD_STEP
        hi = loss_of(p)
        p[i] -= 2 * FD_STEP
        lo = loss_of(p)
        g[i] = (hi - lo) / (2 * FD_STEP)
    return g


def assert_gradient_close(g, fd, rtol=1e-5):
    # central differences carry roundoff noise of about eps*loss/step, so
    # coordinates far below the gradient scale get an absolute allowance
    floor = 1e-4 * (1.0 + np.max(np.abs(fd)))
    tol = rtol * np.maximum.reduce([np.abs(fd), np.abs(g), np.full_like(g, floor)])
    assert np.all(np.abs(g - fd) <= tol)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_zero_when_equal():
    t = np.array([0.0, 1.0])
    traj = LatentTrajectory(np.array([[1.0, 2.0]]), t)
    assert loss_mse(traj, traj) == 0.0


def test_loss_unit_scalar():
    assert loss_mse(np.array([[1.0]]), np.array([[0.0]])) == 1.0


def test_loss_mean_of_squares():
    assert loss_mse(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == 2.5


def test_loss_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        loss_mse(np.zeros((2, 3)), np.zeros((2, 4)))


def test_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 3, 4))
    assert loss_mse(a, b) >= 0.0


# ---------------------------------------------------------------------------
# gradient versus finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("activation", ["linear", "relu", "elu", "tanh"])
@pytest.mark.parametrize("method", ["euler", "midpoint", "rk4"])
def test_gradient_matches_finite_differences(activation, method):
    net = small_net(activation)
    assert net.params.size <= 200
    z0, target = problem()
    solver = SolverSpec(method, step=0.25)
    g = grad(net, z0, TIMES, target, solver)
    fd = fd_gradient(net, z0, TIMES, target, solver)
    assert_gradient_close(g, fd)


def test_gradient_zero_at_minimum():
    # zero weights hold the state constant; a constant target is a minimum
    net = small_net("tanh")
    net = net.with_params(np.zeros_like(net.params))
    z0 = np.array([0.4, -1.2])
    target = np.tile(z0[:, None], (1, TIMES.size))
    for mode in ("backprop_through_solver", "adjoint"):
        g = grad(net, z0, TIMES, target, SolverSpec("rk4", step=0.25), mode=mode)
        assert np.all(g == 0.0)


def test_gradient_accepts_latent_trajectory_target():
    net = small_net("tanh")
    z0, target = problem()
    traj = LatentTrajectory(target, TIMES)
    solver = SolverSpec("rk4", step=0.25)
    assert np.array_equal(
        grad(net, z0, TIMES, traj, solver),
        grad(net, z0, TIMES, target, solver),
    )


def test_gradient_rejects_mismatched_target_times():
    net = small_net("tanh")
    z0, target = problem()
    traj = LatentTrajectory(target, TIMES + 0.5)
    with pytest.raises(ValueError, match="times"):
        grad(net, z0, TIMES, traj, SolverSpec("rk4", step=0.25))


def test_gradient_rejects_bad_target_shape():
    net = small_net("tanh")
    z0, _ = problem()
    with pytest.raises(ValueError, match="target"):
        grad(net, z0, TIMES, np.zeros((3, TIMES.size)),
             SolverSpec("rk4", step=0.25))


def test_gradient_rejects_unknown_mode():
    net = small_net("tanh")
    z0, target = problem()
    with pytest.raises(ValueError, match="mode"):
        grad(net, z0, TIMES, target, SolverSpec("rk4", step=0.25), mode="forward")


def test_augmented_gradient_matches_finite_differences():
    # only the first m rows enter the loss; appended rows start at zero
    net = build_net(2, [6], "tanh", augment_dim=1, seed=4)
    z0, target = problem(seed=11)
    solver = SolverSpec("rk4", step=0.25)
    g = grad(net, z0, TIMES, target, solver)
    fd = fd_gradient(net, z0, TIMES, target, solver)
    assert_gradient_close(g, fd)


def test_time_dependent_gradient_matches_finite_differences():
    # nonzero time feature weights exercise the dL/dt path
    net = small_net("elu", seed=9)
    z0, target = problem(seed=13)
    solver = SolverSpec("midpoint", step=0.2)
    g = grad(net, z0, TIMES, target, solver)
    fd = fd_gradient(net, z0, TIMES, target, solver)
    assert_gradient_close(g, fd)


# ---------------------------------------------------------------------------
# adjoint route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method,step", [("rk4", 0.25), ("midpoint", 0.01)])
def test_adjoint_agrees_with_backprop(method, step):
    net = small_net("tanh")
    z0, target = problem()
    solver = SolverSpec(method, step=step)
    gb = grad(net, z0, TIMES, target, solver, mode="backprop_through_solver")
    ga = grad(net, z0, TIMES, target, solver, mode="adjoint")
    rel = np.max(np.abs(ga - gb)) / np.max(np.abs(gb))
    assert rel < 1e-4


def test_adjoint_with_dopri5_raises():
    net = small_net("tanh")
    z0, target = problem()
    with pytest.raises(SolverError, match="adjoint"):
        grad(net, z0, TIMES, target, SolverSpec("dopri5"), mode="adjoint")


def test_adjoint_drift_raises():
    # stiff decay under coarse euler: the backward re-integration amplifies
    # instead of decaying, so the drift check must fire
    net = DynamicsNet((1, 1), ("linear",), np.array([-5.0, 0.0]),
                      time_input=False)
    times = np.array([0.0, 1.0])
    target = np.zeros((1, 2))
    with pytest.raises(SolverError, match="drift"):
        grad(net, np.array([1.0]), times, target,
             SolverSpec("euler", step=0.1), mode="adjoint")
