"""RMSProp training loop, learning-rate schedules, and forecasting.

The convergence run fits a 1x32 tanh net to the latent flow of a known
linear system dz/dt = L z sampled from its matrix exponential, so the target
trajectory is analytic to machine precision.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from nirom.errors import NumericalError
from nirom.node import (
    LrSchedule,
    SolverSpec,
    TrainConfig,
    build_net,
    grad,
    lr_at,
    node_forecast,
    normalize_times,
    train,
)
from nirom.node.network import TimeMap
from nirom.node.solvers import build_schedule
from nirom.node.training import MAX_EPOCHS, default_solver
from nirom.pod import LatentTrajectory


def spiral_trajectory(n_steps: int = 21) -> LatentTrajectory:
    times = np.linspace(0.0, 1.0, n_steps)
    gen = np.array([[-0.2, -2.0], [2.0, -0.2]])
    coeffs = np.stack(
        [sla.expm(t * gen) @ np.array([1.0, 0.0]) for t in times], axis=1
    )
    return LatentTrajectory(coeffs, times)


# ---------------------------------------------------------------------------
# learning-rate schedules
# ---------------------------------------------------------------------------


def decayed(kind, decay_steps, decay_rate, step, learning_rate=1e-3):
    """lr_at of a config training at learning_rate under the schedule."""
    return lr_at(TrainConfig(epochs=0, learning_rate=learning_rate,
                             schedule=LrSchedule(kind, decay_steps, decay_rate)),
                 step)


def test_lr_at_step_zero_is_base():
    assert decayed("staircase", 1000, 0.5, 0) == 1e-3


def test_lr_staircase_first_drop():
    assert decayed("staircase", 5000, 0.5, 4999) == 1e-3
    assert decayed("staircase", 5000, 0.5, 5000) == pytest.approx(5e-4,
                                                                 rel=1e-15)


def test_lr_staircase_table_row():
    assert decayed("staircase", 10000, 0.3, 10000) == pytest.approx(3e-4,
                                                                   rel=1e-15)


def test_lr_exponential_midway():
    assert decayed("exponential", 10000, 0.25, 5000) == pytest.approx(
        1e-3 * 0.5, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(1, 10000))
def test_lr_kinds_agree_at_multiples(k, decay_steps):
    step = k * decay_steps
    assert decayed("staircase", decay_steps, 0.7, step) == pytest.approx(
        decayed("exponential", decay_steps, 0.7, step), rel=1e-12)


def test_lr_rejects_negative_step():
    with pytest.raises(ValueError):
        decayed("staircase", 100, 0.5, -1)


def test_lr_without_a_schedule_is_the_configs():
    assert lr_at(TrainConfig(epochs=0, learning_rate=0.02), 7) == 0.02


def test_schedule_validation():
    with pytest.raises(ValueError):
        LrSchedule("linear", 100, 0.5)
    with pytest.raises(ValueError):
        LrSchedule("staircase", 0, 0.5)
    with pytest.raises(ValueError):
        LrSchedule("staircase", 100, 1.5)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    TrainConfig(epochs=MAX_EPOCHS)
    with pytest.raises(ValueError, match="epochs must be in"):
        TrainConfig(epochs=MAX_EPOCHS + 1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, grad_mode="newton")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_times_endpoints():
    tau, tmap = normalize_times(np.array([2.0, 3.0, 5.0]))
    assert tau[0] == 0.0 and tau[-1] == 1.0
    assert np.allclose(tau, [0.0, 1.0 / 3.0, 1.0], rtol=1e-15)
    assert tmap.t_lo == 2.0 and tmap.t_hi == 5.0


def test_normalize_times_needs_two_points():
    with pytest.raises(ValueError):
        normalize_times(np.array([1.0]))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_net_unchanged():
    traj = spiral_trajectory()
    traj = LatentTrajectory(traj.coeffs, 5.0 + 2.0 * traj.times)
    net = build_net(2, [8], "tanh", seed=0, time_input=False)
    trained, hist = train(net, traj, TrainConfig(epochs=0))
    assert trained.params.tobytes() == net.params.tobytes()
    assert trained.time_map == TimeMap(5.0, 7.0)
    assert hist.loss.size == 0 and hist.lr.size == 0
    assert np.isnan(hist.final_loss)


def test_training_is_deterministic():
    traj = spiral_trajectory()
    cfg = TrainConfig(epochs=30)
    runs = []
    for _ in range(2):
        net = build_net(2, [8], "tanh", seed=3, time_input=False)
        trained, hist = train(net, traj, cfg)
        runs.append((trained.params.tobytes(), hist.loss.tobytes()))
    assert runs[0] == runs[1]


def test_history_records_schedule():
    traj = spiral_trajectory()
    net = build_net(2, [8], "tanh", seed=0, time_input=False)
    # the schedule decays the config's learning rate, not the default
    sched = LrSchedule("staircase", 10, 0.5)
    _, hist = train(net, traj, TrainConfig(epochs=25, learning_rate=1e-2,
                                           schedule=sched))
    assert hist.loss.size == 25
    assert np.all(hist.lr[:10] == 1e-2)
    assert np.all(hist.lr[10:20] == 5e-3)
    assert np.all(hist.lr[20:] == 2.5e-3)


def test_training_loss_decreases():
    traj = spiral_trajectory()
    net = build_net(2, [16], "tanh", seed=1, time_input=False)
    _, hist = train(net, traj, TrainConfig(epochs=300))
    assert hist.loss[-1] < 0.05 * hist.loss[0]


def test_training_reaches_small_mse():
    traj = spiral_trajectory()
    net = build_net(2, [32], "tanh", seed=2, time_input=False)
    trained, hist = train(net, traj, TrainConfig(epochs=5000))
    assert hist.final_loss < 1e-3
    assert trained.params.shape == net.params.shape


def test_training_on_a_window_is_training_on_its_unit_grid():
    # the net reads time, so a grid left unmapped would train differently
    times = np.linspace(10.0, 12.0, 11)
    coeffs = np.vstack([np.cos(times), np.sin(times)])
    tau, _ = normalize_times(times)
    net = build_net(2, [8], "tanh", seed=0, time_input=True)
    config = TrainConfig(epochs=20)
    on_window, _ = train(net, LatentTrajectory(coeffs, times), config)
    on_unit, _ = train(net, LatentTrajectory(coeffs, tau), config)
    assert on_window.params.tobytes() == on_unit.params.tobytes()
    assert on_window.time_map == TimeMap(10.0, 12.0)


def test_training_needs_two_times():
    net = build_net(2, [8], "tanh", seed=0, time_input=False)
    traj = LatentTrajectory(np.ones((2, 1)), np.array([3.0]))
    with pytest.raises(ValueError, match="two times"):
        train(net, traj, TrainConfig(epochs=1))


def test_training_rejects_dimension_mismatch():
    traj = spiral_trajectory()
    net = build_net(3, [8], "tanh", seed=0, time_input=False)
    with pytest.raises(ValueError, match="components"):
        train(net, traj, TrainConfig(epochs=1))


def test_training_blowup_reports_epoch():
    traj = spiral_trajectory(6)
    net = build_net(2, [], "linear", seed=0, time_input=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="epoch"):
            train(net, traj, TrainConfig(epochs=50, learning_rate=1e12))


def test_training_with_adjoint_mode():
    traj = spiral_trajectory(11)
    net = build_net(2, [8], "tanh", seed=5, time_input=False)
    cfg = TrainConfig(epochs=40, grad_mode="adjoint")
    _, hist = train(net, traj, cfg, solver=SolverSpec("rk4", step=0.05))
    assert hist.loss[-1] < hist.loss[0]


def test_training_augmented_state():
    traj = spiral_trajectory(11)
    net = build_net(2, [8], "tanh", seed=5, time_input=False, augment_dim=1)
    _, hist = train(net, traj, TrainConfig(epochs=60))
    assert hist.loss[-1] < hist.loss[0]


def test_training_with_dopri5():
    traj = spiral_trajectory(11)
    net = build_net(2, [8], "tanh", seed=5, time_input=False)
    cfg = TrainConfig(epochs=20)
    _, hist = train(net, traj, cfg, solver=SolverSpec("dopri5", rtol=1e-6, atol=1e-8))
    assert hist.loss[-1] < hist.loss[0]


# ---------------------------------------------------------------------------
# forecasting
# ---------------------------------------------------------------------------


def test_forecast_maps_physical_times():
    traj = spiral_trajectory()
    net = build_net(2, [32], "tanh", seed=2, time_input=False)
    trained, _ = train(net, traj, TrainConfig(epochs=2000))
    # pretend training time 0..1 corresponds to physical 10..12
    stamped = replace(trained, time_map=TimeMap(10.0, 12.0))
    phys = 10.0 + 2.0 * traj.times
    fc_phys = node_forecast(stamped, traj.coeffs[:, 0], phys)
    fc_unit = node_forecast(trained, traj.coeffs[:, 0], traj.times)
    assert np.allclose(fc_phys.coeffs, fc_unit.coeffs, rtol=0, atol=1e-12)
    assert np.array_equal(fc_phys.times, phys)


def test_forecast_strips_augmented_rows():
    traj = spiral_trajectory(11)
    net = build_net(2, [8], "tanh", seed=5, time_input=False, augment_dim=1)
    trained, _ = train(net, traj, TrainConfig(epochs=10))
    fc = node_forecast(trained, traj.coeffs[:, 0], traj.times)
    assert fc.dim == 2


def test_forecast_accepts_explicit_solver():
    traj = spiral_trajectory(11)
    net = build_net(2, [8], "tanh", seed=5, time_input=False)
    fc = node_forecast(net, traj.coeffs[:, 0], traj.times,
                       solver=SolverSpec("dopri5", rtol=1e-7, atol=1e-9))
    assert fc.coeffs.shape == (2, 11)


def test_default_solver_takes_one_step_per_interval_of_any_even_grid():
    # more intervals than SolverSpec's default cap of max_steps
    times = np.linspace(0.0, 1.0, SolverSpec.max_steps + 2)
    solver = default_solver(times)
    assert solver.max_steps == times.size - 1
    sub_t0, _, out_idx = build_schedule(times, solver.step, solver.max_steps)
    assert sub_t0.size == times.size - 1
    assert np.array_equal(out_idx, np.arange(1, times.size))


def test_default_solver_refuses_a_grid_whose_smallest_gap_forces_a_long_schedule():
    net = build_net(2, [4], "tanh", seed=5, time_input=False)
    with pytest.raises(NumericalError, match="max_steps is 100000"):
        node_forecast(net, np.array([0.3, -0.2]), np.array([0.0, 1e-9, 1.0]))


def overflow_message(net, times):
    """(step, message) of the forecast's overflow, after checking that the
    forecast up to the step before is finite."""
    z0 = np.array([1.0, 1.0])
    with pytest.raises(NumericalError) as err:
        node_forecast(net, z0, times)
    message = str(err.value)
    k = int(re.search(r"at step (\d+) ", message).group(1))
    assert k >= 1
    assert np.all(np.isfinite(node_forecast(net, z0, times[:k]).coeffs))
    return k, message


@pytest.mark.parametrize("time_map", [None, TimeMap(0.0, 50.0)])
def test_overflowing_forecast_names_its_step_and_time(time_map):
    # a 2-4-2 linear net whose weights are all 30 grows without bound; with
    # the time map it integrates over [0, 1], and names the physical time
    net = build_net(2, [4], "linear", seed=0, time_input=False)
    net = replace(net.with_params(np.full(net.params.size, 30.0)),
                  time_map=time_map)
    times = np.linspace(0.0, 50.0, 101)
    k, message = overflow_message(net, times)
    assert f"non-finite at step {k} (t={times[k]:.6g})" in message


@pytest.mark.parametrize("solver", [
    SolverSpec("dopri5"),  # the state overflows
    SolverSpec("dopri5", max_steps=3),  # the step budget runs out first
], ids=["non-finite", "max_steps"])
def test_dopri5_failure_names_the_physical_time(solver):
    # the all-30 net of the test above, integrated by dopri5 on [0, 1] with
    # and without the map to [0, 50]: the mapped message is 50x the time
    net = build_net(2, [4], "linear", seed=0, time_input=False)
    net = net.with_params(np.full(net.params.size, 30.0))
    tmap = TimeMap(0.0, 50.0)
    times = np.linspace(0.0, 50.0, 101)
    failed_at = []
    for forecast_net, grid in ((net, tmap.to_unit(times)),
                               (replace(net, time_map=tmap), times)):
        with pytest.raises(NumericalError) as err:
            node_forecast(forecast_net, np.array([1.0, 1.0]), grid, solver)
        failed_at.append(float(re.search(r"at t=(\S+)$", str(err.value))[1]))
    unit_t, physical_t = failed_at
    assert 0.0 < unit_t < 1.0
    assert physical_t == pytest.approx(tmap.from_unit(unit_t), rel=1e-5)


@pytest.mark.parametrize("entry", ["grad", "train", "node_forecast"])
def test_non_finite_initial_state_is_rejected_up_front(entry):
    traj = spiral_trajectory(11)
    traj.coeffs[1, 0] = np.nan  # past the trajectory's own check
    net = build_net(2, [8], "tanh", seed=5, time_input=False, augment_dim=1)
    calls = {
        "grad": lambda: grad(net, traj.coeffs[:, 0], traj.times, traj.coeffs,
                             SolverSpec("rk4", step=0.1)),
        "train": lambda: train(net, traj, TrainConfig(epochs=1)),
        "node_forecast": lambda: node_forecast(net, traj.coeffs[:, 0],
                                               traj.times),
    }
    with pytest.raises(NumericalError, match="non-finite initial state"):
        calls[entry]()
