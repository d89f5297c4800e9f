"""Full-trajectory RMSProp training of the latent dynamics net.

Each epoch integrates the current net over the whole training grid, scores
the mean squared error against every snapshot, and applies one RMSProp
update:

    a <- rho * a + (1 - rho) * g^2
    v <- mu * v + lr * g / sqrt(a + eps)
    w <- w - v

``train`` maps the trajectory's own time window onto [0, 1] and stamps the
map on the net before anything integrates: a solver failure in training
names its physical time, and forecasts accept physical times. The net
trains on the unit grid: a solver's step, and default_solver's spacing, are
measured there.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..errors import NumericalError
from ..pod import LatentTrajectory
from ..snapshot import check_times
from .network import DynamicsNet, TimeMap
from .solvers import (GRAD_MODES, RolloutPlan, SolverSpec, _loss_and_grad,
                      _pad_state, ode_solve)

#: rho and eps of the RMSProp update in the module docstring
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8

#: the most epochs a run may take: its history holds two numbers per epoch,
#: 16 MB at this count, and a preset trains for 50000
MAX_EPOCHS = 1_000_000


@dataclass(frozen=True)
class LrSchedule:
    """Decay of a TrainConfig's learning rate (lr_at): staircase uses
    floor(step/decay_steps) in the exponent, exponential uses the
    continuous ratio. A refused value's message starts with its field."""

    kind: str
    decay_steps: int
    decay_rate: float

    def __post_init__(self):
        if self.kind not in ("staircase", "exponential"):
            raise ValueError("kind must be 'staircase' or 'exponential', "
                             f"got {self.kind!r}")
        if self.decay_steps < 1:
            raise ValueError("decay_steps must be at least 1")
        if not 0 < self.decay_rate <= 1:
            raise ValueError("decay_rate must be in (0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; a refused value's message starts with its field."""

    epochs: int
    learning_rate: float = 1e-3
    momentum: float = 0.9
    schedule: LrSchedule | None = None
    grad_mode: str = "backprop_through_solver"

    def __post_init__(self):
        if not 0 <= self.epochs <= MAX_EPOCHS:
            raise ValueError(
                f"epochs must be in [0, {MAX_EPOCHS}], got {self.epochs}")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(
                f"grad_mode must be one of {GRAD_MODES}, got {self.grad_mode!r}")


def lr_at(config: TrainConfig, step: int) -> float:
    """The learning rate of epoch `step`: the config's, decayed by its
    schedule when it has one."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    schedule = config.schedule
    if schedule is None:
        return config.learning_rate
    ratio = step / schedule.decay_steps
    if schedule.kind == "staircase":
        ratio = np.floor(ratio)
    return float(config.learning_rate * schedule.decay_rate ** ratio)


@dataclass(frozen=True)
class TrainingHistory:
    loss: np.ndarray
    lr: np.ndarray

    @property
    def final_loss(self) -> float:
        return float(self.loss[-1]) if self.loss.size else float("nan")


def default_solver(times: np.ndarray) -> SolverSpec:
    """rk4 stepping at the grid's smallest spacing. Its step cap is at least
    the grid's interval count, so an evenly spaced grid of any length fits,
    while one whose smallest gap forces a longer schedule is refused."""
    return SolverSpec("rk4", step=float(np.min(np.diff(times))),
                      max_steps=max(SolverSpec.max_steps, times.size - 1))


def normalize_times(times: np.ndarray):
    """Map a physical time grid onto [0, 1]; returns (unit_times, TimeMap)."""
    times = check_times(times)
    if times.size < 2:
        raise ValueError("need at least two times to normalize")
    tmap = TimeMap(float(times[0]), float(times[-1]))
    return tmap.to_unit(times), tmap


def train(
    net: DynamicsNet,
    traj: LatentTrajectory,
    config: TrainConfig,
    solver: SolverSpec | None = None,
):
    """Optimize the net against one latent trajectory on its own window of
    two or more times, mapped onto [0, 1] by normalize_times. Without a
    solver, default_solver(unit times) integrates. Returns (trained net,
    which carries the map, per-epoch history).
    """
    if traj.dim != net.latent_dim:
        raise ValueError(
            f"trajectory has {traj.dim} components, net expects {net.latent_dim}"
        )
    times, tmap = normalize_times(traj.times)
    net = replace(net, time_map=tmap)
    if solver is None:
        solver = default_solver(times)

    z0 = _pad_state(net, traj.coeffs[:, 0])
    params = net.params.copy()
    acc = np.zeros_like(params)
    vel = np.zeros_like(params)
    loss_hist = np.empty(config.epochs)
    lr_hist = np.empty(config.epochs)
    if config.epochs:
        plan = RolloutPlan(net, times, solver, config.grad_mode)
    for epoch in range(config.epochs):
        loss, g = _loss_and_grad(plan, z0, traj.coeffs, params)
        if not np.isfinite(loss):
            raise NumericalError(f"loss became non-finite at epoch {epoch}")
        lr = lr_at(config, epoch)
        acc = RMSPROP_RHO * acc + (1.0 - RMSPROP_RHO) * g * g
        vel = config.momentum * vel + lr * g / np.sqrt(acc + RMSPROP_EPS)
        params = params - vel
        if not np.all(np.isfinite(params)):
            raise NumericalError(f"parameters became non-finite at epoch {epoch}")
        loss_hist[epoch] = loss
        lr_hist[epoch] = lr
    trained = net.with_params(params) if config.epochs else net
    return trained, TrainingHistory(loss_hist, lr_hist)


def node_forecast(
    net: DynamicsNet,
    z0,
    times: np.ndarray,
    solver: SolverSpec | None = None,
) -> LatentTrajectory:
    """Integrate a trained net at physical times and return the latent rows.

    Times run through the net's stored normalization map when present;
    augmented state dimensions are integrated but stripped from the result.
    """
    times = check_times(times)
    tau = net.time_map.to_unit(times) if net.time_map is not None else times
    if solver is None:
        if times.size < 2:
            raise ValueError("need at least two forecast times")
        solver = default_solver(tau)
    sol = ode_solve(net, z0, tau, solver)
    return LatentTrajectory(sol.coeffs[: net.latent_dim], times)
