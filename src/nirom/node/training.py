"""Full-trajectory RMSProp training of the latent dynamics net.

Each epoch integrates the current net over the whole training grid, scores
the mean squared error against every snapshot, and applies one RMSProp
update:

    a <- rho * a + (1 - rho) * g^2
    v <- mu * v + lr * g / sqrt(a + eps)
    w <- w - v

Training works on times normalized to [0, 1]; the map back to physical time
rides along on the net so forecasts accept physical times.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..errors import TrainingError
from ..pod import LatentTrajectory
from ..snapshot import check_times
from .gradients import GRAD_MODES, _loss_and_grad, _pad_state
from .network import DynamicsNet, TimeMap
from .solvers import SolverSpec, ode_solve


@dataclass(frozen=True)
class LrSchedule:
    """Decayed learning rate: staircase uses floor(step/decay_steps) in the
    exponent, exponential uses the continuous ratio."""

    kind: str
    base_lr: float
    decay_steps: int
    decay_rate: float

    def __post_init__(self):
        if self.kind not in ("staircase", "exponential"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.base_lr > 0:
            raise ValueError("base learning rate must be positive")
        if self.decay_steps < 1:
            raise ValueError("decay_steps must be at least 1")
        if not 0 < self.decay_rate <= 1:
            raise ValueError("decay rate must be in (0, 1]")


def lr_at(schedule: LrSchedule, step: int) -> float:
    if step < 0:
        raise ValueError("step must be nonnegative")
    ratio = step / schedule.decay_steps
    if schedule.kind == "staircase":
        ratio = np.floor(ratio)
    return float(schedule.base_lr * schedule.decay_rate ** ratio)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-3
    momentum: float = 0.9
    rho: float = 0.9
    eps: float = 1e-8
    schedule: LrSchedule | None = None
    grad_mode: str = "backprop_through_solver"

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not self.learning_rate > 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 < self.rho < 1:
            raise ValueError("rho must be in (0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(
                f"unknown gradient mode {self.grad_mode!r}; expected {GRAD_MODES}"
            )


@dataclass(frozen=True)
class TrainingHistory:
    loss: np.ndarray
    lr: np.ndarray

    @property
    def final_loss(self) -> float:
        return float(self.loss[-1]) if self.loss.size else float("nan")


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
    """Optimize the net against one latent trajectory.

    The trajectory's times must already be normalized to [0, 1] (see
    normalize_times). The default solver is rk4 stepping at the training
    grid spacing. Returns (trained net, per-epoch history).
    """
    times = check_times(traj.times)
    if traj.dim != net.latent_dim:
        raise ValueError(
            f"trajectory has {traj.dim} components, net expects {net.latent_dim}"
        )
    if times.size < 2:
        raise ValueError("need at least two training snapshots")
    if abs(times[0]) > 1e-9 or abs(times[-1] - 1.0) > 1e-9:
        raise ValueError(
            "training times must be normalized to [0, 1]; see normalize_times"
        )
    if solver is None:
        solver = SolverSpec("rk4", step=float(np.min(np.diff(times))))

    z0 = _pad_state(net, traj.coeffs[:, 0])
    target = traj.coeffs
    params = net.params.copy()
    acc = np.zeros_like(params)
    vel = np.zeros_like(params)
    loss_hist = np.empty(config.epochs)
    lr_hist = np.empty(config.epochs)
    work = net
    for epoch in range(config.epochs):
        work = work.with_params(params)
        loss, g = _loss_and_grad(work, z0, times, target, solver, config.grad_mode)
        if not np.isfinite(loss):
            raise TrainingError(f"loss became non-finite at epoch {epoch}")
        lr = lr_at(config.schedule, epoch) if config.schedule else config.learning_rate
        acc = config.rho * acc + (1.0 - config.rho) * g * g
        vel = config.momentum * vel + lr * g / np.sqrt(acc + config.eps)
        params = params - vel
        if not np.all(np.isfinite(params)):
            raise TrainingError(f"parameters became non-finite at epoch {epoch}")
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
    z0 = _pad_state(net, z0)
    if solver is None:
        if times.size < 2:
            raise ValueError("need at least two forecast times")
        solver = SolverSpec("rk4", step=float(np.min(np.diff(tau))))
    sol = ode_solve(net, z0, tau, solver)
    return LatentTrajectory(sol.coeffs[: net.latent_dim], times)


def attach_time_map(net: DynamicsNet, tmap: TimeMap) -> DynamicsNet:
    return replace(net, time_map=tmap)
