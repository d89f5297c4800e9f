"""Neural-ODE engine: a small MLP as the latent right-hand side, explicit
Runge-Kutta solvers to roll it out, and reverse-mode training."""

from .network import (
    ACTIVATIONS,
    DynamicsNet,
    ScaleMap,
    TimeMap,
    build_net,
    load_net,
    save_net,
    scale_fit,
)
from .solvers import SolverSpec, grad, ode_solve
from .training import (
    LrSchedule,
    TrainConfig,
    TrainingHistory,
    lr_at,
    node_forecast,
    normalize_times,
    train,
)

__all__ = [
    "ACTIVATIONS",
    "DynamicsNet",
    "LrSchedule",
    "ScaleMap",
    "SolverSpec",
    "TimeMap",
    "TrainConfig",
    "TrainingHistory",
    "build_net",
    "grad",
    "load_net",
    "lr_at",
    "node_forecast",
    "normalize_times",
    "ode_solve",
    "save_net",
    "scale_fit",
    "train",
]
