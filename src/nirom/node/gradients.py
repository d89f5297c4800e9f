"""Reverse-mode gradients of the trajectory-fitting loss.

Two routes to the same parameter gradient: replaying every solver stage
backwards (discretize-then-optimize, the default), or integrating the
continuous costate system from the final time to the initial one and
accumulating the parameter sensitivity along the way. The adjoint route
re-anchors its state at each observation time and refuses to continue when
the backward re-integration drifts from the stored forward pass.
"""

import numpy as np

from ..errors import NumericalError
from ..pod import LatentTrajectory
from ..snapshot import check_times, time_tolerance
from . import kernels
from .network import DynamicsNet, layer_views
from .solvers import FIXED_METHODS, RolloutPlan, SolverSpec, _pad_state, fixed_rollout

GRAD_MODES = ("backprop_through_solver", "adjoint")
ADJOINT_DRIFT_RTOL = 1e-3


def _target_array(net: DynamicsNet, times: np.ndarray, target) -> np.ndarray:
    if isinstance(target, LatentTrajectory):
        if target.times.shape != times.shape or not np.allclose(
            target.times, times, rtol=0.0, atol=time_tolerance(times)
        ):
            raise ValueError("target times do not match the requested times")
        target = target.coeffs
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (net.latent_dim, times.size):
        raise ValueError(
            f"target must have shape ({net.latent_dim}, {times.size}), "
            f"got {target.shape}"
        )
    return target


def _loss_cotangent(net: DynamicsNet, out: np.ndarray, target: np.ndarray):
    """Loss over the latent rows only; augmented rows carry no cotangent."""
    m = net.latent_dim
    diff = out[:m] - target
    loss = float(np.mean(diff * diff))
    out_bar = np.zeros_like(out)
    out_bar[:m] = (2.0 / diff.size) * diff
    return loss, out_bar


class GradPlan:
    """One gradient route for one net, initial state, time grid, target and
    solver, built once per gradient call or training run: the rollout plan
    (cached for backprop) and the gradient vector with its layer views."""

    def __init__(self, net: DynamicsNet, z0, times, target, solver: SolverSpec,
                 mode: str):
        if mode not in GRAD_MODES:
            raise ValueError(f"unknown gradient mode {mode!r}; expected {GRAD_MODES}")
        if mode == "adjoint" and solver.method not in FIXED_METHODS:
            raise ValueError(
                "adjoint gradients need a fixed-step solver; dopri5 trains "
                "with backprop_through_solver"
            )
        self.net = net
        self.z0 = z0
        self.target = target
        self.mode = mode
        self.rollout = RolloutPlan(
            net, times, solver, cached=mode == "backprop_through_solver"
        )
        self.gw = np.zeros(net.params.size)
        self.grads = layer_views(self.gw, net.sizes)


def _backprop_grad(plan: GradPlan):
    roll = plan.rollout
    out, (_, sub_h, out_idx) = fixed_rollout(roll, plan.z0)
    loss, out_bar = _loss_cotangent(plan.net, out, plan.target)
    a, b, _ = roll.tableau
    layers, acts, _, half, _ = roll.args
    # overflow surfaces as a non-finite gradient, which training rejects
    with np.errstate(over="ignore", invalid="ignore"):
        kernels.rollout_backward(
            layers, acts, half, a, b, sub_h, out_idx, roll.stages, out_bar,
            plan.grads,
        )
    return loss


def _adjoint_grad(plan: GradPlan):
    roll = plan.rollout
    out, (sub_t0, sub_h, out_idx) = fixed_rollout(roll, plan.z0)
    loss, out_bar = _loss_cotangent(plan.net, out, plan.target)
    times = roll.times

    # substep index ending each observation interval
    ends = np.flatnonzero(out_idx >= 0)
    M = times.size
    z = out[:, M - 1].copy()
    a = out_bar[:, M - 1].copy()
    for k in range(M - 1, 0, -1):
        lo = ends[k - 2] + 1 if k >= 2 else 0
        hi = ends[k - 1]
        # overflow surfaces as a non-finite gradient, which training rejects
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(hi, lo - 1, -1):
                kernels.adjoint_step(
                    *roll.args, sub_t0[i] + sub_h[i], -sub_h[i], z, a,
                    plan.grads, *roll.tableau, roll.stages,
                )
        anchor = out[:, k - 1]
        drift = float(np.linalg.norm(z - anchor))
        limit = ADJOINT_DRIFT_RTOL * (1.0 + float(np.linalg.norm(anchor)))
        if drift > limit:
            raise NumericalError(
                f"adjoint re-integration drifted {drift:.3e} from the forward "
                f"state at t={times[k - 1]:.6g} (limit {limit:.3e}); use a "
                "finer step or the backprop_through_solver mode"
            )
        np.copyto(z, anchor)
        a += out_bar[:, k - 1]
    return loss


def _loss_and_grad(plan: GradPlan, params: np.ndarray):
    """(loss, gradient) of the trajectory MSE at the parameter vector
    `params`, through the plan's route."""
    np.copyto(plan.rollout.params, params)
    plan.gw.fill(0.0)
    if plan.mode == "adjoint":
        loss = _adjoint_grad(plan)
    else:
        loss = _backprop_grad(plan)
    return loss, plan.gw.copy()


def grad(
    net: DynamicsNet,
    z0,
    times,
    target,
    solver: SolverSpec,
    mode: str = "backprop_through_solver",
) -> np.ndarray:
    """Gradient of the trajectory MSE with respect to the parameter vector."""
    times = check_times(times)
    z0 = _pad_state(net, z0)
    target = _target_array(net, times, target)
    _, gw = _loss_and_grad(GradPlan(net, z0, times, target, solver, mode), net.params)
    return gw
