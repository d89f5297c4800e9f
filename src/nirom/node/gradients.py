"""Reverse-mode gradients of the trajectory-fitting loss.

Two routes to the same parameter gradient: replaying every solver stage
backwards (discretize-then-optimize, the default), or integrating the
continuous costate system from the final time to the initial one and
accumulating the parameter sensitivity along the way. The adjoint route
re-anchors its state at each observation time and refuses to continue when
the backward re-integration drifts from the stored forward pass.
"""

import numpy as np

from ..errors import SolverError
from ..pod import LatentTrajectory
from ..snapshot import check_times
from . import kernels
from .network import DynamicsNet, layer_views, pack_meta
from .solvers import FIXED_METHODS, SolverSpec, _pad_state, fixed_rollout, tableau

GRAD_MODES = ("backprop_through_solver", "adjoint")
ADJOINT_DRIFT_RTOL = 1e-3


def loss_mse(pred, target) -> float:
    """Mean squared difference over every entry of two equally shaped
    trajectories (or plain arrays)."""
    p = pred.coeffs if isinstance(pred, LatentTrajectory) else np.asarray(pred)
    q = target.coeffs if isinstance(target, LatentTrajectory) else np.asarray(target)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    d = p - q
    return float(np.mean(d * d))


def _target_array(net: DynamicsNet, times: np.ndarray, target) -> np.ndarray:
    if isinstance(target, LatentTrajectory):
        if target.times.shape != times.shape or not np.allclose(
            target.times, times, rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(times))))
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


def _backprop_grad(net, z0, times, target, solver):
    out, schedule, stage_cache = fixed_rollout(
        net, z0, times, solver, want_cache=True
    )
    loss, out_bar = _loss_cotangent(net, out, target)
    a, b, c = tableau(solver.method)
    meta = pack_meta(net)
    gw = np.zeros(net.params.size)
    # overflow surfaces as a non-finite gradient, which training rejects
    with np.errstate(over="ignore", invalid="ignore"):
        kernels.rollout_backward(
            layer_views(net.params, meta), *meta, a, b, c, *schedule,
            stage_cache, out_bar, layer_views(gw, meta),
        )
    return loss, gw


def _adjoint_grad(net, z0, times, target, solver):
    if solver.method not in FIXED_METHODS:
        raise SolverError(
            "adjoint gradients need a fixed-step solver: the adaptive "
            "integrator's dense output cannot be replayed exactly backwards"
        )
    out, (sub_t0, sub_h, out_idx), _ = fixed_rollout(
        net, z0, times, solver, want_cache=False
    )
    loss, out_bar = _loss_cotangent(net, out, target)
    a_tab, b_tab, c_tab = tableau(solver.method)
    meta = pack_meta(net)
    layers = layer_views(net.params, meta)

    # substep index ending each observation interval
    ends = np.flatnonzero(out_idx >= 0)
    M = times.size
    z = out[:, M - 1].copy()
    a = out_bar[:, M - 1].copy()
    gw = np.zeros(net.params.size)
    grads = layer_views(gw, meta)
    for k in range(M - 1, 0, -1):
        lo = ends[k - 2] + 1 if k >= 2 else 0
        hi = ends[k - 1]
        # overflow surfaces as a non-finite gradient, which training rejects
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(hi, lo - 1, -1):
                z, a = kernels.adjoint_step(
                    layers, *meta, sub_t0[i] + sub_h[i], -sub_h[i],
                    z, a, grads, a_tab, b_tab, c_tab,
                )
        anchor = out[:, k - 1]
        drift = float(np.linalg.norm(z - anchor))
        limit = ADJOINT_DRIFT_RTOL * (1.0 + float(np.linalg.norm(anchor)))
        if drift > limit:
            raise SolverError(
                f"adjoint re-integration drifted {drift:.3e} from the forward "
                f"state at t={times[k - 1]:.6g} (limit {limit:.3e}); use a "
                "finer step or the backprop_through_solver mode"
            )
        z = anchor.copy()
        a = a + out_bar[:, k - 1]
    return loss, gw


def _loss_and_grad(net, z0, times, target, solver, mode):
    if mode == "backprop_through_solver":
        return _backprop_grad(net, z0, times, target, solver)
    if mode == "adjoint":
        return _adjoint_grad(net, z0, times, target, solver)
    raise ValueError(f"unknown gradient mode {mode!r}; expected {GRAD_MODES}")


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
    _, gw = _loss_and_grad(net, z0, times, target, solver, mode)
    return gw
