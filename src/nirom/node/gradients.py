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
from .network import DynamicsNet, unfold_biases
from .solvers import FIXED_METHODS, RolloutPlan, SolverSpec, _pad_state, fixed_rollout

GRAD_MODES = ("backprop_through_solver", "adjoint")
ADJOINT_DRIFT_RTOL = 1e-3
#: adjoint steps whose stage rows are kept for one deferred parameter GEMM
#: per layer. A step stores every layer's input and cotangent for each of
#: its stages: about 4.3 KiB for an rk4 step of a 2-64-2 net, so a chunk is
#: about 140 KiB there and about 1 MiB for a 512-wide preset, while the
#: GEMMs' dispatch is spread over 32 steps
ADJOINT_CHUNK = 32


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
    (cached for backprop) and the augmented gradient arrays. An adjoint
    plan also holds its chunk buffers and the tableaus of every substep:
    `back` (ts, ea, eb) marches the state back over it with the step
    h < 0, and `costate` (ca, cb) = [1, -h a], [1, -h b] is the costate's,
    its negation folded in."""

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
        self.rollout = roll = RolloutPlan(
            net, times, solver, cached=mode == "backprop_through_solver"
        )
        self.grads = tuple(np.zeros_like(w) for w in roll.args[0])
        if mode == "adjoint":
            sub_t0, sub_h, _ = roll.schedule
            t1 = sub_t0 + sub_h
            self.back = kernels.scaled_tableau(*roll.tableau, t1, -sub_h)
            self.costate = kernels.scaled_tableau(*roll.tableau, t1, sub_h)[1:]
            self.chunk = roll.buffers(ADJOINT_CHUNK * roll.n_stages,
                                      roll.n_stages)


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
    """March the state and costate back over every substep, one
    adjoint_step each, taking the parameter gradient of every chunk of
    ADJOINT_CHUNK steps at once. At each observation time the state is
    re-anchored to the forward pass and the loss cotangent joins the
    costate; the states the re-integration reached there are checked once
    the sweep is done."""
    roll = plan.rollout
    out, (_, _, out_idx) = fixed_rollout(roll, plan.z0)
    loss, out_bar = _loss_cotangent(plan.net, out, plan.target)
    ts, ea, eb = plan.back
    ca, cb = plan.costate
    buf = plan.chunk
    n_stages = roll.n_stages
    last = out.shape[1] - 1
    reached = np.empty_like(out)
    buf.cot[0] = 0.0
    j = 0
    # overflow surfaces as a non-finite gradient, which training rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(out_idx.shape[0] - 1, -1, -1):
            col = out_idx[i]
            if col >= 0:
                if col < last:
                    reached[:, col] = buf.zk[0]
                buf.zk[0] = out[:, col]
                buf.cot[0] += out_bar[:, col]
            kernels.adjoint_step(
                *roll.args, ts[i], ea[i], eb[i], ca[i], cb[i], buf, j,
            )
            j += 1
            if j == ADJOINT_CHUNK or i == 0:
                kernels.layer_gradients(plan.grads, buf, j * n_stages, buf.w)
                j = 0
        reached[:, 0] = buf.zk[0]
        _check_drift(reached[:, :last], out[:, :last], roll.times)
    return loss


def _check_drift(reached, anchors, times):
    """Refuse a sweep whose re-integrated state at an observation time
    (column c of `reached`) drifted from the forward state there by more
    than ADJOINT_DRIFT_RTOL * (1 + |anchor|); the latest such time is the
    first the backward sweep met, and the one reported. A NaN drift
    compares false and is not refused."""
    drift = np.linalg.norm(reached - anchors, axis=0)
    limit = ADJOINT_DRIFT_RTOL * (1.0 + np.linalg.norm(anchors, axis=0))
    bad = np.flatnonzero(drift > limit)
    if bad.size:
        c = bad[-1]
        raise NumericalError(
            f"adjoint re-integration drifted {drift[c]:.3e} from the forward "
            f"state at t={times[c]:.6g} (limit {limit[c]:.3e}); use a "
            "finer step or the backprop_through_solver mode"
        )


def _loss_and_grad(plan: GradPlan, params: np.ndarray):
    """(loss, gradient) of the trajectory MSE at the parameter vector
    `params`, through the plan's route."""
    plan.rollout.set_params(params)
    for g in plan.grads:
        g.fill(0.0)
    if plan.mode == "adjoint":
        loss = _adjoint_grad(plan)
    else:
        loss = _backprop_grad(plan)
    return loss, unfold_biases(plan.grads, np.empty(params.size), plan.net.sizes)


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
