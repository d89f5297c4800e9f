"""Reverse-mode gradients of the trajectory-fitting loss.

Two routes to the same parameter gradient, the exact gradient of the
discretized rollout (discretize-then-optimize), each one forward pass
(solvers.fixed_rollout) and, after the loss, its reverse pass. Backprop
through the solver (the default) caches every stage of the forward pass
and replays them backwards. The adjoint route keeps only the state at the
start of every substep and, walking the substeps in reverse, recomputes
each step from its state before sweeping it back, so it holds the stages of
one chunk of steps instead of the trajectory's (checkpointed backprop, as
in ANODE, Gholami et al. 2019). It costs one more forward evaluation per
stage. dopri5 takes that route in either mode, from the states its
adaptive pass keeps.
"""

import numpy as np

from ..pod import LatentTrajectory
from ..snapshot import check_times, same_times
from . import kernels
from .network import DynamicsNet, unfold_biases
from .solvers import (ADJOINT_CHUNK, GRAD_MODES, RolloutPlan, SolverSpec,
                      _pad_state, fixed_rollout)


def _target_array(net: DynamicsNet, times: np.ndarray, target) -> np.ndarray:
    if isinstance(target, LatentTrajectory):
        if not same_times(target.times, times):
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
    out_bar = np.zeros_like(out)
    # an overflow gives a non-finite loss, which training reports
    with np.errstate(over="ignore", invalid="ignore"):
        diff = out[:m] - target
        loss = float(np.mean(diff * diff))
        out_bar[:m] = (2.0 / diff.size) * diff
    return loss, out_bar


class GradPlan:
    """One gradient route for one net, initial state, time grid, target and
    solver, built once per gradient call or training run: the route's
    rollout plan, which sizes what its forward pass keeps, and the augmented
    gradient arrays."""

    def __init__(self, net: DynamicsNet, z0, times, target, solver: SolverSpec,
                 mode: str):
        if mode not in GRAD_MODES:
            raise ValueError(f"unknown gradient mode {mode!r}; expected {GRAD_MODES}")
        self.z0 = z0
        self.target = target
        self.rollout = RolloutPlan(net, times, solver, mode)
        self.grads = tuple(np.zeros_like(w) for w in self.rollout.args[0])


def _recompute_backward(roll: RolloutPlan, schedule, out_bar, grads):
    """The reverse pass from the start states the forward pass kept in
    roll.states: chunk by chunk from the last, one forward run that
    recomputes the chunk's steps from its first saved state, one derivative
    pass over its rows, one adjoint_step per step in reverse, and the
    chunk's parameter gradient at once."""
    sub_t0, sub_h, out_idx = schedule
    buf, states = roll.stages, roll.states
    layers, acts, _, half, _ = roll.args
    bars = out_bar.T
    buf.cot.z[...] = 0.0
    for hi in range(sub_h.size, 0, -ADJOINT_CHUNK):
        lo = max(0, hi - ADJOINT_CHUNK)
        n_rows = (hi - lo) * roll.n_stages
        tabs = roll.tables.lookup(sub_h[lo:hi].tolist())
        # step lo + r takes slot hi - 1 - lo - r: the chunk's last step is
        # swept first, from slot 0
        slots = buf.steps[hi - 1 - lo::-1]
        buf.zk.z[...] = states[lo]
        kernels.march(*roll.args, tabs, sub_t0[lo:hi].tolist(), slots,
                      buf.zk, buf.zk2)
        buf.derivs(0, n_rows)
        for tab, rows, k in zip(tabs[::-1], buf.steps,
                                out_idx[lo:hi].tolist()[::-1]):
            kernels.adjoint_step(layers, acts, half, tab, rows, buf, bars, k)
        kernels.layer_gradients(grads, buf, n_rows)


def _loss_and_grad(plan: GradPlan, params: np.ndarray):
    """(loss, gradient) of the trajectory MSE at the parameter vector
    `params`: the rollout plan's forward pass, then its route's reverse
    pass."""
    roll = plan.rollout
    roll.set_params(params)
    for g in plan.grads:
        g.fill(0.0)
    out, schedule = fixed_rollout(roll, plan.z0)
    loss, out_bar = _loss_cotangent(roll.net, out, plan.target)
    # overflow surfaces as a non-finite gradient, which training rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if roll.cached:
            _, sub_h, out_idx = schedule
            layers, acts, _, half, _ = roll.args
            kernels.rollout_backward(layers, acts, half, roll.tables, sub_h,
                                     out_idx, roll.stages, out_bar, plan.grads)
        else:
            _recompute_backward(roll, schedule, out_bar, plan.grads)
    return loss, unfold_biases(plan.grads, np.empty(params.size), roll.net.sizes)


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
