"""Reverse-mode gradients of the trajectory-fitting loss.

Two routes to the same parameter gradient, the exact gradient of the
discretized rollout (discretize-then-optimize). Backprop through the solver
(the default) caches every stage of the forward pass and replays them
backwards. The adjoint route keeps only the state at the start of every
substep and, walking the substeps in reverse, recomputes each step from its
state before sweeping it back, so it holds the stages of one chunk of steps
instead of the trajectory's (checkpointed backprop, as in ANODE, Gholami et
al. 2019). It costs one more forward evaluation per stage. dopri5 takes
that route in either mode, from the states its adaptive pass keeps.
"""

import numpy as np

from ..pod import LatentTrajectory
from ..snapshot import check_times, same_times
from . import kernels
from .network import DynamicsNet, unfold_biases
from .solvers import (RolloutPlan, SolverSpec, _dopri5_core, _pad_state,
                      check_rollout, fixed_rollout)

GRAD_MODES = ("backprop_through_solver", "adjoint")
#: adjoint steps recomputed in one forward run and kept for one deferred
#: parameter GEMM per layer (kernels.CHUNK, the run its tables are looked up
#: for). A step stores every layer's input and cotangent for each of its
#: stages: about 4.3 KiB for an rk4 step of a 2-64-2 net, so a chunk is
#: about 140 KiB there and about 1 MiB for a 512-wide preset, while the
#: GEMMs' dispatch is spread over 32 steps
ADJOINT_CHUNK = kernels.CHUNK


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
    solver, built once per gradient call or training run: the rollout plan,
    cached for fixed-step backprop, and the augmented gradient arrays. Every
    other route recomputes each step from its start state into `chunk`,
    rows for min(ADJOINT_CHUNK, steps) steps whose first slot also carries
    a fixed-step forward pass."""

    def __init__(self, net: DynamicsNet, z0, times, target, solver: SolverSpec,
                 mode: str):
        if mode not in GRAD_MODES:
            raise ValueError(f"unknown gradient mode {mode!r}; expected {GRAD_MODES}")
        self.net = net
        self.z0 = z0
        self.target = target
        self.rollout = roll = RolloutPlan(
            net, times, solver, cached=mode == "backprop_through_solver")
        self.grads = tuple(np.zeros_like(w) for w in roll.args[0])
        if not roll.cached:
            n_steps = ADJOINT_CHUNK
            if roll.schedule is not None:
                n_steps = min(n_steps, roll.schedule[1].size)
            self.chunk = roll.buffers(n_steps * roll.n_stages, roll.n_stages)


def _backprop_grad(plan: GradPlan):
    roll = plan.rollout
    out, (_, sub_h, out_idx) = fixed_rollout(roll, plan.z0)
    loss, out_bar = _loss_cotangent(plan.net, out, plan.target)
    layers, acts, _, half, _ = roll.args
    # overflow surfaces as a non-finite gradient, which training rejects
    with np.errstate(over="ignore", invalid="ignore"):
        kernels.rollout_backward(
            layers, acts, half, roll.tables, sub_h, out_idx, roll.stages,
            out_bar, plan.grads,
        )
    return loss


def _adjoint_grad(plan: GradPlan):
    """One pass that keeps every step's start state (dopri5's adaptive
    pass, or an uncached rollout_rk over the fixed-step schedule), then,
    chunk by chunk from the last, one forward run that recomputes the
    chunk's steps from its first saved state, one derivative pass over its
    rows, one adjoint_step per step in reverse, and the chunk's parameter
    gradient at once."""
    roll, buf = plan.rollout, plan.chunk
    layers, acts, _, half, _ = roll.args
    if roll.schedule is None:
        states = []
        out, (sub_t0, sub_h, out_idx) = _dopri5_core(roll, plan.z0, states)
    else:
        sub_t0, sub_h, out_idx = roll.schedule
        n_sub = sub_h.size
        # row i is substep i's start state, row n_sub the last state
        states = np.empty((n_sub + 1, plan.z0.size))
        # a blown-up state overflows quietly; check_rollout reports it
        with np.errstate(over="ignore", invalid="ignore"):
            kernels.rollout_rk(
                *roll.args, plan.z0, roll.tables, buf.steps[:1] * n_sub,
                buf.zk, buf.zk2, states.T, np.arange(1, n_sub + 1), sub_h,
                sub_t0,
            )
        # the states at the plan's times: the first, and each substep's end
        # that lands on one
        out = states.T[:, np.flatnonzero(np.append(0, out_idx) >= 0)]
        check_rollout(roll, out)
    loss, out_bar = _loss_cotangent(plan.net, out, plan.target)
    bars = out_bar.T
    buf.cot.z[...] = 0.0
    # overflow surfaces as a non-finite gradient, which training rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for hi in range(sub_h.size, 0, -ADJOINT_CHUNK):
            lo = max(0, hi - ADJOINT_CHUNK)
            n_rows = (hi - lo) * roll.n_stages
            tabs = roll.tables.lookup(sub_h[lo:hi].tolist())
            # step lo + r takes slot hi - 1 - lo - r: the chunk's last step
            # is swept first, from slot 0
            slots = buf.steps[hi - 1 - lo::-1]
            buf.zk.z[...] = states[lo]
            kernels.march(*roll.args, tabs, sub_t0[lo:hi].tolist(), slots,
                          buf.zk, buf.zk2)
            buf.derivs(0, n_rows)
            for tab, rows, k in zip(tabs[::-1], buf.steps,
                                    out_idx[lo:hi].tolist()[::-1]):
                kernels.adjoint_step(layers, acts, half, tab, rows, buf,
                                     bars, k)
            kernels.layer_gradients(plan.grads, buf, n_rows)
    return loss


def _loss_and_grad(plan: GradPlan, params: np.ndarray):
    """(loss, gradient) of the trajectory MSE at the parameter vector
    `params`, through the plan's route."""
    plan.rollout.set_params(params)
    for g in plan.grads:
        g.fill(0.0)
    if plan.rollout.cached:
        loss = _backprop_grad(plan)
    else:
        loss = _adjoint_grad(plan)
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
