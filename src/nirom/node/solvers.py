"""Explicit Runge-Kutta integration of the latent dynamics net, and the
reverse passes of its trajectory-loss gradient.

Every method lands exactly on the requested times. Fixed-step methods
(euler, midpoint, rk4) sub-step each observation interval evenly. dopri5 is
the embedded 4(5) pair with PI step-size control; it shortens any step that
would pass the next requested time so that it ends there. fixed_rollout
makes every forward pass, a gradient's included, keeping what the reverse
pass of its plan's route reads (RolloutPlan).

Reverse-mode gradients of the trajectory-fitting loss take one of two
routes to the same parameter gradient, the exact gradient of the
discretized rollout (discretize-then-optimize), each one forward pass and,
after the loss, its reverse pass. Backprop through the solver (the default)
caches every stage of the forward pass and replays them backwards. The
adjoint route keeps only the state at the start of every substep and,
walking the substeps in reverse, recomputes each step from its state before
sweeping it back, so it holds the stages of one chunk of steps instead of
the trajectory's (checkpointed backprop, as in ANODE, Gholami et al. 2019).
It costs one more forward evaluation per stage. dopri5 takes that route in
either mode, from the states its adaptive pass keeps.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError
from ..pod import LatentTrajectory
from ..snapshot import check_steps, check_times, same_times, time_tolerance
from . import kernels
from .network import DynamicsNet, fold_biases, kernel_args, unfold_biases

FIXED_METHODS = ("euler", "midpoint", "rk4")
METHODS = FIXED_METHODS + ("dopri5",)

#: the most steps max_steps may allow: a fixed-step schedule holds 24 bytes
#: per substep (built through about twice that) and dopri5 records about
#: 100 (three Python numbers), so a full schedule stays near 100 MB; a dopri5
#: gradient adds each accepted step's state (136 bytes at 2 dims), and its
#: scaled tableaus are held for one chunk of steps at most. It admits one
#: step per interval of the longest grid
#: (snapshot.MAX_GRID_TIMES)
MAX_STEPS = 1_000_000

#: what a RolloutPlan serves: a rollout alone, or a gradient mode's
GRAD_MODES = ("backprop_through_solver", "adjoint")
ROUTES = ("rollout",) + GRAD_MODES


@dataclass(frozen=True)
class SolverSpec:
    """Integrator choice: fixed step size for euler/midpoint/rk4, error
    tolerances for dopri5. A refused value's message starts with its field."""

    method: str = "rk4"
    step: float | None = None
    rtol: float = 1e-6
    atol: float = 1e-8
    max_steps: int = 100000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"method must be one of {METHODS}, got {self.method!r}")
        if self.method in FIXED_METHODS:
            if self.step is None or not self.step > 0:
                raise ValueError(
                    f"step must be positive for method {self.method!r}")
        else:
            if not self.rtol > 0:
                raise ValueError("rtol must be positive for method 'dopri5'")
            if not self.atol > 0:
                raise ValueError("atol must be positive for method 'dopri5'")
        if not 1 <= self.max_steps <= MAX_STEPS:
            raise ValueError(
                f"max_steps must be in [1, {MAX_STEPS}], got {self.max_steps}"
            )


def tableau(method: str):
    """Butcher arrays (a, b, c) for the named explicit method.

    For dopri5 this is the 6-stage fifth-order advance that gradients
    recompute accepted steps with; the error estimate lives in _dopri5_core.
    """
    if method == "euler":
        a = np.zeros((1, 1))
        b = np.array([1.0])
        c = np.array([0.0])
    elif method == "midpoint":
        a = np.zeros((2, 2))
        a[1, 0] = 0.5
        b = np.array([0.0, 1.0])
        c = np.array([0.0, 0.5])
    elif method == "rk4":
        a = np.zeros((4, 4))
        a[1, 0] = 0.5
        a[2, 1] = 0.5
        a[3, 2] = 1.0
        b = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])
        c = np.array([0.0, 0.5, 0.5, 1.0])
    elif method == "dopri5":
        a = np.zeros((6, 6))
        a[1, 0] = 1 / 5
        a[2, :2] = [3 / 40, 9 / 40]
        a[3, :3] = [44 / 45, -56 / 15, 32 / 9]
        a[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
        a[5, :5] = [
            9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
        ]
        b = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
        c = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
    else:
        raise ValueError(f"unknown solver {method!r}")
    return a, b, c


def build_schedule(times: np.ndarray, step: float, max_steps: int):
    """Substep plan covering every observation interval.

    Each interval is divided into ceil(span/step) equal substeps so the march
    lands exactly on the observation times. The substeps are counted in
    float first, so a plan of more than max_steps is refused before any cast
    or allocation. Returns (sub_t0, sub_h, out_idx) where out_idx[i] is the
    output column recorded after substep i (or -1).
    """
    spans = times[1:] - times[:-1]
    counts = np.maximum(1.0, np.ceil(spans / step - 1e-9))
    total = float(np.sum(counts))
    if total > max_steps:
        raise NumericalError(
            f"schedule needs {total:.15g} steps, max_steps is {max_steps}"
        )
    nsub = counts.astype(np.int64)
    ends = np.cumsum(nsub)
    # substep i of interval k starts at times[k] + i * (span_k / nsub_k)
    sub_h = np.repeat(spans / nsub, nsub)
    i = np.arange(sub_h.size) - np.repeat(ends - nsub, nsub)
    sub_t0 = np.repeat(times[:-1], nsub) + i * sub_h
    out_idx = np.full(sub_h.size, -1, dtype=np.int64)
    out_idx[ends - 1] = np.arange(1, times.size)
    return sub_t0, sub_h, out_idx


def _pad_state(net: DynamicsNet, z0) -> np.ndarray:
    """The checked full initial state from a latent or full-state vector;
    appended augmentation dimensions start at zero."""
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape == (net.latent_dim,):
        z0 = np.concatenate([z0, np.zeros(net.augment_dim)])
    if z0.shape != (net.state_dim,):
        raise ValueError(
            f"initial state must have shape ({net.latent_dim},) or "
            f"({net.state_dim},), got {z0.shape}"
        )
    if not np.all(np.isfinite(z0)):
        raise NumericalError("non-finite initial state")
    return z0


class RolloutPlan:
    """One net's rollouts over one time grid with one solver, for one of
    ROUTES, built once and reused: the kernels' net arguments, whose
    augmented weights the plan owns (set_params refills them), the scaled
    tableau tables, the fixed-step schedule, and the buffers the route
    keeps, sized here. A rollout keeps one step's stage rows (dopri5 none).
    Fixed-step backprop is `cached`: `stages` holds every substep's rows.
    Any other gradient route keeps every step's start state, and the last,
    in `states`, and `stages` holds one chunk of at most kernels.CHUNK
    steps, which the forward pass runs through and the reverse pass
    recomputes into. A gradient route also owns its augmented gradient
    arrays [gW | gb], one per layer, in `grads`."""

    def __init__(self, net: DynamicsNet, times, solver: SolverSpec,
                 route: str = "rollout"):
        if route not in ROUTES:
            raise ValueError(f"unknown route {route!r}; expected {ROUTES}")
        self.net = net
        self.times = times
        self.solver = solver
        self.args = kernel_args(net, net.params)
        self.tables = kernels.StepTables(*tableau(solver.method))
        self.n_stages = self.tables.n_stages
        fixed = solver.method in FIXED_METHODS
        self.cached = fixed and route == "backprop_through_solver"
        self.schedule = self.adaptive = self.stages = self.states = None
        if fixed:
            self.schedule = build_schedule(times, solver.step, solver.max_steps)
            n_sub = self.schedule[1].size
        else:
            self.adaptive = self.buffers(_DP_K, _DP_K)
        if self.cached:
            n_steps = n_sub
        elif route != "rollout":
            n_steps = min(kernels.CHUNK, n_sub) if fixed else kernels.CHUNK
            self.states = np.empty((n_sub + 1, net.state_dim)) if fixed else []
        else:
            # a dopri5 rollout marches in its adaptive buffers alone
            n_steps = 1 if fixed else None
        if n_steps is not None:
            self.stages = self.buffers(n_steps * self.n_stages, self.n_stages)
        self.grads = None if route == "rollout" else tuple(
            np.zeros_like(w) for w in self.args[0])

    def set_params(self, params: np.ndarray) -> None:
        """Fold a new flat parameter vector into the plan's weights."""
        fold_biases(params, self.net.sizes, self.args[0])

    def buffers(self, n_rows, n_stages):
        """New stage buffers of n_rows rows for this plan's net, refused
        above kernels.MAX_NET_BYTES before anything is allocated."""
        need = kernels.stage_bytes(self.net.sizes, n_rows)
        if need > kernels.MAX_NET_BYTES:
            raise ValueError(
                f"the net's stage buffers would take {need / 2**30:.3g} GiB "
                f"({n_rows} stage rows for layer sizes {self.net.sizes}), "
                f"above the limit of {kernels.MAX_NET_BYTES / 2**30:g} GiB"
                + ("; grad_mode \"adjoint\" keeps one chunk of steps instead "
                   "of every stage" if self.cached else ""))
        return kernels.StageBuffers(
            self.net.sizes, self.args[1], self.net.time_input, n_rows, n_stages,
        )

    def physical_time(self, t: float) -> float:
        """A time of the plan's grid as the caller knows it: mapped back
        through the net's time map when the net integrates on [0, 1]."""
        tmap = self.net.time_map
        return t if tmap is None else tmap.from_unit(t)


def fixed_rollout(plan: RolloutPlan, z0: np.ndarray):
    """March the plan's tableau over its schedule, keeping what its route
    keeps (RolloutPlan). dopri5 has no schedule before its adaptive pass
    accepts one: the result is that pass's own. Refuses states at the
    plan's times that are not all finite, naming the first such time.
    Returns (out, schedule)."""
    schedule, states = plan.schedule, plan.states
    if schedule is None:
        return _dopri5_core(plan, z0, states)
    sub_t0, sub_h, out_idx = schedule
    buf = plan.stages
    steps = buf.steps if plan.cached else buf.steps[:1] * sub_h.size
    # row i of states is substep i's start state, row n_sub the last state
    out = np.empty((z0.shape[0], plan.times.size)) if states is None else states.T
    cols = out_idx if states is None else np.arange(1, sub_h.size + 1)
    # a blown-up state overflows quietly; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        kernels.rollout_rk(
            *plan.args, z0, plan.tables, steps, buf.zk, buf.zk2, out, cols,
            sub_h, sub_t0,
        )
    if states is not None:
        # the states at the plan's times: the first, and each substep's end
        # that lands on one
        out = out[:, np.flatnonzero(np.append(0, out_idx) >= 0)]
    check_steps(out, plan.times, "integration became non-finite",
                to_time=plan.physical_time)
    return out, schedule


def ode_solve(net: DynamicsNet, z0, times, solver: SolverSpec) -> LatentTrajectory:
    """Integrate dz/dt = net(t, z) from times[0], reporting every time."""
    times = check_times(times)
    z0 = _pad_state(net, z0)
    out, _ = fixed_rollout(RolloutPlan(net, times, solver), z0)
    return LatentTrajectory(out, times)


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


def _recompute_backward(plan: RolloutPlan, schedule, out_bar):
    """The reverse pass from the start states the forward pass kept in
    plan.states: chunk by chunk from the last, one forward run that
    recomputes the chunk's steps from its first saved state, one derivative
    pass over its rows, one adjoint_step per step in reverse, and the
    chunk's parameter gradient at once."""
    sub_t0, sub_h, out_idx = schedule
    buf, states = plan.stages, plan.states
    layers, acts, _, half, _ = plan.args
    bars = out_bar.T
    buf.cot.z[...] = 0.0
    for hi in range(sub_h.size, 0, -kernels.CHUNK):
        lo = max(0, hi - kernels.CHUNK)
        n_rows = (hi - lo) * plan.n_stages
        tabs = plan.tables.lookup(sub_h[lo:hi].tolist())
        # step lo + r takes slot hi - 1 - lo - r: the chunk's last step is
        # swept first, from slot 0
        slots = buf.steps[hi - 1 - lo::-1]
        buf.zk.z[...] = states[lo]
        kernels.march(*plan.args, tabs, sub_t0[lo:hi].tolist(), slots,
                      buf.zk, buf.zk2)
        buf.derivs(0, n_rows)
        for tab, rows, k in zip(tabs[::-1], buf.steps,
                                out_idx[lo:hi].tolist()[::-1]):
            kernels.adjoint_step(layers, acts, half, tab, rows, buf, bars, k)
        kernels.layer_gradients(plan.grads, buf, n_rows)


def _loss_and_grad(plan: RolloutPlan, z0: np.ndarray, target: np.ndarray,
                   params: np.ndarray):
    """(loss, gradient) of the trajectory MSE against `target` from the
    full initial state `z0` at the parameter vector `params`: the gradient
    route's forward pass, then its reverse pass."""
    plan.set_params(params)
    grads = plan.grads
    for g in grads:
        g.fill(0.0)
    out, schedule = fixed_rollout(plan, z0)
    loss, out_bar = _loss_cotangent(plan.net, out, target)
    # overflow surfaces as a non-finite gradient, which training rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if plan.cached:
            _, sub_h, out_idx = schedule
            layers, acts, _, half, _ = plan.args
            kernels.rollout_backward(layers, acts, half, plan.tables, sub_h,
                                     out_idx, plan.stages, out_bar, grads)
        else:
            _recompute_backward(plan, schedule, out_bar)
    return loss, unfold_biases(grads, np.empty(params.size), plan.net.sizes)


def grad(
    net: DynamicsNet,
    z0,
    times,
    target,
    solver: SolverSpec,
    mode: str = "backprop_through_solver",
) -> np.ndarray:
    """Gradient of the trajectory MSE with respect to the parameter vector."""
    if mode not in GRAD_MODES:
        raise ValueError(f"unknown gradient mode {mode!r}; expected {GRAD_MODES}")
    times = check_times(times)
    z0 = _pad_state(net, z0)
    target = _target_array(net, times, target)
    plan = RolloutPlan(net, times, solver, mode)
    return _loss_and_grad(plan, z0, target, net.params)[1]


# ---------------------------------------------------------------------------
# Adaptive Dormand-Prince 4(5)
# ---------------------------------------------------------------------------

# embedded 4th-order error weights (advance minus embedded), FSAL stage last
_DP_E = np.array([
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
])
# dopri5 stage derivatives: six stages and the first-same-as-last one
_DP_K = 7

_SAFE = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2  # hnew/h lower bound
_FAC_MAX = 10.0  # hnew/h upper bound


def _error_norm(err: np.ndarray, y: np.ndarray, ynew: np.ndarray,
                rtol: float, atol: float) -> float:
    sk = atol + rtol * np.maximum(np.abs(y), np.abs(ynew))
    return float(np.sqrt(((err / sk) ** 2).mean()))


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray,
                  span: float, rtol: float, atol: float, f1: np.ndarray) -> float:
    sk = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sk) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sk) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    rhs(t0 + h0, y1, f1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / sk) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


# a blown-up state overflows quietly; the driver reports it as NumericalError
@np.errstate(over="ignore", invalid="ignore")
def _dopri5_core(plan: RolloutPlan, z0: np.ndarray, states=None):
    """Adaptive integration over the plan's times and tolerances.

    A step that would pass the next requested time is shortened to end on
    it. Returns the states at every requested time and the accepted-step
    schedule (t0, h, output column or -1). Given a list `states`, refills
    it with z0 and each accepted step's end state: recomputing step i from
    states[i] through tableau("dopri5") repeats its stages bit for bit.
    """
    times, solver, buf = plan.times, plan.solver, plan.adaptive
    # y = zk[0] and k = zk[1:]; k[0] is the first-same-as-last stage: the
    # last stage of the step before. A trial step, a run of one, leaves its
    # end in the twin array's first row
    zk, rows = buf.zk, buf.steps[0]
    row = rows[0]
    y, k, ynew = zk.z, zk.a[1:], buf.zk2.z
    # the tableau scaled to each trial step in place
    tables = plan.tables
    trial = tables.build([0.0])[0]

    def rhs(t, z, out):
        return kernels.nn_forward(*plan.args, float(t), z, row, out)

    t_end = float(times[-1])
    t = float(times[0])
    np.copyto(y, z0)
    if states is not None:
        states[:] = [z0]
    rhs(t, y, k[0])
    if not np.all(np.isfinite(k[0])):
        raise NumericalError("non-finite dynamics at the initial state")
    out = np.empty((z0.shape[0], times.size))
    out[:, 0] = z0
    next_out = 1

    sched_t0, sched_h, sched_idx = [], [], []

    if times.size == 1:
        return out, (np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))

    h = _initial_step(rhs, t, y, k[0], t_end - t, solver.rtol, solver.atol,
                      np.empty_like(z0))
    facold = 1e-4
    n_steps = 0
    while t < t_end:
        if n_steps >= solver.max_steps:
            raise NumericalError(
                f"dopri5 exceeded max_steps={solver.max_steps} at "
                f"t={plan.physical_time(t):.6g}"
            )
        n_steps += 1
        landing = -1
        target = float(times[next_out])
        if h >= target - t:
            h = target - t
            landing = next_out
        if t + h <= t:
            raise NumericalError(
                f"step size underflow at t={plan.physical_time(t):.6g}")
        tables.rescale(trial, h)
        kernels.march(*plan.args, (trial,), (t,), (rows,), zk, buf.zk2, first=1)
        rhs(t + h, ynew, k[6])
        err_vec = h * (_DP_E @ k)
        if not (np.isfinite(ynew).all() and np.isfinite(err_vec).all()):
            raise NumericalError(
                f"integration produced non-finite state at "
                f"t={plan.physical_time(t):.6g}"
            )
        err = _error_norm(err_vec, y, ynew, solver.rtol, solver.atol)
        fac11 = err ** _EXPO1 if err > 0 else 0.0
        if err <= 1.0:
            # accepted
            facold = max(err, 1e-4)
            sched_t0.append(t)
            sched_h.append(h)
            sched_idx.append(landing)
            if states is not None:
                states.append(ynew.copy())
            if landing >= 0:
                out[:, landing] = ynew
                next_out += 1
                if next_out >= times.size:
                    break
            t = t + h
            y[...] = ynew
            k[0] = k[6]
            fac = fac11 / facold ** _BETA
            fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFE))
            h = h / fac
        else:
            h = h / min(1.0 / _FAC_MIN, fac11 / _SAFE)
    # rounding can leave the endpoint one ulp short of the last output
    if next_out == times.size - 1 and abs(t - t_end) <= time_tolerance(times):
        out[:, next_out] = y
        next_out += 1
    if next_out < times.size:
        raise NumericalError("integration stopped before the final requested time")
    return out, (
        np.asarray(sched_t0, dtype=np.float64),
        np.asarray(sched_h, dtype=np.float64),
        np.asarray(sched_idx, dtype=np.int64),
    )
