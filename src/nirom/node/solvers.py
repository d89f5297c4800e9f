"""Explicit Runge-Kutta integration of the latent dynamics net.

Fixed-step methods (euler, midpoint, rk4) sub-step each observation interval
so the solution lands exactly on the requested times. dopri5 is the embedded
4(5) pair with PI step-size control and a quartic dense-output interpolant;
a clamped variant records its accepted-step schedule so training can replay
the exact discrete computation for the reverse sweep.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError, SolverError
from ..pod import LatentTrajectory
from ..snapshot import check_times
from . import kernels
from .network import DynamicsNet, layer_views, pack_meta

FIXED_METHODS = ("euler", "midpoint", "rk4")
METHODS = FIXED_METHODS + ("dopri5",)


@dataclass(frozen=True)
class SolverSpec:
    """Integrator choice: fixed step size for euler/midpoint/rk4, error
    tolerances for dopri5."""

    method: str = "rk4"
    step: float | None = None
    rtol: float = 1e-6
    atol: float = 1e-8
    max_steps: int = 100000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown solver {self.method!r}; expected one of {METHODS}"
            )
        if self.method in FIXED_METHODS:
            if self.step is None or not self.step > 0:
                raise ValueError("fixed-step methods need step > 0")
        else:
            if not (self.rtol > 0 and self.atol > 0):
                raise ValueError("dopri5 needs rtol > 0 and atol > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


def tableau(method: str):
    """Butcher arrays (a, b, c) for the named explicit method.

    For dopri5 this is the 6-stage fifth-order advance used when replaying a
    frozen schedule; error estimation and dense output live in the adaptive
    driver.
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


def build_schedule(times: np.ndarray, step: float):
    """Substep plan covering every observation interval.

    Each interval is divided into ceil(span/step) equal substeps so the march
    lands exactly on the observation times. Returns (sub_t0, sub_h, out_idx)
    where out_idx[i] is the output column recorded after substep i (or -1).
    """
    spans = times[1:] - times[:-1]
    nsub = np.maximum(1, np.ceil(spans / step - 1e-9).astype(np.int64))
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


def fixed_rollout(net: DynamicsNet, z0, times, solver: SolverSpec,
                  want_cache: bool = False):
    """March a fixed tableau over the schedule; optionally keep stage caches.

    Returns (out, schedule, stage_cache); the cache is None when want_cache
    is false.
    """
    a, b, c = tableau(solver.method)
    if solver.method in FIXED_METHODS:
        sub_t0, sub_h, out_idx = build_schedule(times, solver.step)
    else:
        sub_t0, sub_h, out_idx = dopri5_schedule(net, z0, times, solver)
    if sub_t0.size > solver.max_steps:
        raise SolverError(
            f"schedule needs {sub_t0.size} steps, max_steps is {solver.max_steps}"
        )
    meta = pack_meta(net)
    stage_cache = None
    if want_cache:
        stage_cache = np.empty((sub_t0.size, b.shape[0], int(meta[4][-1])))
    # a blown-up state overflows quietly; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernels.rollout_rk(
            layer_views(net.params, meta), *meta, z0, a, b, c,
            sub_t0, sub_h, out_idx, times.size, stage_cache,
        )
    if not np.all(np.isfinite(out)):
        raise NumericalError("integration produced non-finite state")
    return out, (sub_t0, sub_h, out_idx), stage_cache


def ode_solve(net: DynamicsNet, z0, times, solver: SolverSpec) -> LatentTrajectory:
    """Integrate dz/dt = net(t, z) from times[0], reporting every time."""
    times = check_times(times)
    z0 = _pad_state(net, z0)
    if solver.method in FIXED_METHODS:
        out, _, _ = fixed_rollout(net, z0, times, solver, want_cache=False)
        return LatentTrajectory(out, times)
    out = _dopri5_dense(net, z0, times, solver)
    return LatentTrajectory(out, times)


# ---------------------------------------------------------------------------
# Adaptive Dormand-Prince 4(5)
# ---------------------------------------------------------------------------

_DP_A, _DP_B, _DP_C = tableau("dopri5")
# embedded 4th-order error weights (advance minus embedded), FSAL stage last
_DP_E = np.array([
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
])
# dense-output weights for the quartic interpolant
_DP_D = np.array([
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
])

_SAFE = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2  # hnew/h lower bound
_FAC_MAX = 10.0  # hnew/h upper bound


class _NetRhs:
    """Plain-callable wrapper around the forward kernel."""

    def __init__(self, net: DynamicsNet):
        self.meta = pack_meta(net)
        self.layers = layer_views(net.params, self.meta)
        self.scratch = np.empty(int(self.meta[4][-1]))

    def __call__(self, t: float, z: np.ndarray) -> np.ndarray:
        return kernels.nn_forward(
            self.layers, *self.meta, float(t), z, self.scratch
        )


def _error_norm(err: np.ndarray, y: np.ndarray, ynew: np.ndarray,
                rtol: float, atol: float) -> float:
    sk = atol + rtol * np.maximum(np.abs(y), np.abs(ynew))
    return float(np.sqrt(np.mean((err / sk) ** 2)))


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray,
                  span: float, rtol: float, atol: float) -> float:
    sk = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sk) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sk) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / sk) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _dense_eval(y, ynew, k1, k7, k, h, theta):
    """Hairer quartic interpolant inside one accepted step."""
    ydiff = ynew - y
    bspl = h * k1 - ydiff
    r1 = y
    r2 = ydiff
    r3 = bspl
    r4 = ydiff - h * k7 - bspl
    r5 = h * (_DP_D @ k)
    t1 = 1.0 - theta
    return r1 + theta * (r2 + t1 * (r3 + theta * (r4 + t1 * r5)))


# a blown-up state overflows quietly; the driver reports it as NumericalError
@np.errstate(over="ignore", invalid="ignore")
def _dopri5_core(net, z0, times, solver, clamp):
    """Shared adaptive driver.

    clamp=False: free steps, dense output at requested interior times.
    clamp=True: steps shortened to land exactly on every requested time;
    returns the accepted (t0, h) schedule for gradient replay.
    """
    rhs = _NetRhs(net)
    t_end = float(times[-1])
    t = float(times[0])
    y = z0.copy()
    f0 = rhs(t, y)
    if not np.all(np.isfinite(f0)):
        raise NumericalError("non-finite dynamics at the initial state")
    out = np.empty((z0.shape[0], times.size))
    out[:, 0] = z0
    next_out = 1

    sched_t0, sched_h, sched_idx = [], [], []

    if times.size == 1:
        return out, (np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))

    h = _initial_step(rhs, t, y, f0, t_end - t, solver.rtol, solver.atol)
    caches = np.empty((_DP_B.size, rhs.scratch.size))
    facold = 1e-4
    n_steps = 0
    while t < t_end:
        if n_steps >= solver.max_steps:
            raise SolverError(
                f"dopri5 exceeded max_steps={solver.max_steps} at t={t:.6g}"
            )
        n_steps += 1
        h = min(h, t_end - t)
        landing = -1
        if clamp:
            target = float(times[next_out])
            if h >= target - t:
                h = target - t
                landing = next_out
        if t + h <= t:
            raise SolverError(f"step size underflow at t={t:.6g}")
        # trial step: stage 0 is the previous step's last (FSAL) stage
        k = np.empty((7, y.shape[0]))
        k[0] = f0
        ynew = kernels.rk_step(
            rhs.layers, *rhs.meta, t, h, y, _DP_A, _DP_B, _DP_C, 1, k, caches,
        )
        k[6] = rhs(t + h, ynew)
        err_vec = h * (_DP_E @ k)
        if not (np.all(np.isfinite(ynew)) and np.all(np.isfinite(err_vec))):
            raise NumericalError(
                f"integration produced non-finite state at t={t:.6g}"
            )
        err = _error_norm(err_vec, y, ynew, solver.rtol, solver.atol)
        fac11 = err ** _EXPO1 if err > 0 else 0.0
        if err <= 1.0:
            # accepted
            facold = max(err, 1e-4)
            if not clamp:
                while next_out < times.size and times[next_out] <= t + h:
                    theta = (times[next_out] - t) / h
                    if theta >= 1.0 - 1e-12:
                        out[:, next_out] = ynew
                    else:
                        out[:, next_out] = _dense_eval(
                            y, ynew, k[0], k[6], k, h, theta
                        )
                    next_out += 1
            else:
                sched_t0.append(t)
                sched_h.append(h)
                sched_idx.append(landing)
                if landing >= 0:
                    out[:, landing] = ynew
                    next_out += 1
                    if next_out >= times.size:
                        t = t + h
                        break
            t = t + h
            y = ynew
            f0 = k[6]
            fac = fac11 / facold ** _BETA
            fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFE))
            h = h / fac
        else:
            h = h / min(1.0 / _FAC_MIN, fac11 / _SAFE)
    # rounding can leave the endpoint one ulp short of the last output
    if next_out == times.size - 1 and abs(t - t_end) <= 1e-9 * max(1.0, abs(t_end)):
        out[:, next_out] = y
        next_out += 1
    if next_out < times.size:
        raise SolverError("integration stopped before the final requested time")
    return out, (
        np.asarray(sched_t0, dtype=np.float64),
        np.asarray(sched_h, dtype=np.float64),
        np.asarray(sched_idx, dtype=np.int64),
    )


def _dopri5_dense(net, z0, times, solver) -> np.ndarray:
    out, _ = _dopri5_core(net, z0, times, solver, clamp=False)
    return out


def dopri5_schedule(net, z0, times, solver):
    """Adaptive pass whose accepted steps land exactly on the requested
    times; returns the frozen (sub_t0, sub_h, out_idx) schedule."""
    _, schedule = _dopri5_core(net, z0, times, solver, clamp=True)
    return schedule
