"""Hot numerical kernels for the neural-ODE engine, written once in the
numpy subset that numba compiles; the backend flag decides whether they run
jitted or interpreted.

Network layout: parameters live in one flat vector, packed W0, b0, W1, b1,
... with row-major weights. Evaluation caches every post-activation layer in
a single flat buffer so the reverse pass needs no recomputation; each
activation's derivative is recoverable from its output value alone.

rk_step holds the one forward Runge-Kutta stage loop, generic over explicit
tableaus: the fixed-step rollout, the adjoint step and the adaptive
integrator's trial steps all advance through it, and rollout_backward
reverses it for euler, midpoint, rk4 and the frozen dopri5 schedule.
"""

import numpy as np

from ..accel import maybe_njit

ACT_LINEAR = 0
ACT_RELU = 1
ACT_ELU = 2
ACT_TANH = 3


@maybe_njit
def _act(x, kind):
    if kind == ACT_LINEAR:
        return x
    if kind == ACT_RELU:
        return np.maximum(x, 0.0)
    if kind == ACT_ELU:
        # clip the exp argument: np.where evaluates both branches
        return np.where(x > 0.0, x, np.exp(np.minimum(x, 0.0)) - 1.0)
    return np.tanh(x)


@maybe_njit
def _act_deriv(y, kind):
    """Derivative of the activation expressed through its output y."""
    if kind == ACT_LINEAR:
        return np.ones_like(y)
    if kind == ACT_RELU:
        return np.where(y > 0.0, 1.0, 0.0)
    if kind == ACT_ELU:
        return np.where(y > 0.0, 1.0, y + 1.0)
    return 1.0 - y * y


@maybe_njit
def nn_forward(params, sizes, acts, w_off, b_off, c_off, mid, half, tin, t, z, cache):
    """Right-hand side net(t, z) with the input/output scaling folded in.

    Writes every layer's post-activation values into `cache` (the input
    layer included) and returns the unscaled state derivative.
    """
    d_in = sizes[0]
    if tin == 1:
        cache[0] = t
        cache[1:d_in] = (z - mid) / half
    else:
        cache[0:d_in] = (z - mid) / half
    n_layers = acts.shape[0]
    for l in range(n_layers):
        rows = sizes[l + 1]
        cols = sizes[l]
        w = params[w_off[l]: w_off[l] + rows * cols].reshape(rows, cols)
        b = params[b_off[l]: b_off[l] + rows]
        x = cache[c_off[l]: c_off[l + 1]]
        cache[c_off[l + 1]: c_off[l + 2]] = _act(np.dot(w, x) + b, acts[l])
    return half * cache[c_off[n_layers]: c_off[n_layers + 1]]


@maybe_njit
def nn_vjp(params, sizes, acts, w_off, b_off, c_off, mid, half, tin, u, cache, gw):
    """Pull the cotangent u back through one cached evaluation.

    Accumulates the parameter gradient into gw and returns the state and
    time cotangents.
    """
    n_layers = acts.shape[0]
    xbar = u * half
    for l in range(n_layers - 1, -1, -1):
        rows = sizes[l + 1]
        cols = sizes[l]
        y = cache[c_off[l + 1]: c_off[l + 2]]
        s = xbar * _act_deriv(y, acts[l])
        x = cache[c_off[l]: c_off[l + 1]]
        gw[w_off[l]: w_off[l] + rows * cols] += (
            s.reshape(rows, 1) * x.reshape(1, cols)
        ).ravel()
        gw[b_off[l]: b_off[l] + rows] += s
        w = params[w_off[l]: w_off[l] + rows * cols].reshape(rows, cols)
        xbar = np.dot(w.T, s)
    if tin == 1:
        return xbar[1:] / half, xbar[0]
    return xbar / half, 0.0


@maybe_njit
def rk_step(
    params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
    t0, h, z, a_tab, b_tab, c_tab, first, k, caches,
):
    """One explicit RK step of size h from (t0, z) over a Butcher tableau.

    Fills the stage derivatives k[first:] (rows below `first` are supplied
    by the caller, e.g. a first-same-as-last stage) and stage st's layer
    cache into caches[st]. Returns the advanced state.
    """
    for st in range(first, b_tab.shape[0]):
        u = z.copy()
        for j in range(st):
            if a_tab[st, j] != 0.0:
                u += (h * a_tab[st, j]) * k[j]
        k[st] = nn_forward(
            params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
            t0 + c_tab[st] * h, u, caches[st],
        )
    znew = z.copy()
    for st in range(b_tab.shape[0]):
        if b_tab[st] != 0.0:
            znew += (h * b_tab[st]) * k[st]
    return znew


@maybe_njit
def rollout_rk(
    params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
    z0, a_tab, b_tab, c_tab, sub_t0, sub_h, out_idx, n_out,
    want_cache, stage_cache,
):
    """March an explicit RK tableau over a precomputed substep schedule.

    out_idx[i] >= 0 marks the output column to record after substep i; the
    first column is always the initial state. With want_cache the stage
    layer caches are stored for the reverse sweep.
    """
    n_stages = b_tab.shape[0]
    out = np.empty((z0.shape[0], n_out))
    out[:, 0] = z0
    z = z0.copy()
    k = np.empty((n_stages, z0.shape[0]))
    scratch = np.empty((n_stages, c_off[c_off.shape[0] - 1]))
    for i in range(sub_t0.shape[0]):
        caches = stage_cache[i] if want_cache == 1 else scratch
        z = rk_step(
            params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
            sub_t0[i], sub_h[i], z, a_tab, b_tab, c_tab, 0, k, caches,
        )
        if out_idx[i] >= 0:
            out[:, out_idx[i]] = z
    return out


@maybe_njit
def rollout_backward(
    params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
    a_tab, b_tab, c_tab, sub_t0, sub_h, out_idx, stage_cache, out_bar,
):
    """Reverse sweep of rollout_rk: cotangents of every recorded output
    column flow back to the parameters and the initial state."""
    dim = out_bar.shape[0]
    n_stages = b_tab.shape[0]
    gw = np.zeros(params.shape[0])
    zbar = np.zeros(dim)
    kbar = np.empty((n_stages, dim))
    for i in range(sub_t0.shape[0] - 1, -1, -1):
        if out_idx[i] >= 0:
            zbar = zbar + out_bar[:, out_idx[i]]
        h = sub_h[i]
        for st in range(n_stages):
            kbar[st] = (h * b_tab[st]) * zbar
        for st in range(n_stages - 1, -1, -1):
            ubar, _ = nn_vjp(
                params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
                kbar[st], stage_cache[i, st], gw,
            )
            zbar = zbar + ubar
            for j in range(st):
                if a_tab[st, j] != 0.0:
                    kbar[j] += (h * a_tab[st, j]) * ubar
    zbar = zbar + out_bar[:, 0]
    return gw, zbar


@maybe_njit
def adjoint_step(
    params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
    t0, h, z, a, gw, a_tab, b_tab, c_tab,
):
    """One RK step (h may be negative) of the augmented costate system:

        dz/dt = f(t, z)
        da/dt = -(df/dz)^T a
        dgw/dt = -(df/dw)^T a      (accumulated into gw)

    The state stages never read the costate, so z advances first through
    rk_step and the costate stages then pull back through its cached layers.
    Returns the updated (z, a).
    """
    dim = z.shape[0]
    n_stages = b_tab.shape[0]
    n_params = params.shape[0]
    kz = np.empty((n_stages, dim))
    ka = np.empty((n_stages, dim))
    kg = np.empty((n_stages, n_params))
    caches = np.empty((n_stages, c_off[c_off.shape[0] - 1]))
    znew = rk_step(
        params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
        t0, h, z, a_tab, b_tab, c_tab, 0, kz, caches,
    )
    for st in range(n_stages):
        ua = a.copy()
        for j in range(st):
            if a_tab[st, j] != 0.0:
                ua += (h * a_tab[st, j]) * ka[j]
        gtmp = np.zeros(n_params)
        zb, _ = nn_vjp(
            params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
            ua, caches[st], gtmp,
        )
        ka[st] = -zb
        kg[st] = -gtmp
    anew = a.copy()
    for st in range(n_stages):
        if b_tab[st] != 0.0:
            anew += (h * b_tab[st]) * ka[st]
            gw += (h * b_tab[st]) * kg[st]
    return znew, anew
