"""Hot numerical kernels for the neural-ODE engine, in plain numpy.

Network layout: parameters live in one flat vector, packed W0, b0, W1, b1,
... with row-major weights. Callers turn it once per rollout, gradient or
adjoint pass into `layers`, a tuple of per-layer (W_l, b_l) views
(network.layer_views), and pass that tuple where a kernel takes the net; the
same kind of views over the flat gradient vector, `grads`, receive the
parameter gradient in place. No kernel slices or reshapes the flat vector.
Each kernel also takes the architecture tuple of network.pack_meta (sizes,
acts, w_off, b_off, c_off, mid, half, tin) right after `layers`.

Evaluation caches every post-activation layer in one flat row, layer l's
input at c_off[l]:c_off[l+1] (the input layer included), so the reverse pass
needs no recomputation; each activation's derivative is recoverable from
its output value alone. The reverse pass writes layer l's pre-activation
cotangent s_l into an `sbar` row of the same layout, at
c_off[l+1]:c_off[l+2], beside the cached output it belongs to.

The parameter gradient is deferred: nn_vjp only fills sbar, and once a
sweep has stored the cache and sbar rows of all its stages, _layer_gradients
adds gW_l += S_l^T diag(w) X_l and gb_l += w S_l, one GEMM per layer over
the stacked rows (X_l the inputs, S_l the cotangents, w per-row weights).

rk_step holds the one forward Runge-Kutta stage loop, generic over explicit
tableaus: the fixed-step rollout, the adjoint step and the adaptive
integrator's trial steps all advance through it, and rollout_backward
reverses it for euler, midpoint, rk4 and the frozen dopri5 schedule.

Call contract (counted by the benchmark's tracer):
rk_step calls the module-level nn_forward once per stage, and
rollout_backward and adjoint_step call the module-level nn_vjp once per
stage; no other kernel evaluates the net.
"""

import numpy as np

ACT_LINEAR = 0
ACT_RELU = 1
ACT_ELU = 2
ACT_TANH = 3


def _act(x, kind):
    if kind == ACT_LINEAR:
        return x
    if kind == ACT_RELU:
        return np.maximum(x, 0.0)
    if kind == ACT_ELU:
        # clip the exp argument: np.where evaluates both branches
        return np.where(x > 0.0, x, np.exp(np.minimum(x, 0.0)) - 1.0)
    return np.tanh(x)


def _act_deriv(y, kind):
    """Derivative of a nonlinear activation expressed through its output y."""
    if kind == ACT_RELU:
        return np.where(y > 0.0, 1.0, 0.0)
    if kind == ACT_ELU:
        return np.where(y > 0.0, 1.0, y + 1.0)
    return 1.0 - y * y


def nn_forward(layers, sizes, acts, w_off, b_off, c_off, mid, half, tin, t, z, cache):
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
        w, b = layers[l]
        x = cache[c_off[l]: c_off[l + 1]]
        cache[c_off[l + 1]: c_off[l + 2]] = _act(np.dot(w, x) + b, acts[l])
    return half * cache[c_off[n_layers]: c_off[n_layers + 1]]


def nn_vjp(layers, sizes, acts, w_off, b_off, c_off, mid, half, tin, u, cache, sbar):
    """Pull the cotangent u back through one cached evaluation.

    Writes each layer's pre-activation cotangent into `sbar` (cache layout)
    for _layer_gradients and returns the state cotangent.
    """
    n_layers = acts.shape[0]
    xbar = u * half
    for l in range(n_layers - 1, -1, -1):
        s = xbar
        if acts[l] != ACT_LINEAR:
            s = xbar * _act_deriv(cache[c_off[l + 1]: c_off[l + 2]], acts[l])
        sbar[c_off[l + 1]: c_off[l + 2]] = s
        xbar = np.dot(s, layers[l][0])
    if tin == 1:
        return xbar[1:] / half
    return xbar / half


def _layer_gradients(grads, c_off, caches, sbars, weights):
    """Add sum_r weights[r] * (outer(s_l, x_l), s_l) over the rows r of the
    stacked layer caches and their sbar rows into each layer's gradient.
    The input-layer slot of an sbar row is never written, so never read."""
    w_col = weights.reshape(weights.shape[0], 1)
    for l in range(len(grads)):
        g_w, g_b = grads[l]
        s = sbars[:, c_off[l + 1]: c_off[l + 2]] * w_col
        g_w += np.dot(s.T, caches[:, c_off[l]: c_off[l + 1]])
        g_b += s.sum(axis=0)


def rk_step(
    layers, sizes, acts, w_off, b_off, c_off, mid, half, tin,
    t0, h, z, a_tab, b_tab, c_tab, first, k, caches,
):
    """One explicit RK step of size h from (t0, z) over a Butcher tableau.

    Fills the stage derivatives k[first:] (rows below `first` are supplied
    by the caller, e.g. a first-same-as-last stage; rows past the tableau
    are left alone) and stage st's layer cache into caches[st]. Returns the
    advanced state.
    """
    n_b = b_tab.shape[0]
    ha = h * a_tab
    for st in range(first, n_b):
        u = z + np.dot(ha[st, :st], k[:st])
        k[st] = nn_forward(
            layers, sizes, acts, w_off, b_off, c_off, mid, half, tin,
            t0 + c_tab[st] * h, u, caches[st],
        )
    return z + np.dot(h * b_tab, k[:n_b])


def rollout_rk(
    layers, sizes, acts, w_off, b_off, c_off, mid, half, tin,
    z0, a_tab, b_tab, c_tab, sub_t0, sub_h, out_idx, n_out, stage_cache,
):
    """March an explicit RK tableau over a precomputed substep schedule.

    out_idx[i] >= 0 marks the output column to record after substep i; the
    first column is always the initial state. Unless stage_cache is None,
    substep i's stage layer caches are stored in stage_cache[i] for the
    reverse sweep.
    """
    n_stages = b_tab.shape[0]
    out = np.empty((z0.shape[0], n_out))
    out[:, 0] = z0
    z = z0.copy()
    k = np.empty((n_stages, z0.shape[0]))
    scratch = np.empty((n_stages, c_off[c_off.shape[0] - 1]))
    for i in range(sub_t0.shape[0]):
        caches = scratch if stage_cache is None else stage_cache[i]
        z = rk_step(
            layers, sizes, acts, w_off, b_off, c_off, mid, half, tin,
            sub_t0[i], sub_h[i], z, a_tab, b_tab, c_tab, 0, k, caches,
        )
        if out_idx[i] >= 0:
            out[:, out_idx[i]] = z
    return out


def rollout_backward(
    layers, sizes, acts, w_off, b_off, c_off, mid, half, tin,
    a_tab, b_tab, c_tab, sub_t0, sub_h, out_idx, stage_cache, out_bar, grads,
):
    """Reverse sweep of rollout_rk: cotangents of every recorded output
    column flow back to the parameters, added into `grads`."""
    n_sub = sub_t0.shape[0]
    n_stages = b_tab.shape[0]
    # tableau columns, so a scaled row times a cotangent is an outer product
    a_col = a_tab.reshape(n_stages, n_stages, 1)
    b_col = b_tab.reshape(n_stages, 1)
    sbar = np.empty_like(stage_cache)
    zbar = np.zeros(out_bar.shape[0])
    for i in range(n_sub - 1, -1, -1):
        if out_idx[i] >= 0:
            zbar = zbar + out_bar[:, out_idx[i]]
        h = sub_h[i]
        kbar = (h * b_col) * zbar
        for st in range(n_stages - 1, -1, -1):
            ubar = nn_vjp(
                layers, sizes, acts, w_off, b_off, c_off, mid, half, tin,
                kbar[st], stage_cache[i, st], sbar[i, st],
            )
            zbar = zbar + ubar
            kbar[:st] += (h * a_col[st, :st]) * ubar
    rows = n_sub * n_stages
    width = stage_cache.shape[2]
    _layer_gradients(
        grads, c_off, stage_cache.reshape(rows, width),
        sbar.reshape(rows, width), np.ones(rows),
    )


def adjoint_step(
    layers, sizes, acts, w_off, b_off, c_off, mid, half, tin,
    t0, h, z, a, grads, a_tab, b_tab, c_tab,
):
    """One RK step (h may be negative) of the augmented costate system:

        dz/dt = f(t, z)
        da/dt = -(df/dz)^T a
        dgw/dt = -(df/dw)^T a      (added into grads)

    The state stages never read the costate, so z advances first through
    rk_step and the costate stages then pull back through its cached layers.
    Returns the updated (z, a).
    """
    n_stages = b_tab.shape[0]
    width = c_off[c_off.shape[0] - 1]
    kz = np.empty((n_stages, z.shape[0]))
    ka = np.empty((n_stages, z.shape[0]))
    caches = np.empty((n_stages, width))
    sbar = np.empty((n_stages, width))
    znew = rk_step(
        layers, sizes, acts, w_off, b_off, c_off, mid, half, tin,
        t0, h, z, a_tab, b_tab, c_tab, 0, kz, caches,
    )
    ha = h * a_tab
    for st in range(n_stages):
        ua = a + np.dot(ha[st, :st], ka[:st])
        ka[st] = -nn_vjp(
            layers, sizes, acts, w_off, b_off, c_off, mid, half, tin,
            ua, caches[st], sbar[st],
        )
    _layer_gradients(grads, c_off, caches, sbar, -h * b_tab)
    return znew, a + np.dot(h * b_tab, ka)
