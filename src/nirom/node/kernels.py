"""Hot numerical kernels for the neural-ODE engine, in plain numpy.

Net arguments. A kernel takes the net as the leading arguments it reads, in
this order: `layers`, a tuple of per-layer (W_l, b_l) views of a flat
parameter vector; `acts`, the per-layer activation ids; `mid` and `half`,
the state scaling vectors, both None for a net without a ScaleMap; and
`tin`, whether the net input leads with the time feature
(network.kernel_args builds them). The parameter gradient arrives as
`grads`, the same views of a flat gradient vector, which the kernels add
into. No kernel slices or reshapes a flat vector.

Buffer layout. A StageBuffers holds what a run of stages writes, built once
per plan and reused by every call: for each layer l, two stacked arrays
with one row per stored stage,

    x[l]  (n_rows, sizes[l])    layer l's input; x[0] is the net input
    s[l]  (n_rows, sizes[l+1])  layer l's pre-activation cotangent

(x[L], the net output, is written only for a nonlinear output layer, the
one case a derivative is taken from it), and the step scratch: k for the
stage derivatives, kbar for their cotangents (the costate stages in
adjoint_step), and tmp, v and znew. `rows[r]` is a StageRow of views of
row r in each array, made with the buffers, so a stage neither slices nor
allocates: rk_step writes a stage's input state into its row, nn_forward
its layer inputs and nn_vjp its cotangents, all with out=. `steps[i]`
groups the rows of substep i.

Scaling. nn_forward applies the ScaleMap in place, (z - mid) / half into the
input row and half * y into the stage derivative, and nn_vjp its transpose,
u * half on the way in and xbar / half on the way out. Without a map all
four are skipped; that changes no bits, being the arithmetic of mid = 0,
half = 1.

Reverse sweeps. StageBuffers.derivs writes the activation derivatives of a
sweep's stored stages into their s rows, vectorized over all the rows of a
layer at once, each taken from the layer's output alone. nn_vjp then turns
a stage's derivatives into its cotangents, and _layer_gradients adds
gW_l += S_l^T diag(w) X_l and gb_l += w S_l, one GEMM per layer over the
stacked rows.

rk_step holds the one forward Runge-Kutta stage loop, generic over explicit
tableaus: the fixed-step rollout, the adjoint step and the adaptive
integrator's trial steps all advance through it, and rollout_backward
reverses it for euler, midpoint, rk4 and the frozen dopri5 schedule.

Call contract (counted by the benchmark's tracer): rk_step calls the
module-level nn_forward once per stage, and rollout_backward and
adjoint_step call the module-level nn_vjp once per stage; no other kernel
evaluates the net. rollout_rk takes the substep start times `sub_t0` as
positional argument 13.
"""

import numpy as np

ACT_LINEAR = 0
ACT_RELU = 1
ACT_ELU = 2
ACT_TANH = 3


def _act(y, kind):
    """Apply a nonlinear activation to y in place."""
    if kind == ACT_RELU:
        np.maximum(y, 0.0, out=y)
    elif kind == ACT_ELU:
        np.copyto(y, np.exp(np.minimum(y, 0.0)) - 1.0, where=y <= 0.0)
    elif kind == ACT_TANH:
        np.tanh(y, out=y)


def _act_deriv(y, kind, out):
    """Derivative of a nonlinear activation, from its output y, into out."""
    if kind == ACT_RELU:
        np.greater(y, 0.0, out=out)
    elif kind == ACT_ELU:
        np.add(y, 1.0, out=out)
        np.copyto(out, 1.0, where=y > 0.0)
    else:
        np.multiply(y, y, out=out)
        np.subtract(1.0, out, out=out)


class StageRow:
    """Views of one stored stage: `x` and `s` hold its row of each layer's
    stacked array and `z` the state part of its input row; `xbar`, `zbar`
    and `ubar` are the cotangent scratch it shares with the other rows of
    its buffers."""

    __slots__ = ("x", "z", "s", "xbar", "zbar", "ubar")


class StageBuffers:
    """Stacked per-layer stage rows and step scratch (see the module
    docstring) for `n_rows` stored stages of a net with the given layer
    sizes, activation ids and time-input flag, stepped by a tableau of
    `n_stages` stages."""

    def __init__(self, sizes, acts, tin, n_rows, n_stages):
        dim = sizes[-1]
        self.acts = acts
        self.x = [np.empty((n_rows, n)) for n in sizes]
        self.s = [np.empty((n_rows, n)) for n in sizes[1:]]
        self.k = np.empty((n_stages, dim))
        self.kbar = np.empty((n_stages, dim))
        self.tmp = np.empty((n_stages, dim))
        self.v = np.empty(dim)
        self.znew = np.empty(dim)
        xbar = tuple(np.empty(n) for n in sizes[:-1])
        zbar = xbar[0][1:] if tin else xbar[0]
        ubar = np.empty(dim)
        self.rows = []
        for r in range(n_rows):
            row = StageRow()
            row.x = tuple(x[r] for x in self.x)
            row.z = row.x[0][1:] if tin else row.x[0]
            row.s = tuple(s[r] for s in self.s)
            row.xbar, row.zbar, row.ubar = xbar, zbar, ubar
            self.rows.append(row)
        self.steps = [tuple(self.rows[i: i + n_stages])
                      for i in range(0, n_rows - n_stages + 1, n_stages)]

    def derivs(self, n_rows):
        """Write the activation derivative of every nonlinear layer into
        the s rows of the first n_rows stages, for nn_vjp."""
        for l, kind in enumerate(self.acts):
            if kind != ACT_LINEAR:
                _act_deriv(self.x[l + 1][:n_rows], kind, self.s[l][:n_rows])


def nn_forward(layers, acts, mid, half, tin, t, z, row, k):
    """Right-hand side net(t, z) into k, with the scaling applied.

    Writes every layer's input into the stage row (the net input included;
    z may be the row's own state slot row.z, which saves the copy) and
    returns k.
    """
    x = row.x
    if tin:
        x[0][0] = t
    if mid is not None:
        np.subtract(z, mid, out=row.z)
        np.divide(row.z, half, out=row.z)
    elif z is not row.z:
        np.copyto(row.z, z)
    top = len(layers) - 1
    for l in range(top):
        w, b = layers[l]
        y = x[l + 1]
        np.dot(w, x[l], out=y)
        np.add(y, b, out=y)
        _act(y, acts[l])
    # the output layer writes straight into k; x[L] gets a copy only when
    # the reverse pass needs it for the activation derivative
    w, b = layers[top]
    np.dot(w, x[top], out=k)
    np.add(k, b, out=k)
    if acts[top] != ACT_LINEAR:
        _act(k, acts[top])
        np.copyto(x[top + 1], k)
    if half is not None:
        np.multiply(half, k, out=k)
    return k


def nn_vjp(layers, acts, half, u, row):
    """Pull the cotangent u back through one stored stage.

    The row's s must hold its activation derivatives (StageBuffers.derivs);
    each is overwritten by its layer's pre-activation cotangent, for
    _layer_gradients. Returns the state cotangent, in scratch that the next
    call overwrites.
    """
    s, xbar = row.s, row.xbar
    top = len(layers) - 1
    if acts[top] == ACT_LINEAR:
        if half is None:
            np.copyto(s[top], u)
        else:
            np.multiply(u, half, out=s[top])
    else:
        if half is not None:
            u = np.multiply(u, half, out=row.ubar)
        np.multiply(u, s[top], out=s[top])
    for l in range(top, 0, -1):
        if acts[l - 1] == ACT_LINEAR:
            np.dot(s[l], layers[l][0], out=s[l - 1])
        else:
            np.multiply(np.dot(s[l], layers[l][0], out=xbar[l]), s[l - 1],
                        out=s[l - 1])
    np.dot(s[0], layers[0][0], out=xbar[0])
    if half is None:
        return row.zbar
    return np.divide(row.zbar, half, out=row.ubar)


def _layer_gradients(grads, buf, n_rows, weights):
    """Add sum_r w_r * (outer(s_l, x_l), s_l) over the first n_rows stored
    stages into each layer's gradient; weights None means w_r = 1."""
    for l, (g_w, g_b) in enumerate(grads):
        s = buf.s[l][:n_rows]
        if weights is not None:
            s = s * weights.reshape(n_rows, 1)
        g_w += np.dot(s.T, buf.x[l][:n_rows])
        g_b += s.sum(axis=0)


def rk_step(layers, acts, mid, half, tin, ts, ha, hb, z, first, k, rows, znew):
    """One explicit RK step from z over a Butcher tableau scaled to the
    step: stage times ts = t0 + h c, and ha = h a, hb = h b.

    Fills the stage derivatives k[first:] (rows below `first` are supplied
    by the caller, e.g. a first-same-as-last stage; rows past the tableau
    are left alone) and stage st's layer rows into rows[st], whose state
    slot takes the stage input. Writes the advanced state into znew, which
    must not be z, and returns it.
    """
    n_b = hb.shape[0]
    for st in range(first, n_b):
        row = rows[st]
        u = row.z
        if st:
            np.dot(ha[st, :st], k[:st], out=u)
            np.add(z, u, out=u)
        else:
            # z plus the empty stage sum: adding 0.0, unlike a copy, turns
            # -0.0 into +0.0 as the sum does
            np.add(z, 0.0, out=u)
        nn_forward(layers, acts, mid, half, tin, ts[st], u, row, k[st])
    np.dot(hb, k[:n_b], out=znew)
    return np.add(z, znew, out=znew)


def rollout_rk(
    layers, acts, mid, half, tin,
    z0, a_tab, b_tab, c_tab, steps, k, znew, out, sub_t0, sub_h, out_idx,
):
    """March an explicit RK tableau over a precomputed substep schedule.

    Substep i writes its stage rows into steps[i] (pass the same rows for
    every substep to keep none); k and znew are step scratch. out[:, 0]
    receives the initial state, and out[:, out_idx[i]] the state after
    substep i where out_idx[i] >= 0. Returns out.
    """
    # the tableau scaled to every substep at once
    h = sub_h.reshape(sub_h.shape[0], 1)
    ts = sub_t0.reshape(h.shape) + c_tab * h
    ha = h.reshape(h.shape[0], 1, 1) * a_tab
    hb = h * b_tab
    out[:, 0] = z0
    z = z0.copy()
    for i in range(sub_t0.shape[0]):
        rk_step(layers, acts, mid, half, tin, ts[i], ha[i], hb[i], z, 0, k,
                steps[i], znew)
        z, znew = znew, z
        if out_idx[i] >= 0:
            out[:, out_idx[i]] = z
    return out


def rollout_backward(
    layers, acts, half, a_tab, b_tab, sub_h, out_idx, buf, out_bar, grads,
):
    """Reverse sweep of a cached rollout_rk over buf.steps: cotangents of
    every recorded output column flow back to the parameters, added into
    `grads`."""
    n_sub = sub_h.shape[0]
    n_stages = b_tab.shape[0]
    # h-scaled tableau columns of every substep, so a scaled row times a
    # cotangent is an outer product
    ha_col = sub_h.reshape(n_sub, 1, 1, 1) * a_tab.reshape(n_stages, n_stages, 1)
    hb_col = sub_h.reshape(n_sub, 1, 1) * b_tab.reshape(n_stages, 1)
    buf.derivs(n_sub * n_stages)
    kbar, tmp = buf.kbar, buf.tmp
    kbar_heads = [kbar[:st] for st in range(n_stages)]
    tmp_heads = [tmp[:st] for st in range(n_stages)]
    zbar = np.zeros(out_bar.shape[0])
    for i in range(n_sub - 1, -1, -1):
        if out_idx[i] >= 0:
            zbar += out_bar[:, out_idx[i]]
        np.multiply(hb_col[i], zbar, out=kbar)
        rows = buf.steps[i]
        ha = ha_col[i]
        for st in range(n_stages - 1, -1, -1):
            ubar = nn_vjp(layers, acts, half, kbar[st], rows[st])
            zbar += ubar
            if st:
                np.multiply(ha[st, :st], ubar, out=tmp_heads[st])
                np.add(kbar_heads[st], tmp_heads[st], out=kbar_heads[st])
    _layer_gradients(grads, buf, n_sub * n_stages, None)


def adjoint_step(
    layers, acts, mid, half, tin,
    t0, h, z, a, grads, a_tab, b_tab, c_tab, buf,
):
    """One RK step (h may be negative) of the augmented costate system:

        dz/dt = f(t, z)
        da/dt = -(df/dz)^T a
        dgw/dt = -(df/dw)^T a      (added into grads)

    The state stages never read the costate, so z advances first through
    rk_step into buf's first rows and the costate stages then pull back
    through them. Updates z and a in place.
    """
    n_stages = b_tab.shape[0]
    ka, v = buf.kbar, buf.v
    ha, hb = h * a_tab, h * b_tab
    rk_step(layers, acts, mid, half, tin, t0 + c_tab * h, ha, hb, z, 0,
            buf.k, buf.rows, buf.znew)
    buf.derivs(n_stages)
    for st in range(n_stages):
        np.dot(ha[st, :st], ka[:st], out=v)
        np.add(a, v, out=v)
        np.negative(nn_vjp(layers, acts, half, v, buf.rows[st]), out=ka[st])
    _layer_gradients(grads, buf, n_stages, -h * b_tab)
    np.copyto(z, buf.znew)
    np.dot(hb, ka[:n_stages], out=v)
    np.add(a, v, out=a)
