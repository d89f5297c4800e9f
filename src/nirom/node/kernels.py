"""Hot numerical kernels for the neural-ODE engine, in plain numpy.

Net arguments. A kernel takes the net as the leading arguments it reads, in
this order: `layers`, a tuple of per-layer augmented weights [W_l | b_l]
(each bias folded in as a last column); `acts`, the per-layer activation
ids; `mid` and `half`, the state scaling vectors, both None for a net
without a ScaleMap; and `tin`, whether the net input leads with the time
feature (network.kernel_args builds them, and network.fold_biases refills
them from a flat parameter vector). The parameter gradient arrives as
`grads`, arrays shaped like `layers` that the kernels add [gW_l | gb_l]
into. No kernel slices or reshapes a flat vector.

Buffer layout. A StageBuffers holds what a run of stages writes, built once
per plan and reused by every call: for each layer l, two stacked arrays
with one row per stored stage,

    x[l]  (n_rows, sizes[l] + 1)  layer l's input, ending in a constant 1;
                                  x[0] is the net input
    s[l]  (n_rows, sizes[l+1])    layer l's pre-activation cotangent

so a layer is one GEMV, W~_l @ x[l], with no bias add, and its parameter
gradient one GEMM, S_l^T X_l = [gW_l | gb_l]. (x[L], the net output, has no
trailing 1 and is written only for a nonlinear output layer, the one case a
derivative is taken from it.) `rows[r]` is a StageRow of views of row r in
each array, made with the buffers, so a stage neither slices nor allocates:
rk_step writes a stage's input state into its row, nn_forward its layer
inputs and nn_vjp its cotangents, each ufunc and np.dot taking its
output array positionally (numpy parses that faster than out=).
`steps[i]` groups the rows of substep i, and `w` holds one weight per row
for layer_gradients.

Extended stage arrays. A step keeps its state and stage derivatives in one
array zk = [z; k_0; ...; k_{s-1}] of n_stages + 1 rows, and its tableau
extended by a leading 1: stage st's input is ea[st, :st+1] @ zk[:st+1] with
ea = [1, h a], and the step's end eb @ zk with eb = [1, h b], one GEMV each
(scaled_tableau builds ts, ea and eb for a whole schedule at once). The
buffers hold two such arrays, zk and zk2, which successive substeps take in
turn, each writing its end into the other's first row, and two arrays
cot and cot2, taken in turn the same way, where a reverse sweep keeps its
cotangents, [zbar; ubar_{s-1}; ...; ubar_0], and the adjoint its costate
stages, [a; vjp_0; ...; vjp_{s-1}], the costate's negation folded into its
tableau.

Adjoint chunks. adjoint_step writes its stage rows into slot j of buffers
holding a chunk of steps, and its row weights into `w`; layer_gradients
then takes the parameter gradient of the whole chunk, one GEMM per layer,
so memory is bounded by the chunk, not by the trajectory.

Scaling. nn_forward applies the ScaleMap in place, (z - mid) / half into the
input row and half * y into the stage derivative, and nn_vjp its transpose,
u * half on the way in and xbar / half on the way out. Without a map all
four are skipped; that changes no bits, being the arithmetic of mid = 0,
half = 1.

Reverse sweeps. StageBuffers.derivs writes the activation derivatives of
stored stages into their s rows, vectorized over the rows of a layer at
once, each taken from the layer's output alone. nn_vjp then turns a stage's
derivatives into its cotangents, and layer_gradients adds
[gW_l | gb_l] += S_l^T diag(w) X_l, one GEMM per layer over stacked rows.

rk_step holds the one forward Runge-Kutta stage loop, generic over explicit
tableaus: the fixed-step rollout, the adjoint step and the adaptive
integrator's trial steps all advance through it, and rollout_backward
reverses it for euler, midpoint, rk4 and the frozen dopri5 schedule.

Call contract (counted by the benchmark's tracer): rk_step calls the
module-level nn_forward once per stage, rollout_backward and adjoint_step
call the module-level nn_vjp once per stage, and the gradient routes call
rollout_backward once per backprop gradient and adjoint_step once per
substep; no other kernel evaluates the net. rollout_rk takes the substep
start times `sub_t0` as positional argument 13.
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
        np.tanh(y, y)


def _act_deriv(y, kind, out):
    """Derivative of a nonlinear activation, from its output y, into out."""
    if kind == ACT_RELU:
        np.greater(y, 0.0, out)
    elif kind == ACT_ELU:
        np.add(y, 1.0, out)
        np.copyto(out, 1.0, where=y > 0.0)
    else:
        np.multiply(y, y, out)
        np.subtract(1.0, out, out)


class StageRow:
    """Views of one stored stage: `x` holds its row of each layer's input
    array (trailing 1 included), `y` the output part of the next one (the
    net output row last), `z` the state part of its input row, and `s` its
    row of each cotangent array, and `u` is where the cotangent of its
    output goes for nn_vjp: the output layer's s row when that layer is
    linear, which saves a copy, else scratch. `xbar` is the cotangent
    scratch it shares with the other rows of its buffers, one per layer
    input and as long as that row; `xin` views the part of each that
    excludes the bias slot, and `zbar` its state part in the net input's."""

    __slots__ = ("x", "y", "z", "s", "u", "xbar", "xin", "zbar")


class StageBuffers:
    """Stacked per-layer stage rows and step scratch (see the module
    docstring) for `n_rows` stored stages of a net with the given layer
    sizes, activation ids and time-input flag, stepped by a tableau of
    `n_stages` stages."""

    def __init__(self, sizes, acts, tin, n_rows, n_stages):
        dim = sizes[-1]
        self.x = [np.empty((n_rows, n + 1)) for n in sizes[:-1]]
        for x in self.x:
            x[:, -1] = 1.0
        self.x.append(np.empty((n_rows, dim)))
        self.s = [np.empty((n_rows, n)) for n in sizes[1:]]
        self.w = np.empty(n_rows)
        self.zk = np.empty((n_stages + 1, dim))
        self.zk2 = np.empty((n_stages + 1, dim))
        self.cot = np.empty((n_stages + 1, dim))
        self.cot2 = np.empty((n_stages + 1, dim))
        xbar = tuple(np.empty(n + 1) for n in sizes[:-1])
        xin = tuple(x[:-1] for x in xbar)
        zbar = xin[0][1:] if tin else xin[0]
        u = np.empty(dim)
        self.rows = []
        for r in range(n_rows):
            row = StageRow()
            row.x = tuple(x[r] for x in self.x[:-1])
            row.y = tuple(x[r, :n] for x, n in zip(self.x[1:], sizes[1:]))
            row.z = row.x[0][1: dim + 1] if tin else row.x[0][:dim]
            row.s = tuple(s[r] for s in self.s)
            row.u = row.s[-1] if acts[-1] == ACT_LINEAR else u
            row.xbar, row.xin, row.zbar = xbar, xin, zbar
            self.rows.append(row)
        # each nonlinear layer's activation, output rows and cotangent rows
        self.nonlinear = tuple(
            (kind, x[:, :n], s)
            for kind, x, n, s in zip(acts, self.x[1:], sizes[1:], self.s)
            if kind != ACT_LINEAR)
        self.steps = [tuple(self.rows[i: i + n_stages])
                      for i in range(0, n_rows - n_stages + 1, n_stages)]

    def derivs(self, lo, hi):
        """Write the activation derivative of every nonlinear layer into
        the s rows of stages lo to hi - 1, for nn_vjp."""
        for kind, y, s in self.nonlinear:
            _act_deriv(y[lo:hi], kind, s[lo:hi])


def scaled_tableau(a_tab, b_tab, c_tab, t0, h):
    """A Butcher tableau scaled to every step of a schedule with start
    times t0 and sizes h: the stage times ts = t0 + h c, and the extended
    tableaus ea = [1, h a] and eb = [1, h b] (see the module docstring)."""
    n, n_stages = h.shape[0], b_tab.shape[0]
    hc = h.reshape(n, 1)
    ts = t0.reshape(n, 1) + c_tab * hc
    ea = np.empty((n, n_stages, n_stages + 1))
    ea[:, :, 0] = 1.0
    np.multiply(hc.reshape(n, 1, 1), a_tab, ea[:, :, 1:])
    eb = np.empty((n, n_stages + 1))
    eb[:, 0] = 1.0
    np.multiply(hc, b_tab, eb[:, 1:])
    return ts, ea, eb


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
        np.subtract(z, mid, row.z)
        np.divide(row.z, half, row.z)
    elif z is not row.z:
        np.copyto(row.z, z)
    top = len(layers) - 1
    for l in range(top):
        y = row.y[l]
        np.dot(layers[l], x[l], y)
        _act(y, acts[l])
    # the output layer writes straight into k; its row gets a copy only
    # when the reverse pass needs it for the activation derivative
    np.dot(layers[top], x[top], k)
    if acts[top] != ACT_LINEAR:
        _act(k, acts[top])
        np.copyto(row.y[top], k)
    if half is not None:
        np.multiply(half, k, k)
    return k


def nn_vjp(layers, acts, half, u, row, out):
    """Pull the cotangent u back through one stored stage into the state
    cotangent `out`, and return it. u may be the row's own slot row.u,
    which saves the copy.

    The row's s must hold its activation derivatives (StageBuffers.derivs);
    each is overwritten by its layer's pre-activation cotangent, for
    layer_gradients.
    """
    s, xbar, xin = row.s, row.xbar, row.xin
    top = len(layers) - 1
    if acts[top] == ACT_LINEAR:
        if half is not None:
            np.multiply(u, half, s[top])
        elif u is not s[top]:
            np.copyto(s[top], u)
    else:
        if half is not None:
            u = np.multiply(u, half, out)
        np.multiply(u, s[top], s[top])
    # s_l @ W~_l also forms the bias slot's sum, which nothing reads
    for l in range(top, 0, -1):
        np.dot(s[l], layers[l], xbar[l])
        if acts[l - 1] == ACT_LINEAR:
            np.copyto(s[l - 1], xin[l])
        else:
            np.multiply(xin[l], s[l - 1], s[l - 1])
    np.dot(s[0], layers[0], xbar[0])
    if half is None:
        np.copyto(out, row.zbar)
        return out
    return np.divide(row.zbar, half, out)


def layer_gradients(grads, buf, n_rows, weights):
    """Add sum_r w_r * outer(s_l, x_l) over the first n_rows stored stages
    into each layer's augmented gradient [gW_l | gb_l]; weights None means
    w_r = 1. Weighting scales the s rows in place."""
    for l, g in enumerate(grads):
        s = buf.s[l][:n_rows]
        if weights is not None:
            np.multiply(s, weights[:n_rows].reshape(n_rows, 1), s)
        g += np.dot(s.T, buf.x[l][:n_rows])


def rk_step(layers, acts, mid, half, tin, ts, ea, eb, zk, first, rows, znew):
    """One explicit RK step from zk[0] over a Butcher tableau extended and
    scaled to the step: stage times ts, ea = [1, h a] and eb = [1, h b]
    (scaled_tableau).

    Fills the stage derivatives zk[1 + first:] (rows below `first` are
    supplied by the caller, e.g. a first-same-as-last stage; rows past the
    tableau are left alone) and stage st's layer rows into rows[st], whose
    state slot takes the stage input. Writes the advanced state into znew,
    which must not be a row of zk, and returns it.
    """
    n_b = eb.shape[0]
    for st in range(first, n_b - 1):
        row = rows[st]
        np.dot(ea[st, :st + 1], zk[:st + 1], row.z)
        nn_forward(layers, acts, mid, half, tin, ts[st], row.z, row, zk[st + 1])
    return np.dot(eb, zk[:n_b], znew)


def rollout_rk(
    layers, acts, mid, half, tin,
    z0, a_tab, b_tab, c_tab, steps, zk, zk_next, out, sub_t0, sub_h, out_idx,
):
    """March an explicit RK tableau over a precomputed substep schedule.

    Substep i writes its stage rows into steps[i] (pass the same rows for
    every substep to keep none); zk and zk_next are extended stage arrays
    that the substeps take in turn. out[:, 0] receives the initial state,
    and out[:, out_idx[i]] the state after substep i where out_idx[i] >= 0.
    Returns out.
    """
    ts, ea, eb = scaled_tableau(a_tab, b_tab, c_tab, sub_t0, sub_h)
    out[:, 0] = z0
    zk[0] = z0
    for i in range(sub_t0.shape[0]):
        rk_step(layers, acts, mid, half, tin, ts[i], ea[i], eb[i], zk, 0,
                steps[i], zk_next[0])
        zk, zk_next = zk_next, zk
        if out_idx[i] >= 0:
            out[:, out_idx[i]] = zk[0]
    return out


def rollout_backward(
    layers, acts, half, a_tab, b_tab, sub_h, out_idx, buf, out_bar, grads,
):
    """Reverse sweep of a cached rollout_rk over buf.steps: cotangents of
    every recorded output column flow back to the parameters, added into
    `grads`."""
    n_sub = sub_h.shape[0]
    n_stages = b_tab.shape[0]
    # ub = [zbar; ubar_{s-1}; ...; ubar_0] holds the cotangent after the
    # step and each stage's state cotangent, latest stage first, so the
    # cotangent of stage st's derivative is one GEMV over the rows filled:
    # kbar_st = rev[st, :s-st] @ ub[:s-st], with
    # rev[st] = [h b_st, h a_{s-1,st}, ..., h a_{st+1,st}]
    later = a_tab[n_stages - np.arange(1, n_stages)].T
    rev = sub_h.reshape(n_sub, 1, 1) * np.concatenate(
        [b_tab.reshape(n_stages, 1), later], axis=1)
    ones = np.ones(n_stages + 1)
    buf.derivs(0, n_sub * n_stages)
    ub, ub_next = buf.cot, buf.cot2
    ub[0] = 0.0
    for i in range(n_sub - 1, -1, -1):
        if out_idx[i] >= 0:
            ub[0] += out_bar[:, out_idx[i]]
        rows = buf.steps[i]
        r = rev[i]
        for st in range(n_stages - 1, -1, -1):
            q = n_stages - st
            row = rows[st]
            np.dot(r[st, :q], ub[:q], row.u)
            nn_vjp(layers, acts, half, row.u, row, ub[q])
        np.dot(ones, ub, ub_next[0])
        ub, ub_next = ub_next, ub
    layer_gradients(grads, buf, n_sub * n_stages, None)


def adjoint_step(layers, acts, mid, half, tin, ts, ea, eb, ca, cb, buf, j):
    """One RK step of the augmented costate system from the state
    buf.zk[0] and the costate buf.cot[0]:

        dz/dt = f(t, z)
        da/dt = -(df/dz)^T a
        dgw/dt = -(df/dw)^T a      (left in chunk slot j)

    ts, ea and eb are the state's tableau scaled to the step h (negative
    when marching back), ca = [1, -h a] and cb = [1, -h b] the costate's,
    with its negation folded in. The state stages never read the costate,
    so z advances first through rk_step into the rows of buf.steps[j], and
    the costate stages then pull back through them. The stage rows keep
    their cotangents and w their weights -h b for layer_gradients. The
    advanced state and costate lead the twin arrays zk2 and cot2, which
    then swap places with zk and cot, so they are buf.zk[0] and
    buf.cot[0] again.
    """
    n_stages = cb.shape[0] - 1
    rows = buf.steps[j]
    zk, ak = buf.zk, buf.cot
    rk_step(layers, acts, mid, half, tin, ts, ea, eb, zk, 0, rows, buf.zk2[0])
    lo = j * n_stages
    buf.derivs(lo, lo + n_stages)
    for st in range(n_stages):
        row = rows[st]
        np.dot(ca[st, :st + 1], ak[:st + 1], row.u)
        nn_vjp(layers, acts, half, row.u, row, ak[st + 1])
    np.dot(cb, ak, buf.cot2[0])
    buf.w[lo: lo + n_stages] = cb[1:]
    buf.zk, buf.zk2 = buf.zk2, zk
    buf.cot, buf.cot2 = buf.cot2, ak
