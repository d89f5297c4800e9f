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
each array, made with the buffers, so nn_forward and nn_vjp neither slice
nor allocate (rk_step and step_backward still slice one tableau row and one
prefix of a stage array per stage): rk_step writes a stage's input state
into its row, nn_forward its layer inputs and nn_vjp its cotangents.
`steps[i]` groups the rows of substep i.

Call forms. Every call made once per stage or step goes straight to
numpy's C code: ufuncs and the ndarray method `a.dot(b, out)`, which take
their output positionally (numpy parses that faster than out=; np.maximum
and np.minimum deprecate it), and `a[...] = b` for a copy; the adaptive
loop in solvers likewise calls the `.all()` and `.mean()` methods. np.dot,
np.copyto, np.all and np.mean first pass through numpy's Python-level
__array_function__ dispatcher, which is about a third of a small GEMV: on a
2-core x86-64 host with numpy 2.4, a 64x4 GEMV took 1.62 us through np.dot
and 1.15 us through W.dot(x, out), and a short-vector copy 0.58 us through
np.copyto and 0.21 us as a[...] = b. The arithmetic, and so every bit, is
the same.

Extended stage arrays. A step keeps its state and stage derivatives in one
array zk = [z; k_0; ...; k_{s-1}] of n_stages + 1 rows, and its tableau
extended by a leading 1: stage st's input is ea[st, :st+1] @ zk[:st+1] with
ea = [1, h a], and the step's end eb @ zk with eb = [1, h b], one GEMV each
(scaled_tableau builds ts, ea and eb for a whole schedule at once). The
buffers hold two such arrays, zk and zk2, which successive substeps take in
turn, each writing its end into the other's first row, and two arrays
cot and cot2, taken in turn the same way, where a reverse sweep keeps a
step's cotangents, [zbar; ubar_{s-1}; ...; ubar_0].

Scaling. nn_forward applies the ScaleMap in place, (z - mid) / half into the
input row and half * y into the stage derivative, and nn_vjp its transpose,
u * half on the way in and xbar / half on the way out. Without a map all
four are skipped; that changes no bits, being the arithmetic of mid = 0,
half = 1.

Reverse sweeps. StageBuffers.derivs writes the activation derivatives of
stored stages into their s rows, vectorized over the rows of a layer at
once, each taken from the layer's output alone. step_backward then pulls a
step's cotangent back through its stages, one nn_vjp each, which turns the
derivatives into cotangents, and layer_gradients adds
[gW_l | gb_l] += S_l^T X_l, one GEMM per layer over stacked rows.
rollout_backward runs step_backward over every cached step of a rollout.
adjoint_step keeps no cache: it recomputes one step from its saved start
state into slot j of buffers that hold a chunk of steps and runs
step_backward on it, so the caller takes the parameter gradient once per
chunk and memory is bounded by the chunk, not by the trajectory.

rk_step holds the one forward Runge-Kutta stage loop, generic over explicit
tableaus: the fixed-step rollout, the recomputed steps of adjoint_step and
the adaptive integrator's trial steps all advance through it, and
step_backward reverses it for euler, midpoint, rk4 and dopri5's accepted
steps.

Call contract (counted by the benchmark's tracer): rk_step calls the
module-level nn_forward once per stage, step_backward calls the
module-level nn_vjp once per stage, and a fixed-step gradient calls
rollout_backward once for backprop, or rollout_rk once and then
adjoint_step once per substep for the adjoint. A dopri5 gradient, in
either mode, calls neither rollout_rk nor rollout_backward: adjoint_step
once per accepted step. No other kernel evaluates the net. rollout_rk
takes the substep start times `sub_t0` as positional argument 13.
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
        np.subtract(np.exp(np.minimum(y, 0.0)), 1.0, out=y, where=y <= 0.0)
    elif kind == ACT_TANH:
        np.tanh(y, y)


def _act_deriv(y, kind, out):
    """Derivative of a nonlinear activation, from its output y, into out."""
    if kind == ACT_RELU:
        np.greater(y, 0.0, out)
    elif kind == ACT_ELU:
        # y + 1 for y <= 0 and 1 above: min(y + 1, 1), as y + 1 >= 1 there
        np.add(y, 1.0, out)
        np.minimum(out, 1.0, out=out)
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
        # sums a step's cotangent rows, one GEMV (step_backward)
        self.ones = np.ones(n_stages + 1)
        self.zk = np.empty((n_stages + 1, dim))
        self.zk2 = np.empty((n_stages + 1, dim))
        self.cot = np.empty((n_stages + 1, dim))
        self.cot2 = np.empty((n_stages + 1, dim))
        xbar = tuple(np.empty(n + 1) for n in sizes[:-1])
        xin = tuple(x[:-1] for x in xbar)
        zbar = xin[0][1:] if tin else xin[0]
        u = np.empty(dim)
        linear_top = acts[-1] == ACT_LINEAR
        # iterating a stacked array yields its row views, cheaper than
        # indexing it once per row
        ys = [x[:, :n] for x, n in zip(self.x[1:], sizes[1:])]
        zs = self.x[0][:, 1: dim + 1] if tin else self.x[0][:, :dim]
        self.rows = []
        for x, y, z, s in zip(zip(*self.x[:-1]), zip(*ys), zs, zip(*self.s)):
            row = StageRow()
            row.x, row.y, row.z, row.s = x, y, z, s
            row.u = s[-1] if linear_top else u
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
        row.z[...] = z
    top = len(layers) - 1
    for l in range(top):
        y = row.y[l]
        layers[l].dot(x[l], y)
        _act(y, acts[l])
    # the output layer writes straight into k; its row gets a copy only
    # when the reverse pass needs it for the activation derivative
    layers[top].dot(x[top], k)
    if acts[top] != ACT_LINEAR:
        _act(k, acts[top])
        row.y[top][...] = k
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
            s[top][...] = u
    else:
        if half is not None:
            u = np.multiply(u, half, out)
        np.multiply(u, s[top], s[top])
    # s_l @ W~_l also forms the bias slot's sum, which nothing reads
    for l in range(top, 0, -1):
        s[l].dot(layers[l], xbar[l])
        if acts[l - 1] == ACT_LINEAR:
            s[l - 1][...] = xin[l]
        else:
            np.multiply(xin[l], s[l - 1], s[l - 1])
    s[0].dot(layers[0], xbar[0])
    if half is None:
        out[...] = row.zbar
        return out
    return np.divide(row.zbar, half, out)


def layer_gradients(grads, buf, n_rows):
    """Add sum_r outer(s_l, x_l) over the first n_rows stored stages into
    each layer's augmented gradient [gW_l | gb_l]."""
    for l, g in enumerate(grads):
        g += buf.s[l][:n_rows].T.dot(buf.x[l][:n_rows])


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
        ea[st, :st + 1].dot(zk[:st + 1], row.z)
        nn_forward(layers, acts, mid, half, tin, ts[st], row.z, row, zk[st + 1])
    return eb.dot(zk[:n_b], znew)


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
    # column k of out as a row of out.T, indexed by a Python int
    cols, idx = out.T, out_idx.tolist()
    cols[0] = z0
    zk[0] = z0
    for i in range(sub_t0.shape[0]):
        rk_step(layers, acts, mid, half, tin, ts[i], ea[i], eb[i], zk, 0,
                steps[i], zk_next[0])
        zk, zk_next = zk_next, zk
        if idx[i] >= 0:
            cols[idx[i]] = zk[0]
    return out


def reverse_tableau(a_tab, b_tab, sub_h):
    """The tableau step_backward reads, scaled to every step of a schedule
    with sizes sub_h: rev[i, st] = [h b_st, h a_{s-1,st}, ..., h a_{st+1,st}]
    for h = sub_h[i], zero-padded to n_stages entries."""
    n_stages = b_tab.shape[0]
    later = a_tab[n_stages - np.arange(1, n_stages)].T
    return sub_h.reshape(sub_h.shape[0], 1, 1) * np.concatenate(
        [b_tab.reshape(n_stages, 1), later], axis=1)


def step_backward(layers, acts, half, rev, rows, buf):
    """Pull the cotangent buf.cot[0] after one step back through the step's
    stage rows, whose s rows must hold their activation derivatives
    (StageBuffers.derivs); rev is the step's reverse_tableau.

    buf.cot = [zbar; ubar_{s-1}; ...; ubar_0] gathers the cotangent after
    the step and each stage's state cotangent, latest stage first, so the
    cotangent of stage st's derivative is one GEMV over the rows filled,
    kbar_st = rev[st, :s-st] @ cot[:s-st], and the start state's cotangent
    is their sum. That sum leads the twin array cot2, which then swaps
    places with cot, so it is buf.cot[0] again.
    """
    n_stages = len(rows)
    ub = buf.cot
    for st in range(n_stages - 1, -1, -1):
        q = n_stages - st
        row = rows[st]
        rev[st, :q].dot(ub[:q], row.u)
        nn_vjp(layers, acts, half, row.u, row, ub[q])
    buf.ones.dot(ub, buf.cot2[0])
    buf.cot, buf.cot2 = buf.cot2, ub


def rollout_backward(
    layers, acts, half, a_tab, b_tab, sub_h, out_idx, buf, out_bar, grads,
):
    """Reverse sweep of a cached rollout_rk over buf.steps: cotangents of
    every recorded output column flow back to the parameters, added into
    `grads`."""
    n_sub = sub_h.shape[0]
    n_stages = b_tab.shape[0]
    rev = reverse_tableau(a_tab, b_tab, sub_h)
    buf.derivs(0, n_sub * n_stages)
    buf.cot[0] = 0.0
    bars, idx = out_bar.T, out_idx.tolist()
    for i in range(n_sub - 1, -1, -1):
        if idx[i] >= 0:
            buf.cot[0] += bars[idx[i]]
        step_backward(layers, acts, half, rev[i], buf.steps[i], buf)
    layer_gradients(grads, buf, n_sub * n_stages)


def adjoint_step(layers, acts, mid, half, tin, ts, ea, eb, rev, z, buf, j):
    """Recompute one substep from its start state z into the stage rows of
    chunk slot j, buf.steps[j], and pull the cotangent buf.cot[0] after it
    back to z's (step_backward), leaving that in buf.cot[0]; the stage rows
    keep their cotangents for layer_gradients.

    ts, ea and eb are the step's scaled_tableau and rev its
    reverse_tableau. The recomputed end state is left in buf.zk2[0].
    """
    rows = buf.steps[j]
    n_stages = len(rows)
    buf.zk[0] = z
    rk_step(layers, acts, mid, half, tin, ts, ea, eb, buf.zk, 0, rows, buf.zk2[0])
    lo = j * n_stages
    buf.derivs(lo, lo + n_stages)
    step_backward(layers, acts, half, rev, rows, buf)
