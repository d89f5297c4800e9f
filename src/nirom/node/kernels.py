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
gradient one GEMM, S_l^T X_l = [gW_l | gb_l]. The output layer is linear
(network.DynamicsNet refuses any other), so the net output is written only
into the stage derivative and no derivative is taken from it. `rows[r]` is
a StageRow of views of row r in each array: the forward loop writes a
stage's input state into its row, nn_forward its layer inputs and nn_vjp
its cotangents. `steps[i]` groups the rows of step slot i.

Stage arrays. A step keeps its state and stage derivatives in one array
zk = [z; k_0; ...; k_{s-1}] of s + 1 rows, and its tableau extended by a
leading 1: stage st's input is ea[st, :st+1] @ zk[:st+1] with ea = [1, h a],
and the step's end eb @ zk with eb = [1, h b], one GEMV each. The buffers
hold two such StageArrays, zk and zk2, which successive steps take in turn,
each writing its end into the other's first row, and two more, cot and
cot2, taken in turn the same way, where the reverse loop keeps a step's
cotangents, [zbar; ubar_{s-1}; ...; ubar_0]: the cotangent of stage st's
derivative is rev[st, :s-st] @ cot[:s-st] with rev[st] = [h b_st,
h a_{s-1,st}, ..., h a_{st+1,st}], and the start state's cotangent is the
sum of the rows.

Views built once. Neither loop slices an array per stage or step. A
StageArray builds, with its buffers, each prefix a stage reads and the row
it writes, paired in the order the stages take them: forward stage st
reads zk[:st+1] and writes k_st into zk[st+1], and the reverse stage
taken k-th (st = s-1-k) reads cot[:k+1] and writes into cot[k+1], so one
tuple of pairs serves both loops. The table of one step size h is built
with its views, in loop order: a StepTable holds ea, eb and rev scaled to
h, each forward stage's row ea[st, :st+1] paired with its node c_st, and
the tuple of rev rows the reverse stages read.

Tables per distinct step size. StepTables scales the tableau once for each
distinct step size a run takes, and keeps the tables for later runs: the
step sizes of a fixed-step schedule differ only in their last bits and
take a few distinct values (9 to 15 over a few hundred rk4 substeps of the
benchmark's workloads), changing between most consecutive substeps, so a
table held per value is built once per plan, where one rescaled whenever
h changes would be rebuilt at most steps. The forward march and the
reverse sweep of a step read the one table of its size. It holds at most
CHUNK tables: when a run brings more, it drops them all and builds the
run's own, so a schedule whose every step size differs (dopri5's accepted
steps, a non-uniform grid) costs a table per step and no memory that grows
with its length. An adaptive trial step rescales one table in place
instead, reverse rows included. Each entry is h times the unscaled one,
elementwise, so a table's bits do not depend on which sizes were scaled
with it; a stage's time is t0 + c_st h, in Python floats, which are IEEE
doubles like numpy's.

The loops. march holds the one forward stage loop: it advances a run of
steps over their tables, stage rows and the two stage arrays. rollout_rk
marches its whole schedule through it, CHUNK steps per table lookup; the
adjoint recomputes each chunk of steps through it from the chunk's first
saved state (the same operations on the same inputs, so each step starts
from its saved state bit for bit); an adaptive trial step is a run of one.
_sweep holds the one reverse stage loop, one nn_vjp per stage, which turns
the activation derivatives that StageBuffers.derivs wrote into the s rows
into cotangents; layer_gradients then adds [gW_l | gb_l] += S_l^T X_l, one
GEMM per layer over the stacked rows. rollout_backward sweeps every cached
step of a rollout, adjoint_step one step that the adjoint's chunk pass
recomputed.

Scaling. nn_forward applies the ScaleMap in place, (z - mid) / half into the
input row and half * y into the stage derivative, and nn_vjp its transpose,
u * half on the way in and xbar / half on the way out. Without a map all
four are skipped; that changes no bits, being the arithmetic of mid = 0,
half = 1.

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

Call contract (counted by the benchmark's tracer): march calls the
module-level nn_forward once per stage, and _sweep the module-level nn_vjp
once per stage. solvers.fixed_rollout makes every forward pass, a
gradient's included: over a fixed-step schedule it calls rollout_rk once,
the adjoint's pass too. A fixed-step gradient then calls rollout_backward
once for backprop, or adjoint_step once per substep for the adjoint. A
dopri5 gradient, in either mode, calls neither rollout_rk nor
rollout_backward: adjoint_step once per accepted step. No other kernel
evaluates the net. rollout_rk takes the substep start times `sub_t0` as
positional argument 13.
"""

from itertools import repeat

import numpy as np

ACT_LINEAR = 0
ACT_RELU = 1
ACT_ELU = 2
ACT_TANH = 3

#: steps per table lookup of the rollouts, and the most tables a StepTables
#: holds; the adjoint recomputes its steps in chunks of as many, each kept
#: for one deferred parameter GEMM per layer. A step stores every layer's
#: input and cotangent for each of its stages: about 4.3 KiB for an rk4 step
#: of a 2-64-2 net, so a chunk is about 140 KiB there and about 1 MiB for a
#: 512-wide preset, while the GEMMs' dispatch is spread over 32 steps
CHUNK = 32


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
    array (trailing 1 included), `y` the part of x[l + 1] that hidden layer
    l writes, `z` the state part of its input row, and `s` its row of each
    cotangent array; `u` is the output layer's s row, where the cotangent
    of the net output goes for nn_vjp. `xbar` is the cotangent scratch it
    shares with the other rows of its buffers, one per layer input and as
    long as that row; `xin` views the part of each that excludes the bias
    slot, and `zbar` its state part in the net input's."""

    __slots__ = ("x", "y", "z", "s", "u", "xbar", "xin", "zbar")


class StageArray:
    """An extended stage array `a` of n_rows rows (module docstring) and the
    views the loops read: `z` its first row, `pre[q]` its first q rows, and
    `stages[q]` the pair (a[:q+1], a[q+1]) that the stage taken q-th reads
    and writes."""

    __slots__ = ("a", "z", "pre", "stages")

    def __init__(self, n_rows, dim):
        self.a = a = np.empty((n_rows, dim))
        rows = tuple(a)
        self.z = rows[0]
        self.pre = tuple(a[:q] for q in range(n_rows + 1))
        self.stages = tuple(zip(self.pre[1:], rows[1:]))


#: the most bytes a net's weights (network.build_net) or a plan's stage
#: buffers (stage_bytes) may take; both grow with the net's widths, and
#: backprop's buffers with its schedule
MAX_NET_BYTES = 1 << 30


def stage_bytes(sizes, n_rows):
    """Bytes of the layer arrays of StageBuffers(sizes, ..., n_rows, ...)."""
    widths = sum(n + 1 for n in sizes[:-1]) + sum(sizes[1:])
    return 8 * n_rows * widths


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
        self.s = [np.empty((n_rows, n)) for n in sizes[1:]]
        # sums a step's cotangent rows, one GEMV (_sweep)
        self.ones = np.ones(n_stages + 1)
        self.zk, self.zk2, self.cot, self.cot2 = (
            StageArray(n_stages + 1, dim) for _ in range(4))
        xbar = tuple(np.empty(n + 1) for n in sizes[:-1])
        xin = tuple(x[:-1] for x in xbar)
        zbar = xin[0][1:] if tin else xin[0]
        # iterating a stacked array yields its row views, cheaper than
        # indexing it once per row; a net without a hidden layer has no y
        ys = [x[:, :-1] for x in self.x[1:]]
        zs = self.x[0][:, 1: dim + 1] if tin else self.x[0][:, :dim]
        self.rows = []
        for x, y, z, s in zip(zip(*self.x), zip(*ys) if ys else repeat(()),
                              zs, zip(*self.s)):
            row = StageRow()
            row.x, row.y, row.z, row.s, row.u = x, y, z, s, s[-1]
            row.xbar, row.xin, row.zbar = xbar, xin, zbar
            self.rows.append(row)
        # each nonlinear hidden layer's activation, output and cotangent rows
        self.nonlinear = tuple(
            (kind, y, s) for kind, y, s in zip(acts, ys, self.s)
            if kind != ACT_LINEAR)
        self.steps = [tuple(self.rows[i: i + n_stages])
                      for i in range(0, n_rows - n_stages + 1, n_stages)]

    def derivs(self, lo, hi):
        """Write the activation derivative of every nonlinear layer into
        the s rows of stages lo to hi - 1, for nn_vjp."""
        for kind, y, s in self.nonlinear:
            _act_deriv(y[lo:hi], kind, s[lo:hi])


class StepTable:
    """A tableau scaled to one step size `h` (module docstring): `fwd[st]`
    pairs forward stage st's row ea[st, :st+1] with its node c_st, `eb` is
    the end row and `n` its length, `back` holds the rows of rev in the
    order the reverse loop takes the stages, and `scaled` views the parts
    of ea, eb and rev that StepTables.rescale writes."""

    __slots__ = ("h", "fwd", "eb", "n", "back", "scaled")

    def __init__(self, h, fwd, eb, back, scaled):
        self.h, self.fwd, self.eb, self.back = h, fwd, eb, back
        self.scaled = scaled
        self.n = eb.shape[0]


class StepTables:
    """The StepTable of each distinct step size of an explicit Butcher
    tableau (a, b, c), built on first use and held for later runs, at most
    CHUNK at a time (module docstring)."""

    def __init__(self, a_tab, b_tab, c_tab):
        n_stages = b_tab.size
        self.n_stages = n_stages
        self.a, self.b, self.c = a_tab, b_tab, c_tab.tolist()
        # row st: [b_st, a_{s-1,st}, ..., a_{st+1,st}], zero-padded
        self.rev = np.concatenate(
            [b_tab.reshape(n_stages, 1), a_tab[n_stages - np.arange(1, n_stages)].T],
            axis=1)
        self.held = {}

    def lookup(self, hs):
        """The tables of the step sizes hs, a list of at most CHUNK floats,
        building those not held; when they would take the held ones past
        CHUNK, it holds this run's alone."""
        held = self.held
        new = [h for h in dict.fromkeys(hs) if h not in held]
        if new:
            if len(held) + len(new) > CHUNK:
                held.clear()
                new = list(dict.fromkeys(hs))
            held.update(zip(new, self.build(new)))
        return [held[h] for h in hs]

    def build(self, hs):
        """New tables for the step sizes hs, held by no one.

        Iterating a stacked array yields its row views, cheaper than
        indexing it once per row: it takes each stage's rows of all the
        tables at once, then deals them out table by table."""
        n_h, n_stages = len(hs), self.n_stages
        h = np.array(hs).reshape(n_h, 1, 1)
        ea = np.empty((n_h, n_stages, n_stages + 1))
        ea[:, :, 0] = 1.0
        np.multiply(h, self.a, ea[:, :, 1:])
        eb = np.empty((n_h, n_stages + 1))
        eb[:, 0] = 1.0
        np.multiply(h.reshape(n_h, 1), self.b, eb[:, 1:])
        rev = np.multiply(h, self.rev)
        fwd = zip(*(ea[:, st, :st + 1] for st in range(n_stages)))
        back = zip(*(rev[:, st, :n_stages - st]
                     for st in range(n_stages - 1, -1, -1)))
        return [StepTable(*parts) for parts in zip(
            hs, (tuple(zip(f, self.c)) for f in fwd), eb, back,
            zip(ea[:, :, 1:], eb[:, 1:], rev))]

    def rescale(self, tab, h):
        """Scale one of this tableau's tables to the step size h in place,
        as build would."""
        ha, hb, hrev = tab.scaled
        np.multiply(h, self.a, ha)
        np.multiply(h, self.b, hb)
        np.multiply(h, self.rev, hrev)
        tab.h = h


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
    # the linear output layer writes straight into k
    layers[top].dot(x[top], k)
    if half is not None:
        np.multiply(half, k, k)
    return k


def nn_vjp(layers, acts, half, row, out):
    """Pull the cotangent of the net output, written into row.u (the
    linear output layer's s row), back through one stored stage into the
    state cotangent `out`, and return it.

    The row's other s rows must hold their activation derivatives
    (StageBuffers.derivs); each is overwritten by its layer's pre-activation
    cotangent, for layer_gradients.
    """
    s, xbar, xin = row.s, row.xbar, row.xin
    top = len(layers) - 1
    if half is not None:
        np.multiply(s[top], half, s[top])
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


def march(layers, acts, mid, half, tin, tabs, t0s, steps, zk, zk2,
          out=None, out_idx=None, first=0):
    """Advance a run of explicit RK steps from the state zk.z: step i starts
    at time t0s[i], is scaled by the StepTable tabs[i] and writes its stage
    rows into steps[i], whose state slots take the stage inputs.

    Stages below `first` are supplied by the caller in zk (e.g. a
    first-same-as-last stage; stage rows past the tableau are left alone).
    zk and zk2 are StageArrays that the steps take in turn; out[k] receives
    the state after step i where out_idx[i] = k >= 0. Returns the two
    arrays in the order the run left them: its end state is the first's z.
    """
    for tab, t0, rows, k in zip(tabs, t0s, steps, out_idx or repeat(-1)):
        h = tab.h
        for (ea, c), row, (pre, slot) in zip(tab.fwd[first:], rows[first:],
                                             zk.stages[first:]):
            ea.dot(pre, row.z)
            nn_forward(layers, acts, mid, half, tin, t0 + c * h, row.z, row, slot)
        tab.eb.dot(zk.pre[tab.n], zk2.z)
        zk, zk2 = zk2, zk
        if k >= 0:
            out[k] = zk.z
    return zk, zk2


def rollout_rk(
    layers, acts, mid, half, tin,
    z0, tables, steps, zk, zk2, out, out_idx, sub_h, sub_t0,
):
    """March the StepTables' tableau over a precomputed substep schedule.

    Substep i writes its stage rows into steps[i] (pass the same rows for
    every substep to keep none); zk and zk2 are the StageArrays that the
    substeps take in turn. out[:, 0] receives the initial state, and
    out[:, out_idx[i]] the state after substep i where out_idx[i] >= 0.
    Returns out.
    """
    # column k of out as a row of out.T, indexed by a Python int
    cols = out.T
    cols[0] = z0
    zk.z[...] = z0
    for lo in range(0, sub_t0.shape[0], CHUNK):
        hi = lo + CHUNK
        zk, zk2 = march(layers, acts, mid, half, tin,
                        tables.lookup(sub_h[lo:hi].tolist()),
                        sub_t0[lo:hi].tolist(), steps[lo:hi], zk, zk2,
                        cols, out_idx[lo:hi].tolist())
    return out


def _sweep(layers, acts, half, tabs, steps, buf, bars, bar_idx):
    """Pull the cotangent buf.cot.z after a run of steps back through them,
    latest first: step i is scaled by the reverse rows of the StepTable
    tabs[i] and holds its stage rows in steps[i], whose s rows must hold
    their activation derivatives (StageBuffers.derivs). Before step i,
    bars[k] is added to the cotangent where bar_idx[i] = k >= 0.

    Each step leads its twin array with its start state's cotangent, then
    the two swap places, so the result is buf.cot.z again.
    """
    cot, cot2, ones = buf.cot, buf.cot2, buf.ones
    for tab, rows, k in zip(tabs, steps, bar_idx):
        if k >= 0:
            cot.z += bars[k]
        for rev, row, (pre, ub) in zip(tab.back, reversed(rows), cot.stages):
            rev.dot(pre, row.u)
            nn_vjp(layers, acts, half, row, ub)
        ones.dot(cot.a, cot2.z)
        cot, cot2 = cot2, cot
    buf.cot, buf.cot2 = cot, cot2


def rollout_backward(
    layers, acts, half, tables, sub_h, out_idx, buf, out_bar, grads,
):
    """Reverse sweep of a cached rollout_rk over buf.steps: cotangents of
    every recorded output column flow back to the parameters, added into
    `grads`."""
    n_sub = sub_h.shape[0]
    n_rows = n_sub * tables.n_stages
    buf.derivs(0, n_rows)
    buf.cot.z[...] = 0.0
    bars = out_bar.T
    for hi in range(n_sub, 0, -CHUNK):
        lo = max(0, hi - CHUNK)
        _sweep(layers, acts, half,
               tables.lookup(sub_h[lo:hi].tolist()[::-1]),
               buf.steps[lo:hi][::-1],
               buf, bars, out_idx[lo:hi].tolist()[::-1])
    layer_gradients(grads, buf, n_rows)


def adjoint_step(layers, acts, half, tab, rows, buf, bars, k):
    """Sweep one step that the adjoint's chunk pass recomputed into the
    stage rows `rows`, scaled by the StepTable `tab`: add bars[k] to
    the cotangent buf.cot.z after it when k >= 0, and pull that back to its
    start state's, left in buf.cot.z. The rows' s must hold their activation
    derivatives, and keep their cotangents for layer_gradients."""
    _sweep(layers, acts, half, (tab,), (rows,), buf, bars, (k,))
