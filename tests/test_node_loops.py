"""The NODE stage loops against the per-step kernels they replaced.

kernels.march and the reverse loop behind rollout_backward and adjoint_step
march runs of steps over views built once and over tableaus scaled once
per distinct step size. The reference below is the per-step form they
replaced, kept here verbatim in its arithmetic: the whole schedule's
scaled and reverse tableaus built up front, one tableau row and one stage
array prefix sliced per stage, and an adjoint that recomputes each step
from its own saved state just before sweeping it. Both must give the same
bits on every route, over a grid whose step sizes differ only in their
last bits and over one whose every step size differs.
"""

import tracemalloc

import numpy as np
import pytest

from nirom.node import ScaleMap, SolverSpec, build_net, ode_solve
from nirom.node import kernels
from nirom.node.network import kernel_args, unfold_biases
from nirom.node.solvers import (GRAD_MODES, RolloutPlan, _dopri5_core,
                                _loss_and_grad, _loss_cotangent, _pad_state,
                                build_schedule, fixed_rollout, tableau)

# ---------------------------------------------------------------------------
# the per-step reference
# ---------------------------------------------------------------------------


def ref_scaled_tableau(a_tab, b_tab, c_tab, t0, h):
    """Stage times ts = t0 + h c and ea = [1, h a], eb = [1, h b] for
    every step of a schedule at once."""
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


def ref_reverse_tableau(a_tab, b_tab, sub_h):
    """rev[i, st] = h [b_st, a_{s-1,st}, ..., a_{st+1,st}], zero-padded."""
    n_stages = b_tab.shape[0]
    later = a_tab[n_stages - np.arange(1, n_stages)].T
    return sub_h.reshape(sub_h.shape[0], 1, 1) * np.concatenate(
        [b_tab.reshape(n_stages, 1), later], axis=1)


def ref_rk_step(layers, acts, mid, half, tin, ts, ea, eb, zk, first, rows, znew):
    """One step from zk[0], slicing a tableau row and a prefix per stage."""
    n_b = eb.shape[0]
    for st in range(first, n_b - 1):
        row = rows[st]
        ea[st, :st + 1].dot(zk[:st + 1], row.z)
        kernels.nn_forward(layers, acts, mid, half, tin, ts[st], row.z, row,
                           zk[st + 1])
    return eb.dot(zk[:n_b], znew)


class RefArrays:
    """The plain stage and cotangent arrays the reference steps take in
    turn."""

    def __init__(self, n_stages, dim):
        self.zk, self.zk2, self.cot, self.cot2 = (
            np.empty((n_stages + 1, dim)) for _ in range(4))
        self.ones = np.ones(n_stages + 1)


def ref_step_backward(layers, acts, half, rev, rows, sc):
    """Pull sc.cot[0] back through one step's rows into sc.cot[0]."""
    n_stages = len(rows)
    ub = sc.cot
    for st in range(n_stages - 1, -1, -1):
        q = n_stages - st
        row = rows[st]
        rev[st, :q].dot(ub[:q], row.u)
        kernels.nn_vjp(layers, acts, half, row, ub[q])
    sc.ones.dot(ub, sc.cot2[0])
    sc.cot, sc.cot2 = sc.cot2, ub


def ref_adjoint_step(args, ts, ea, eb, rev, z, buf, j, sc):
    """Recompute one step from its saved state z into chunk slot j, take
    its derivatives, and sweep it back."""
    layers, acts, _, half, _ = args
    rows = buf.steps[j]
    n_stages = len(rows)
    sc.zk[0] = z
    ref_rk_step(*args, ts, ea, eb, sc.zk, 0, rows, sc.zk2[0])
    buf.derivs(j * n_stages, (j + 1) * n_stages)
    ref_step_backward(layers, acts, half, rev, rows, sc)


def ref_rollout(args, z0, ts, ea, eb, steps, sc, states):
    """Chain ref_rk_step over a schedule from z0 into the rows of states."""
    states[0] = z0
    sc.zk[0] = z0
    zk, zk2 = sc.zk, sc.zk2
    for i in range(len(steps)):
        ref_rk_step(*args, ts[i], ea[i], eb[i], zk, 0, steps[i], zk2[0])
        zk, zk2 = zk2, zk
        states[i + 1] = zk[0]
    return states


def ref_loss_and_grad(net, z0, times, target, solver, mode):
    """(loss, gradient, the states at the times) by the per-step route."""
    args = kernel_args(net, net.params)
    layers, acts, _, half, tin = args
    a, b, c = tableau(solver.method)
    n_stages, dim = b.size, net.state_dim
    sc = RefArrays(n_stages, dim)
    if solver.method == "dopri5":
        states = []
        out, (sub_t0, sub_h, out_idx) = _dopri5_core(
            RolloutPlan(net, times, solver), z0, states)
        mode = "adjoint"
    else:
        sub_t0, sub_h, out_idx = build_schedule(times, solver.step,
                                                solver.max_steps)
    n_sub = sub_h.size
    ts, ea, eb = ref_scaled_tableau(a, b, c, sub_t0, sub_h)
    rev = ref_reverse_tableau(a, b, sub_h)
    landed = np.flatnonzero(np.append(0, out_idx) >= 0)
    grads = tuple(np.zeros_like(w) for w in layers)
    if mode == "backprop_through_solver":
        buf = kernels.StageBuffers(net.sizes, acts, tin, n_sub * n_stages,
                                   n_stages)
        states = ref_rollout(args, z0, ts, ea, eb, buf.steps, sc,
                             np.empty((n_sub + 1, dim)))
        loss, out_bar = _loss_cotangent(net, states[landed].T, target)
        buf.derivs(0, n_sub * n_stages)
        sc.cot[0] = 0.0
        for i in range(n_sub - 1, -1, -1):
            if out_idx[i] >= 0:
                sc.cot[0] += out_bar[:, out_idx[i]]
            ref_step_backward(layers, acts, half, rev[i], buf.steps[i], sc)
        kernels.layer_gradients(grads, buf, n_sub * n_stages)
    else:
        chunk = kernels.CHUNK if solver.method == "dopri5" else min(
            kernels.CHUNK, n_sub)
        buf = kernels.StageBuffers(net.sizes, acts, tin, chunk * n_stages,
                                   n_stages)
        if solver.method != "dopri5":
            states = ref_rollout(args, z0, ts, ea, eb, buf.steps[:1] * n_sub,
                                 sc, np.empty((n_sub + 1, dim)))
            out = states[landed].T
        loss, out_bar = _loss_cotangent(net, out, target)
        sc.cot[0] = 0.0
        for hi in range(n_sub, 0, -kernels.CHUNK):
            lo = max(0, hi - kernels.CHUNK)
            for j, i in enumerate(range(hi - 1, lo - 1, -1)):
                if out_idx[i] >= 0:
                    sc.cot[0] += out_bar[:, out_idx[i]]
                ref_adjoint_step(args, ts[i], ea[i], eb[i], rev[i], states[i],
                                 buf, j, sc)
            kernels.layer_gradients(grads, buf, (hi - lo) * n_stages)
    g = unfold_biases(grads, np.empty(net.params.size), net.sizes)
    return loss, g, np.asarray(states)[landed].T


# ---------------------------------------------------------------------------
# the grids
# ---------------------------------------------------------------------------


def jittered_grid():
    """A unit grid: one substep per interval at its smallest spacing, whose
    sizes differ only in their last bits."""
    times = np.linspace(0.0, 1.0, 81)
    return times, float(np.min(np.diff(times)))


def all_different_grid(n=80, seed=4):
    """A non-uniform grid under a step longer than any interval: one
    substep per interval, no two of the same size."""
    spans = np.random.default_rng(seed).uniform(0.5, 1.5, n)
    times = np.concatenate([[0.0], np.cumsum(spans)]) / np.sum(spans)
    return times, 1.6 / n


GRIDS = {"jittered": jittered_grid, "all_different": all_different_grid}


def test_the_grids_are_what_they_claim():
    times, step = jittered_grid()
    sub_h = build_schedule(times, step, 1000)[1]
    assert 1 < np.unique(sub_h).size <= kernels.CHUNK
    # the rounding of the grid's times: a few dozen ulps at most
    assert np.all(np.abs(sub_h - sub_h[0]) <= 64 * np.spacing(sub_h[0]))
    assert np.count_nonzero(sub_h[1:] != sub_h[:-1]) > sub_h.size // 2
    times, step = all_different_grid()
    sub_h = build_schedule(times, step, 1000)[1]
    assert np.unique(sub_h).size == sub_h.size > 2 * kernels.CHUNK


def solver_for(method, step):
    if method == "dopri5":
        return SolverSpec("dopri5", rtol=1e-7, atol=1e-9)
    # euler takes two substeps per interval
    return SolverSpec(method, step=step / 2 if method == "euler" else step)


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("method", ["euler", "midpoint", "rk4", "dopri5"])
def test_loops_match_the_per_step_reference(method, grid, scaled):
    times, step = GRIDS[grid]()
    solver = solver_for(method, step)
    scale = (ScaleMap(np.array([0.2, -0.1]), np.array([1.5, 0.8]))
             if scaled else None)
    net = build_net(2, [7], "tanh", augment_dim=1, seed=6, scale=scale)
    rng = np.random.default_rng(6)
    z0 = _pad_state(net, rng.normal(size=2))
    target = rng.normal(size=(2, times.size))
    for mode in GRAD_MODES:
        want_loss, want_g, want_out = ref_loss_and_grad(net, z0, times, target,
                                                        solver, mode)
        plan = RolloutPlan(net, times, solver, mode)
        for _ in range(2):
            # the second call looks its step tables up instead of building
            loss, g = _loss_and_grad(plan, z0, target, net.params)
            assert loss == want_loss, mode
            assert g.tobytes() == want_g.tobytes(), mode
    got_out = ode_solve(net, z0, times, solver).coeffs
    assert got_out.tobytes() == want_out.tobytes()


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_dopri5_adaptive_pass_is_its_steps_by_the_reference(grid):
    # the adaptive pass's trial steps march a run of one over a table
    # rescaled in place; the reference replays its accepted steps, each
    # scaled on its own, from z0 to the same states, bit for bit
    times, _ = GRIDS[grid]()
    solver = SolverSpec("dopri5", rtol=1e-7, atol=1e-9)
    net = build_net(2, [7], "tanh", augment_dim=1, seed=6)
    z0 = _pad_state(net, np.array([0.4, -0.3]))
    plan = RolloutPlan(net, times, solver)
    states = []
    _, (sub_t0, sub_h, _) = _dopri5_core(plan, z0, states)
    a, b, c = tableau("dopri5")
    ts, ea, eb = ref_scaled_tableau(a, b, c, sub_t0, sub_h)
    buf = kernels.StageBuffers(net.sizes, plan.args[1], net.time_input,
                               b.size, b.size)
    want = ref_rollout(plan.args, z0, ts, ea, eb, buf.steps * sub_h.size,
                       RefArrays(b.size, z0.size),
                       np.empty((sub_h.size + 1, z0.size)))
    assert np.array(states).tobytes() == want.tobytes()


def test_a_table_holds_the_bits_of_the_whole_schedules_arrays():
    rng = np.random.default_rng(8)
    for method in ("euler", "midpoint", "rk4", "dopri5"):
        a, b, c = tableau(method)
        t0, h = rng.uniform(0.0, 1.0, 5), rng.uniform(1e-4, 0.1, 5)
        ts, ea, eb = ref_scaled_tableau(a, b, c, t0, h)
        rev = ref_reverse_tableau(a, b, h)
        tables = kernels.StepTables(a, b, c)
        trial = tables.build([0.5])[0]
        for i, tab in enumerate(tables.lookup(h.tolist())):
            tables.rescale(trial, float(h[i]))
            for got in (tab, trial):
                assert got.eb.tobytes() == eb[i].tobytes()
                for st, (row, node) in enumerate(got.fwd):
                    assert row.tobytes() == ea[i, st, :st + 1].tobytes()
                    assert t0[i] + node * got.h == ts[i, st]
                for k, row in enumerate(got.back):
                    st = b.size - 1 - k
                    assert row.tobytes() == rev[i, st, :k + 1].tobytes()


# ---------------------------------------------------------------------------
# the tables are bounded by a chunk
# ---------------------------------------------------------------------------


def test_tables_are_built_once_per_distinct_step_size():
    tables = kernels.StepTables(*tableau("rk4"))
    hs = [0.1, 0.2, 0.1, 0.3, 0.2]
    first = tables.lookup(hs)
    assert len(tables.held) == 3
    assert first[0] is first[2] and first[1] is first[4]
    again = tables.lookup(hs[::-1])
    assert all(x is y for x, y in zip(again, first[::-1]))


def test_tables_drop_what_they_hold_when_a_run_brings_too_many():
    tables = kernels.StepTables(*tableau("rk4"))
    run = [float(h) for h in np.linspace(0.01, 0.02, kernels.CHUNK)]
    tabs = tables.lookup(run)
    assert len(tables.held) == kernels.CHUNK
    # a run sharing one size with the held ones and bringing a new one
    # cannot fit beside them: the run's own sizes are all that remain held
    later = tables.lookup([run[0], 0.5])
    assert sorted(tables.held) == [run[0], 0.5]
    assert [t.h for t in later] == [run[0], 0.5]
    assert later[0] is not tabs[0]


def one_table_bytes():
    """What the table of one rk4 step size holds."""
    tables = kernels.StepTables(*tableau("rk4"))
    tracemalloc.start()
    try:
        held = tables.build([0.1])  # noqa: F841
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size


@pytest.mark.parametrize("route", ["rollout", "adjoint"])
def test_all_different_step_tables_do_not_grow_with_the_grid(route):
    net = build_net(2, [8], "tanh", seed=1)
    z0 = np.array([0.3, -0.2])

    def peak(n):
        times, step = all_different_grid(n)
        solver = SolverSpec("rk4", step=step)
        if route == "rollout":
            plan = RolloutPlan(net, times, solver)
            run = lambda: fixed_rollout(plan, z0)  # noqa: E731
            tables = plan.tables
        else:
            plan = RolloutPlan(net, times, solver, "adjoint")
            target = np.zeros((2, times.size))
            run = lambda: _loss_and_grad(plan, z0, target,  # noqa: E731
                                         net.params)
            tables = plan.tables
        run()
        tracemalloc.start()
        try:
            run()
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tables.held) <= kernels.CHUNK
        return top

    short, long = 200, 800
    growth = (peak(long) - peak(short)) / (long - short)
    # per substep: the output column or saved state, the substep's entry in
    # the step list, the loss's arrays (adjoint), but no table, each of
    # which is far larger
    table = one_table_bytes()
    assert table > 1000
    assert growth < 200 < table
