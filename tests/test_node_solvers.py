"""Fixed-step and adaptive integration of the dynamics net.

Order checks run on dz/dt = -z from z(0)=1, whose exact solution is e^{-t};
slopes are measured on a log-log fit over a dyadic ladder of step sizes.
"""

import tracemalloc

import numpy as np
import pytest

from nirom.errors import NumericalError
from nirom.node import (
    DynamicsNet,
    ScaleMap,
    SolverSpec,
    build_net,
    ode_solve,
)
from nirom.node import kernels
from nirom.node.network import kernel_args, layer_views
from nirom.node.solvers import (
    MAX_STEPS,
    ROUTES,
    RolloutPlan,
    _dopri5_core,
    build_schedule,
    fixed_rollout,
    tableau,
)
from nirom.snapshot import MAX_GRID_TIMES
from reference import net_eval

DECAY_PARAMS = np.array([-1.0, 0.0])


def decay_net(weight: float = -1.0) -> DynamicsNet:
    """Single linear layer without time feature: f(z) = weight * z."""
    return DynamicsNet((1, 1), ("linear",), np.array([weight, 0.0]),
                       time_input=False)


# ---------------------------------------------------------------------------
# SolverSpec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_unknown_method():
    with pytest.raises(ValueError, match="rk5"):
        SolverSpec("rk5", step=0.1)


def test_spec_fixed_needs_step():
    with pytest.raises(ValueError, match="step"):
        SolverSpec("rk4")
    with pytest.raises(ValueError, match="step"):
        SolverSpec("euler", step=0.0)


def test_spec_dopri5_needs_tolerances():
    with pytest.raises(ValueError, match="rtol"):
        SolverSpec("dopri5", rtol=0.0)
    SolverSpec("dopri5")  # defaults are valid


def test_spec_max_steps_positive():
    with pytest.raises(ValueError, match="max_steps"):
        SolverSpec("rk4", step=0.1, max_steps=0)


def test_spec_max_steps_bounded():
    # one step per interval of the longest grid must stay allowed: that is
    # the cap default_solver gives node predict
    assert MAX_STEPS >= MAX_GRID_TIMES
    assert SolverSpec("rk4", step=0.1, max_steps=MAX_STEPS).max_steps == MAX_STEPS
    for method in ("rk4", "dopri5"):
        with pytest.raises(ValueError, match=rf"max_steps must be in \[1, {MAX_STEPS}\]"):
            SolverSpec(method, step=0.1, max_steps=MAX_STEPS + 1)


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def test_schedule_lands_exactly_on_times():
    times = np.array([0.0, 0.3, 1.0])
    sub_t0, sub_h, out_idx = build_schedule(times, 0.25, 100)
    # 0.3/0.25 -> 2 substeps, 0.7/0.25 -> 3 substeps
    assert sub_t0.size == 5
    assert np.allclose(sub_h[:2], 0.15) and np.allclose(sub_h[2:], 0.7 / 3)
    assert list(out_idx) == [-1, 1, -1, -1, 2]
    ends = sub_t0 + sub_h
    assert ends[1] == pytest.approx(0.3, abs=1e-15)
    assert ends[4] == pytest.approx(1.0, abs=1e-15)


def test_schedule_single_substep_when_step_large():
    times = np.array([0.0, 1.0])
    sub_t0, sub_h, out_idx = build_schedule(times, 10.0, 100)
    assert sub_t0.size == 1 and sub_h[0] == 1.0 and out_idx[0] == 1


def test_schedule_exact_division_has_no_extra_step():
    times = np.array([0.0, 1.0])
    _, sub_h, _ = build_schedule(times, 0.25, 100)
    assert sub_h.size == 4


def loop_schedule(times, step):
    """Interval-by-interval substep plan with the same elementwise
    arithmetic as build_schedule."""
    t0s, hs, idx = [], [], []
    for k in range(times.size - 1):
        span = times[k + 1] - times[k]
        nsub = max(1, int(np.ceil(span / step - 1e-9)))
        h = span / nsub
        for i in range(nsub):
            t0s.append(times[k] + i * h)
            hs.append(h)
            idx.append(k + 1 if i == nsub - 1 else -1)
    return (np.asarray(t0s, dtype=np.float64), np.asarray(hs, dtype=np.float64),
            np.asarray(idx, dtype=np.int64))


@pytest.mark.parametrize("step", [0.01, 0.037, 0.1, 1.0])
def test_schedule_is_bitwise_the_interval_loop(step):
    rng = np.random.default_rng(11)
    # irregular spans, several shorter than the step; the first span is
    # 0.1 + 0.2, one ulp above 0.3, which the ceil slack keeps a multiple
    spans = np.concatenate([[0.1 + 0.2], rng.uniform(0.001, 0.3, 200), [0.002]])
    times = np.cumsum(np.concatenate([[0.0], spans]))
    got = build_schedule(times, step, 100000)
    want = loop_schedule(times, step)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert all(a.size == 0 for a in build_schedule(np.array([0.5]), step, 1))


# ---------------------------------------------------------------------------
# ode_solve basics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method,kw", [
    ("euler", {"step": 0.1}),
    ("midpoint", {"step": 0.1}),
    ("rk4", {"step": 0.1}),
    ("dopri5", {}),
])
def test_zero_dynamics_constant_trajectory(method, kw):
    net = build_net(2, [4], "tanh", seed=0, time_input=False)
    net = net.with_params(np.zeros_like(net.params))
    times = np.linspace(0.0, 2.0, 7)
    z0 = np.array([1.5, -0.5])
    sol = ode_solve(net, z0, times, SolverSpec(method, **kw))
    assert np.allclose(sol.coeffs, z0[:, None], rtol=0, atol=1e-14)


def test_rk4_exponential_decay_accuracy():
    times = np.array([0.0, 1.0])
    sol = ode_solve(decay_net(), np.array([1.0]), times, SolverSpec("rk4", step=0.1))
    assert abs(sol.coeffs[0, -1] - np.exp(-1.0)) < 1e-6


def test_rk4_halving_step_is_fourth_order():
    times = np.array([0.0, 1.0])
    errs = []
    for h in (0.1, 0.05):
        sol = ode_solve(decay_net(), np.array([1.0]), times, SolverSpec("rk4", step=h))
        errs.append(abs(sol.coeffs[0, -1] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("method,order", [
    ("euler", 1.0), ("midpoint", 2.0), ("rk4", 4.0),
])
def test_empirical_convergence_order(method, order):
    times = np.array([0.0, 1.0])
    steps = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = []
    for h in steps:
        sol = ode_solve(decay_net(), np.array([1.0]), times,
                        SolverSpec(method, step=h))
        errs.append(abs(sol.coeffs[0, -1] - np.exp(-1.0)))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert abs(slope - order) < 0.3


def test_solution_reported_at_all_times():
    times = np.linspace(0.0, 1.0, 11)
    sol = ode_solve(decay_net(), np.array([1.0]), times, SolverSpec("rk4", step=0.1))
    assert np.max(np.abs(sol.coeffs[0] - np.exp(-times))) < 1e-6
    assert np.array_equal(sol.times, times)


def test_single_time_returns_initial_state():
    z0 = np.array([2.0])
    for spec in (SolverSpec("rk4", step=0.1), SolverSpec("dopri5")):
        sol = ode_solve(decay_net(), z0, np.array([0.0]), spec)
        assert sol.coeffs.shape == (1, 1)
        assert sol.coeffs[0, 0] == 2.0


def test_rejects_decreasing_times():
    with pytest.raises(ValueError, match="increasing"):
        ode_solve(decay_net(), np.array([1.0]), np.array([0.0, 1.0, 0.5]),
                  SolverSpec("rk4", step=0.1))


def test_rejects_non_finite_initial_state():
    with pytest.raises(NumericalError):
        ode_solve(decay_net(), np.array([np.nan]), np.array([0.0, 1.0]),
                  SolverSpec("rk4", step=0.1))


def test_rejects_wrong_state_dimension():
    with pytest.raises(ValueError, match="shape"):
        ode_solve(decay_net(), np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                  SolverSpec("rk4", step=0.1))


@pytest.mark.parametrize("method,kw", [
    ("rk4", {"step": 0.05}), ("dopri5", {}),
])
def test_latent_size_state_is_the_zero_padded_full_state(method, kw):
    net = build_net(2, [6], "tanh", augment_dim=2, seed=4)
    times = np.linspace(0.0, 1.0, 9)
    z0 = np.array([0.3, -0.7])
    solver = SolverSpec(method, **kw)
    latent = ode_solve(net, z0, times, solver).coeffs
    full = ode_solve(net, np.concatenate([z0, np.zeros(2)]), times,
                     solver).coeffs
    assert latent.shape == (4, 9)
    assert np.array_equal(latent, full)


def test_fixed_step_blowup_raises_numerical_error():
    # f(z) = 1e300 z overflows within two euler steps
    net = decay_net(weight=1e300)
    with pytest.raises(NumericalError, match="non-finite"):
        ode_solve(net, np.array([1.0]), np.array([0.0, 3.0]),
                  SolverSpec("euler", step=1.0))


def test_fixed_schedule_longer_than_max_steps():
    with pytest.raises(NumericalError, match="max_steps"):
        ode_solve(decay_net(), np.array([1.0]), np.array([0.0, 1.0]),
                  SolverSpec("rk4", step=1e-4, max_steps=100))


@pytest.mark.parametrize("step", [1e-300, 1e-12, 1e-7])
def test_fixed_schedule_is_counted_before_it_is_built(step):
    # 20 intervals of 0.05: 1e-300 overflows an int64 substep count, 1e-12
    # asks numpy for an array too big to make, and 1e-7 for a 10^7-step
    # schedule of 240 MB; each is refused before any of it is allocated
    times = np.linspace(0.0, 1.0, 21)
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="max_steps is 100000"):
            ode_solve(decay_net(), np.array([1.0]), times,
                      SolverSpec("rk4", step=step))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_schedule_within_max_steps_is_built():
    times = np.linspace(0.0, 1.0, 5)
    assert build_schedule(times, 0.25, 4)[0].size == 4
    with pytest.raises(NumericalError, match="schedule needs 4 steps, max_steps is 3"):
        build_schedule(times, 0.25, 3)


# ---------------------------------------------------------------------------
# dopri5
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rtol,atol", [(1e-6, 1e-8), (1e-9, 1e-11)])
def test_dopri5_respects_tolerance(rtol, atol):
    times = np.linspace(0.0, 5.0, 26)
    sol = ode_solve(decay_net(), np.array([1.0]), times,
                    SolverSpec("dopri5", rtol=rtol, atol=atol))
    exact = np.exp(-times)
    bound = 100.0 * (rtol * np.abs(exact) + atol)
    assert np.all(np.abs(sol.coeffs[0] - exact) < bound)


def test_dopri5_accurate_at_close_interior_times():
    # every one of the closely spaced times ends a step
    times = np.linspace(0.0, 1.0, 101)
    sol = ode_solve(decay_net(), np.array([1.0]), times,
                    SolverSpec("dopri5", rtol=1e-8, atol=1e-10))
    exact = np.exp(-times)
    assert np.max(np.abs(sol.coeffs[0] - exact)) < 100.0 * (1e-8 + 1e-10)


def test_dopri5_exceeding_max_steps():
    with pytest.raises(NumericalError, match="max_steps"):
        ode_solve(decay_net(), np.array([1.0]), np.array([0.0, 100.0]),
                  SolverSpec("dopri5", rtol=1e-12, atol=1e-14, max_steps=5))


@pytest.mark.parametrize("route", ROUTES)
def test_dopri5_max_steps_counts_every_interval(route):
    # four output intervals need at least four steps
    plan = RolloutPlan(decay_net(), np.linspace(0.0, 1e-3, 5), SolverSpec(
        "dopri5", max_steps=3), route)
    with pytest.raises(NumericalError, match="max_steps"):
        fixed_rollout(plan, np.array([1.0]))


def test_dopri5_result_is_its_schedule_replayed():
    # a gradient recomputes every accepted step from the state the adaptive
    # pass kept before it; replaying the accepted schedule through
    # rollout_rk must give those states, and the solve's result, bit for bit
    net = stage_net()
    times = np.array([0.0, 0.013, 0.3, 0.31, 0.8, 1.7])
    z0 = np.array([0.4, -0.7, 0.25])
    solver = SolverSpec("dopri5", rtol=1e-7, atol=1e-9)
    plan = RolloutPlan(net, times, solver)
    states = []
    got, (sub_t0, sub_h, out_idx) = _dopri5_core(plan, z0, states)
    n_sub = sub_h.size
    assert n_sub > times.size
    assert len(states) == n_sub + 1
    assert got.tobytes() == ode_solve(net, z0, times, solver).coeffs.tobytes()
    n_stages = tableau("dopri5")[1].size
    buf = plan.buffers(n_stages, n_stages)
    replay = kernels.rollout_rk(
        *plan.args, z0, plan.tables, buf.steps * n_sub, buf.zk, buf.zk2,
        np.empty((z0.size, n_sub + 1)), np.arange(1, n_sub + 1), sub_h, sub_t0,
    )
    assert replay.T.tobytes() == np.array(states).tobytes()
    landed = np.flatnonzero(np.append(0, out_idx) >= 0)
    assert replay[:, landed].tobytes() == got.tobytes()


def test_dopri5_non_finite_dynamics():
    net = decay_net()
    broken = net.with_params(np.array([np.inf, 0.0]))
    with pytest.raises(NumericalError, match="non-finite"):
        ode_solve(broken, np.array([1.0]), np.array([0.0, 1.0]),
                  SolverSpec("dopri5"))


def test_dopri5_two_dimensional_rotation():
    # dz/dt = [[0,-1],[1,0]] z rotates the initial state
    w = np.array([[0.0, -1.0], [1.0, 0.0]])
    net = DynamicsNet((2, 2), ("linear",),
                      np.concatenate([w.ravel(), np.zeros(2)]),
                      time_input=False)
    times = np.linspace(0.0, 2.0 * np.pi, 13)
    sol = ode_solve(net, np.array([1.0, 0.0]), times,
                    SolverSpec("dopri5", rtol=1e-9, atol=1e-12))
    exact = np.vstack([np.cos(times), np.sin(times)])
    assert np.max(np.abs(sol.coeffs - exact)) < 1e-6


# ---------------------------------------------------------------------------
# the shared Runge-Kutta stage loop
# ---------------------------------------------------------------------------


def stage_net() -> DynamicsNet:
    # time feature, one augmented dimension and input scaling all active
    scale = ScaleMap(np.array([0.2, -0.1]), np.array([1.5, 0.8]))
    return build_net(2, [8], "tanh", augment_dim=1, seed=4, scale=scale)


def butcher_step(net, a, b, c, t0, h, z):
    """Textbook explicit RK step: k_i = f(t0 + c_i h, z + h sum_j a_ij k_j),
    z_new = z + h sum_i b_i k_i."""
    k = []
    for i in range(len(b)):
        u = z + h * sum((a[i][j] * k[j] for j in range(i)), np.zeros_like(z))
        k.append(net_eval(net, t0 + c[i] * h, u))
    return z + h * sum(b[i] * k[i] for i in range(len(b))), np.array(k)


@pytest.mark.parametrize("method", ["euler", "midpoint", "rk4", "dopri5"])
def test_rk_step_matches_textbook_butcher_step(method):
    net = stage_net()
    args = kernel_args(net, net.params)
    a, b, c = tableau(method)
    t0, h = 0.3, 0.1
    z = np.array([0.4, -0.7, 0.25])
    want_z, want_k = butcher_step(net, a, b, c, t0, h, z)
    # a run of one step through march; dopri5 trial steps reuse the
    # first-same-as-last stage from the caller
    first = 1 if method == "dopri5" else 0
    buf = kernels.StageBuffers(net.sizes, args[1], net.time_input, b.size, b.size)
    zk = buf.zk
    zk.z[...] = z
    zk.a[1: 1 + first] = want_k[:first]
    tabs = kernels.StepTables(a, b, c).lookup([h])
    got_z = kernels.march(*args, tabs, [t0], buf.steps, zk, buf.zk2,
                          first=first)[0].z
    k = zk.a[1:]
    assert np.linalg.norm(got_z - want_z) <= 1e-15 * np.linalg.norm(want_z)
    assert np.linalg.norm(k - want_k) <= 1e-15 * np.linalg.norm(want_k)


@pytest.mark.parametrize("method", ["euler", "midpoint", "rk4", "dopri5"])
@pytest.mark.parametrize("h", [0.1])
def test_adjoint_step_state_is_one_rollout_substep(method, h):
    # the adjoint's chunk pass recomputes a substep from its start state
    # through march, and adjoint_step sweeps it back: its stage rows, end
    # state, state cotangent and parameter gradient are those of one cached
    # rollout_rk substep and rollout_backward over it, bit for bit
    net = stage_net()
    args = kernel_args(net, net.params)
    layers, acts, _, half, _ = args
    a, b, c = tableau(method)
    z = np.array([0.4, -0.7, 0.25])
    zbar = np.array([1.0, -2.0, 0.5])
    t0, step = np.array([0.3]), np.array([h])

    def buffers():
        return kernels.StageBuffers(net.sizes, acts, net.time_input, b.size,
                                    b.size)

    adj, ref = buffers(), buffers()
    tables = kernels.StepTables(a, b, c)
    tabs = tables.lookup(step.tolist())
    adj.zk.z[...] = z
    end = kernels.march(*args, tabs, t0.tolist(), adj.steps, adj.zk, adj.zk2)[0]
    adj.derivs(0, b.size)
    adj.cot.z[...] = zbar
    kernels.adjoint_step(layers, acts, half, tabs[0], adj.steps[0], adj, None,
                         -1)
    adj_g = tuple(np.zeros_like(w) for w in layers)
    kernels.layer_gradients(adj_g, adj, b.size)

    out = kernels.rollout_rk(
        *args, z, tables, ref.steps, ref.zk, ref.zk2, np.empty((z.size, 2)),
        np.array([1]), step, t0,
    )
    ref_g = tuple(np.zeros_like(w) for w in layers)
    out_bar = np.stack([np.zeros(z.size), zbar], axis=1)
    kernels.rollout_backward(layers, acts, half, tables, step, np.array([1]),
                             ref, out_bar, ref_g)

    assert end.z.tobytes() == out[:, 1].tobytes()
    for got, want in zip(adj.x + adj.s, ref.x + ref.s):
        assert got.tobytes() == want.tobytes()
    assert adj.cot.z.tobytes() == ref.cot.z.tobytes()
    for got, want in zip(adj_g, ref_g):
        assert got.tobytes() == want.tobytes()
