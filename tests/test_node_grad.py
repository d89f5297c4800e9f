"""Reverse-mode gradient integrity.

Every coordinate of the analytic gradient is compared against central finite
differences of the rolled-out loss; the adjoint route, which recomputes each
step instead of caching it, must give the stage-replay route's gradient, and
dopri5, which takes that route in both modes, the same bytes in each.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nirom.errors import NumericalError
from nirom.node import (
    DynamicsNet,
    ScaleMap,
    SolverSpec,
    build_net,
    grad,
)
from nirom.node import kernels
from nirom.node.network import kernel_args, layer_views
from nirom.node.solvers import (
    GRAD_MODES,
    RolloutPlan,
    _loss_and_grad,
    _loss_cotangent,
    _pad_state,
    fixed_rollout,
    tableau,
)
from nirom.pod import LatentTrajectory
from reference import net_eval

FD_STEP = 1e-6
TIMES = np.linspace(0.0, 1.0, 5)


def small_net(activation: str, seed: int = 1) -> DynamicsNet:
    # 2 latent components, 8 hidden units, time feature on: 50 parameters
    return build_net(2, [8], activation, seed=seed)


def problem(seed: int = 7):
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=2)
    target = rng.normal(size=(2, TIMES.size))
    return z0, target


def fd_gradient(net, z0, times, target, solver):
    z0 = _pad_state(net, z0)
    plan = RolloutPlan(net, times, solver, "backprop_through_solver")

    def loss_of(p):
        loss, _ = _loss_and_grad(plan, z0, target, p)
        return loss

    g = np.empty(net.params.size)
    for i in range(net.params.size):
        p = net.params.copy()
        p[i] += FD_STEP
        hi = loss_of(p)
        p[i] -= 2 * FD_STEP
        lo = loss_of(p)
        g[i] = (hi - lo) / (2 * FD_STEP)
    return g


def assert_gradient_close(g, fd, rtol=1e-5):
    # central differences carry roundoff noise of about eps*loss/step, so
    # coordinates far below the gradient scale get an absolute allowance
    floor = 1e-4 * (1.0 + np.max(np.abs(fd)))
    tol = rtol * np.maximum.reduce([np.abs(fd), np.abs(g), np.full_like(g, floor)])
    assert np.all(np.abs(g - fd) <= tol)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


# the loss training reports: the mean squared error over the latent rows


def loss_of(out, target, augment_dim=0):
    net = build_net(np.shape(target)[0], [4], "tanh", augment_dim=augment_dim)
    loss, _ = _loss_cotangent(net, np.array(out, dtype=float),
                              np.array(target, dtype=float))
    return loss


def test_loss_zero_when_equal():
    out = np.array([[1.0, 2.0]])
    assert loss_of(out, out) == 0.0


def test_loss_unit_scalar():
    assert loss_of([[1.0]], [[0.0]]) == 1.0


def test_loss_mean_of_squares():
    assert loss_of([[1.0, 2.0]], [[0.0, 0.0]]) == 2.5
    # an augmented row is integrated but not scored
    assert loss_of([[1.0, 2.0], [9.0, 9.0]], [[0.0, 0.0]], augment_dim=1) == 2.5


def test_loss_shape_mismatch():
    net = small_net("tanh")
    z0, _ = problem()
    with pytest.raises(ValueError, match="shape"):
        grad(net, z0, TIMES, np.zeros((2, TIMES.size + 1)),
             SolverSpec("rk4", step=0.25))


def test_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 3, 4))
    assert loss_of(a, b) >= 0.0


# ---------------------------------------------------------------------------
# gradient versus finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("activation", ["linear", "relu", "elu", "tanh"])
@pytest.mark.parametrize("method", ["euler", "midpoint", "rk4"])
def test_gradient_matches_finite_differences(activation, method):
    net = small_net(activation)
    assert net.params.size <= 200
    z0, target = problem()
    solver = SolverSpec(method, step=0.25)
    g = grad(net, z0, TIMES, target, solver)
    fd = fd_gradient(net, z0, TIMES, target, solver)
    assert_gradient_close(g, fd)


def test_gradient_zero_at_minimum():
    # zero weights hold the state constant; a constant target is a minimum
    net = small_net("tanh")
    net = net.with_params(np.zeros_like(net.params))
    z0 = np.array([0.4, -1.2])
    target = np.tile(z0[:, None], (1, TIMES.size))
    for mode in ("backprop_through_solver", "adjoint"):
        g = grad(net, z0, TIMES, target, SolverSpec("rk4", step=0.25), mode=mode)
        assert np.all(g == 0.0)


def test_gradient_accepts_latent_trajectory_target():
    net = small_net("tanh")
    z0, target = problem()
    traj = LatentTrajectory(target, TIMES)
    solver = SolverSpec("rk4", step=0.25)
    assert np.array_equal(
        grad(net, z0, TIMES, traj, solver),
        grad(net, z0, TIMES, target, solver),
    )


def test_gradient_rejects_mismatched_target_times():
    net = small_net("tanh")
    z0, target = problem()
    traj = LatentTrajectory(target, TIMES + 0.5)
    with pytest.raises(ValueError, match="times"):
        grad(net, z0, TIMES, traj, SolverSpec("rk4", step=0.25))


@pytest.mark.parametrize("bad", [
    [0.0, 0.5, 0.25, 0.75, 1.0],  # decreasing
    [0.0, 0.5, 0.5, 0.75, 1.0],  # repeated
    [0.0, 0.25, np.nan, 0.75, 1.0],
], ids=["decreasing", "repeated", "nan"])
def test_gradient_rejects_bad_times(bad):
    net = small_net("tanh")
    z0, target = problem()
    with pytest.raises(ValueError, match="times"):
        grad(net, z0, np.array(bad), target, SolverSpec("rk4", step=0.25))


def test_gradient_rejects_bad_target_shape():
    net = small_net("tanh")
    z0, _ = problem()
    with pytest.raises(ValueError, match="target"):
        grad(net, z0, TIMES, np.zeros((3, TIMES.size)),
             SolverSpec("rk4", step=0.25))


def test_gradient_rejects_unknown_mode():
    net = small_net("tanh")
    z0, target = problem()
    with pytest.raises(ValueError, match="mode"):
        grad(net, z0, TIMES, target, SolverSpec("rk4", step=0.25), mode="forward")


def test_augmented_gradient_matches_finite_differences():
    # only the first m rows enter the loss; appended rows start at zero
    net = build_net(2, [6], "tanh", augment_dim=1, seed=4)
    z0, target = problem(seed=11)
    solver = SolverSpec("rk4", step=0.25)
    g = grad(net, z0, TIMES, target, solver)
    fd = fd_gradient(net, z0, TIMES, target, solver)
    assert_gradient_close(g, fd)


def test_time_dependent_gradient_matches_finite_differences():
    # nonzero time feature weights exercise the dL/dt path
    net = small_net("elu", seed=9)
    z0, target = problem(seed=13)
    solver = SolverSpec("midpoint", step=0.2)
    g = grad(net, z0, TIMES, target, solver)
    fd = fd_gradient(net, z0, TIMES, target, solver)
    assert_gradient_close(g, fd)


# ---------------------------------------------------------------------------
# adjoint route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method,step", [
    ("rk4", 0.25), ("midpoint", 0.01),
    # coarse euler, where a continuous adjoint lands far from the gradient
    # of the discrete loss (3.7e-3 relative at 0.005) or, coarser still,
    # cannot re-integrate the state backwards at all
    ("euler", 0.005), ("euler", 0.25),
])
def test_adjoint_agrees_with_backprop(method, step):
    net = small_net("tanh")
    z0, target = problem()
    solver = SolverSpec(method, step=step)
    gb = grad(net, z0, TIMES, target, solver, mode="backprop_through_solver")
    ga = grad(net, z0, TIMES, target, solver, mode="adjoint")
    rel = np.max(np.abs(ga - gb)) / np.max(np.abs(gb))
    assert rel < 1e-12


@pytest.mark.parametrize("mode", GRAD_MODES)
@pytest.mark.parametrize("solver", [SolverSpec("rk4", step=0.25),
                                    SolverSpec("dopri5")], ids=["rk4", "dopri5"])
def test_gradient_over_a_single_time_is_zero(solver, mode):
    # no step is taken, so the loss does not depend on the parameters
    net = small_net("tanh")
    z0, target = problem()
    g = grad(net, z0, TIMES[:1], target[:, :1], solver, mode=mode)
    assert g.shape == net.params.shape
    assert np.all(g == 0.0)


def test_adjoint_refuses_an_overflowing_rollout_as_backprop_does():
    # a 2-4-2 linear net whose weights are all 30 grows without bound; five
    # substeps per interval, and the adjoint keeps the state after each
    net = build_net(2, [4], "linear", seed=0, time_input=False)
    net = net.with_params(np.full(net.params.size, 30.0))
    times = np.linspace(0.0, 50.0, 101)
    solver = SolverSpec("rk4", step=0.1)
    messages = []
    for mode in GRAD_MODES:
        with pytest.raises(NumericalError, match="non-finite at step") as err:
            grad(net, np.ones(2), times, np.zeros((2, times.size)), solver,
                 mode=mode)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def gradient_peak_bytes(net, n_snapshots, method="rk4", mode="adjoint"):
    """tracemalloc peak of one gradient over n_snapshots, and the number of
    steps it takes."""
    times = np.linspace(0.0, 1.0, n_snapshots)
    target = np.vstack([np.sin(6.0 * times), np.cos(6.0 * times)])
    solver = (SolverSpec("dopri5") if method == "dopri5"
              else SolverSpec(method, step=float(times[1] - times[0])))
    tracemalloc.start()
    try:
        grad(net, target[:, 0], times, target, solver, mode=mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_steps = reference_schedule(net, target[:, 0], times, solver)[1].size
    return peak, n_steps


@pytest.fixture
def built(monkeypatch):
    """The row count of every StageBuffers built from here on, in order."""
    rows = []

    class Counted(kernels.StageBuffers):
        def __init__(self, sizes, acts, tin, n_rows, n_stages):
            rows.append(n_rows)
            super().__init__(sizes, acts, tin, n_rows, n_stages)

    monkeypatch.setattr(kernels, "StageBuffers", Counted)
    return rows


def stage_cache_bytes(net, method):
    """What a cached step of the method holds: every layer's input and
    cotangent rows of each of its stages."""
    n_stages = tableau(method)[1].size
    cache = kernels.StageBuffers(net.sizes, kernel_args(net, net.params)[1],
                                 net.time_input, n_stages, n_stages)
    return sum(a.nbytes for a in cache.x + cache.s)


def peak_growth_per_step(net, method, mode, short=500, long=2000):
    peak_short, steps_short = gradient_peak_bytes(net, short, method, mode)
    peak_long, steps_long = gradient_peak_bytes(net, long, method, mode)
    return (peak_long - peak_short) / (steps_long - steps_short)


def test_adjoint_memory_is_bounded_by_its_chunk(built):
    net = build_net(2, [64], "tanh", seed=1)
    n_stages = tableau("rk4")[1].size
    # what backprop caches per rk4 step: about 4.3 KiB for this net
    per_step = stage_cache_bytes(net, "rk4")
    assert 4000 < per_step < 4600
    short, long = 500, 2000
    assert peak_growth_per_step(net, "rk4", "adjoint", short, long) \
        < 0.5 * per_step
    for n_snapshots in (short, long):
        times = np.linspace(0.0, 1.0, n_snapshots)
        built.clear()
        plan = RolloutPlan(net, times,
                           SolverSpec("rk4", step=float(times[1] - times[0])),
                           "adjoint")
        # one chunk, whatever the grid's length, and no other buffers
        assert built == [kernels.CHUNK * n_stages]
        assert len(plan.stages.rows) == kernels.CHUNK * n_stages


@pytest.mark.parametrize("mode", GRAD_MODES)
def test_dopri5_gradient_memory_is_bounded_by_its_chunk(mode, built):
    # both modes keep each accepted step's end state and recompute the
    # step, instead of caching its six stages (about 6.4 KiB for this net)
    net = build_net(2, [64], "tanh", seed=1)
    per_step = stage_cache_bytes(net, "dopri5")
    assert 6000 < per_step < 7000
    growth = peak_growth_per_step(net, "dopri5", mode)
    assert growth < 0.5 * per_step
    # what grows with the accepted steps is each one's saved end state
    # (about 136 bytes at 2 dims) and its entry in the schedule (three
    # numbers); the scaled and reverse tableaus (728 bytes a step) are
    # built one chunk at a time
    assert growth < 400
    built.clear()
    plan = RolloutPlan(net, TIMES, SolverSpec("dopri5"), mode)
    n_rows = kernels.CHUNK * tableau("dopri5")[1].size
    # the adaptive pass's seven rows, then one chunk and nothing more
    assert built == [7, n_rows]
    assert len(plan.stages.rows) == n_rows
    _loss_and_grad(plan, np.zeros(2), np.zeros((2, TIMES.size)), net.params)
    assert built == [7, n_rows]


def test_stage_buffers_beyond_the_limit_are_refused_before_allocation(
        monkeypatch, built):
    net = build_net(2, [64], "tanh", seed=1)
    times = np.linspace(0.0, 1.0, 100)
    solver = SolverSpec("rk4", step=float(times[1] - times[0]))
    target = np.zeros((2, times.size))
    n_stages = tableau("rk4")[1].size
    # the size is the buffers' own: 99 cached substeps, or one chunk
    chunk = RolloutPlan(net, times, solver, "adjoint").stages
    assert kernels.stage_bytes(net.sizes, kernels.CHUNK * n_stages) == sum(
        a.nbytes for a in chunk.x + chunk.s)
    cached = kernels.stage_bytes(net.sizes, 99 * n_stages)
    # a limit between the two refuses backprop's cache when its plan is
    # built, naming the adjoint, whose chunk still fits
    monkeypatch.setattr(kernels, "MAX_NET_BYTES", cached - 1)
    built.clear()
    with pytest.raises(ValueError, match='grad_mode "adjoint"'):
        RolloutPlan(net, times, solver, "backprop_through_solver")
    assert built == []
    _loss_and_grad(RolloutPlan(net, times, solver, "adjoint"), np.zeros(2),
                   target, net.params)
    # below the chunk, the adjoint is refused too, without that advice
    monkeypatch.setattr(kernels, "MAX_NET_BYTES", 1000)
    with pytest.raises(ValueError, match="above the limit") as refused:
        RolloutPlan(net, times, solver, "adjoint")
    assert "grad_mode" not in str(refused.value)


def test_adjoint_chunk_of_a_short_grid_holds_only_its_substeps(built):
    net = small_net("tanh")
    z0, target = problem()
    solver = SolverSpec("rk4", step=0.25)
    plan = RolloutPlan(net, TIMES, solver, "adjoint")
    n_sub = TIMES.size - 1
    assert n_sub < kernels.CHUNK
    n_rows = n_sub * tableau("rk4")[1].size
    assert len(plan.stages.rows) == n_rows
    # the chunk also carries the forward pass: the plan builds no other
    # buffers, then or in a gradient
    assert built == [n_rows]
    _loss_and_grad(plan, _pad_state(net, z0), target, net.params)
    assert built == [n_rows]


# ---------------------------------------------------------------------------
# the per-layer GEMM gradient against the per-stage sweep it replaced
# ---------------------------------------------------------------------------


def reference_forward(net, t, z):
    """One right-hand side evaluation layer by layer from the flat
    parameters, as net_eval does; returns the stage derivative and every
    layer's input, the net output last, for reference_vjp."""
    _, acts, mid, half, tin = kernel_args(net, net.params)
    x = z if mid is None else (z - mid) / half
    xs = [np.concatenate([[t], x]) if tin else x]
    for (w, b), kind in zip(layer_views(net.params, net.sizes), acts):
        y = w @ xs[-1] + b
        xs.append({0: y, 1: np.maximum(y, 0.0), 2: np.where(y > 0.0, y, np.expm1(y)),
                   3: np.tanh(y)}[kind])
    k = xs[-1] if half is None else half * xs[-1]
    return k, xs


def reference_vjp(net, u, xs, gw):
    """Per-stage reverse pass over flat parameters: adds every layer's outer
    product into gw and returns the state cotangent. xs holds the stage's
    layer inputs, the net output last."""
    _, acts, _, half, tin = kernel_args(net, net.params)
    layers = layer_views(net.params, net.sizes)
    grads = layer_views(gw, net.sizes)
    half = np.ones(net.state_dim) if half is None else half
    deriv = {
        0: lambda y: np.ones_like(y),
        1: lambda y: np.where(y > 0.0, 1.0, 0.0),
        2: lambda y: np.where(y > 0.0, 1.0, y + 1.0),
        3: lambda y: 1.0 - y * y,
    }
    xbar = u * half
    for l in range(len(acts) - 1, -1, -1):
        s = xbar * deriv[acts[l]](xs[l + 1])
        g_w, g_b = grads[l]
        g_w += np.outer(s, xs[l])
        g_b += s
        xbar = layers[l][0].T @ s
    return (xbar[1:] if tin else xbar) / half


def reference_schedule(net, z0, times, solver):
    """The substep schedule a rollout of this net follows (for dopri5, the
    steps its adaptive pass accepts)."""
    return fixed_rollout(RolloutPlan(net, times, solver), z0)[1]


def reference_step(net, t0, h, z, a_tab, b_tab, c_tab):
    """Textbook explicit RK step through reference_forward: the new state
    and every stage's layer inputs."""
    ks, xss = [], []
    for st in range(b_tab.size):
        u = z + h * sum((a_tab[st, j] * ks[j] for j in range(st)), np.zeros_like(z))
        k, xs = reference_forward(net, t0 + c_tab[st] * h, u)
        ks.append(k)
        xss.append(xs)
    return z + h * sum(b_tab[st] * ks[st] for st in range(b_tab.size)), xss


def reference_backprop(net, z0, times, target, solver):
    """Replay every stage of a textbook rollout backwards, one
    reference_vjp per stage."""
    sub_t0, sub_h, out_idx = reference_schedule(net, z0, times, solver)
    a, b, c = tableau(solver.method)
    out = np.empty((net.state_dim, times.size))
    out[:, 0] = z = z0
    stages = []
    for i in range(sub_h.size):
        z, xss = reference_step(net, sub_t0[i], sub_h[i], z, a, b, c)
        stages.append(xss)
        if out_idx[i] >= 0:
            out[:, out_idx[i]] = z
    _, out_bar = _loss_cotangent(net, out, target)
    gw = np.zeros(net.params.size)
    zbar = np.zeros(net.state_dim)
    for i in range(sub_h.size - 1, -1, -1):
        if out_idx[i] >= 0:
            zbar = zbar + out_bar[:, out_idx[i]]
        h = sub_h[i]
        kbar = [(h * b[st]) * zbar for st in range(b.size)]
        for st in range(b.size - 1, -1, -1):
            ubar = reference_vjp(net, kbar[st], stages[i][st], gw)
            zbar = zbar + ubar
            for j in range(st):
                kbar[j] = kbar[j] + (h * a[st, j]) * ubar
    return gw


@pytest.mark.parametrize("activation", ["linear", "relu", "elu", "tanh"])
@pytest.mark.parametrize("method", ["euler", "midpoint", "rk4", "dopri5"])
def test_gradient_matches_per_stage_reference(method, activation):
    times = np.array([0.0, 0.13, 0.3, 0.31, 0.45, 0.6])
    rng = np.random.default_rng(3)
    z0 = rng.normal(size=2)
    target = rng.normal(size=(2, times.size))
    # euler takes a finer step, so that a long sweep of one-stage steps is
    # covered too; both routes give the discrete gradient at any step
    solver = (SolverSpec("dopri5", rtol=1e-7, atol=1e-9) if method == "dopri5"
              else SolverSpec(method, step=0.004 if method == "euler" else 0.02))
    for time_input in (True, False):
        for augment in (0, 2):
            for scaled in (False, True):
                scale = (ScaleMap(np.array([0.2, -0.1]), np.array([1.5, 0.8]))
                         if scaled else None)
                net = build_net(2, [7, 5], activation, augment_dim=augment,
                                seed=3, time_input=time_input, scale=scale)
                net = net.with_params(
                    net.params + 0.1 * rng.normal(size=net.params.size))
                z0p = _pad_state(net, z0)
                want = reference_backprop(net, z0p, times, target, solver)
                got = {mode: grad(net, z0, times, target, solver, mode=mode)
                       for mode in GRAD_MODES}
                for mode, g in got.items():
                    assert (np.linalg.norm(g - want)
                            <= 1e-12 * np.linalg.norm(want)), (
                        mode, time_input, augment, scaled)
                if method == "dopri5":
                    # one route for both modes
                    assert got["adjoint"].tobytes() == \
                        got["backprop_through_solver"].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(1, 16),
    st.sampled_from(["linear", "relu", "elu", "tanh"]),
    st.booleans(),
    st.integers(0, 2),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_folded_forward_matches_net_eval(n_hidden, width, activation,
                                         time_input, augment, scaled, seed):
    rng = np.random.default_rng(seed)
    latent = 3
    scale = (ScaleMap(rng.normal(size=latent), rng.uniform(0.5, 2.0, latent))
             if scaled else None)
    net = build_net(latent, [width] * n_hidden, activation, augment_dim=augment,
                    seed=seed % 1000, time_input=time_input, scale=scale)
    net = net.with_params(rng.normal(size=net.params.size))
    t, z = float(rng.uniform(-1.0, 1.0)), rng.normal(size=net.state_dim)
    args = kernel_args(net, net.params)
    buf = kernels.StageBuffers(net.sizes, args[1], time_input, 1, 1)
    got = kernels.nn_forward(*args, t, z, buf.rows[0], np.empty(net.state_dim))
    want = net_eval(net, t, z)
    # relative to the magnitude of the terms each layer sums, so that
    # cancellation in a sum cannot shrink the bound below the roundoff
    _, _, mid, half, _ = args
    m = np.abs(z if mid is None else (z - mid) / half)
    m = np.concatenate([[abs(t)], m]) if time_input else m
    for w, b in layer_views(net.params, net.sizes):
        m = np.abs(w) @ m + np.abs(b)
    m = m if half is None else half * m
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(m)
