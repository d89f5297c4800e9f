"""Fixed-step and adaptive integration of the dynamics net.

Order checks run on dz/dt = -z from z(0)=1, whose exact solution is e^{-t};
slopes are measured on a log-log fit over a dyadic ladder of step sizes.
"""

import numpy as np
import pytest

from nirom.errors import NumericalError, SolverError
from nirom.node import (
    DynamicsNet,
    ScaleMap,
    SolverSpec,
    build_net,
    net_eval,
    ode_solve,
)
from nirom.node import kernels
from nirom.node.network import layer_views, pack_meta
from nirom.node.solvers import build_schedule, tableau

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


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def test_schedule_lands_exactly_on_times():
    times = np.array([0.0, 0.3, 1.0])
    sub_t0, sub_h, out_idx = build_schedule(times, 0.25)
    # 0.3/0.25 -> 2 substeps, 0.7/0.25 -> 3 substeps
    assert sub_t0.size == 5
    assert np.allclose(sub_h[:2], 0.15) and np.allclose(sub_h[2:], 0.7 / 3)
    assert list(out_idx) == [-1, 1, -1, -1, 2]
    ends = sub_t0 + sub_h
    assert ends[1] == pytest.approx(0.3, abs=1e-15)
    assert ends[4] == pytest.approx(1.0, abs=1e-15)


def test_schedule_single_substep_when_step_large():
    times = np.array([0.0, 1.0])
    sub_t0, sub_h, out_idx = build_schedule(times, 10.0)
    assert sub_t0.size == 1 and sub_h[0] == 1.0 and out_idx[0] == 1


def test_schedule_exact_division_has_no_extra_step():
    times = np.array([0.0, 1.0])
    _, sub_h, _ = build_schedule(times, 0.25)
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
    got = build_schedule(times, step)
    want = loop_schedule(times, step)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert all(a.size == 0 for a in build_schedule(np.array([0.5]), step))


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
    with pytest.raises(SolverError, match="max_steps"):
        ode_solve(decay_net(), np.array([1.0]), np.array([0.0, 1.0]),
                  SolverSpec("rk4", step=1e-4, max_steps=100))


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


def test_dopri5_dense_output_between_steps():
    # many closely spaced interior times force interpolation
    times = np.linspace(0.0, 1.0, 101)
    sol = ode_solve(decay_net(), np.array([1.0]), times,
                    SolverSpec("dopri5", rtol=1e-8, atol=1e-10))
    exact = np.exp(-times)
    assert np.max(np.abs(sol.coeffs[0] - exact)) < 100.0 * (1e-8 + 1e-10)


def test_dopri5_exceeding_max_steps():
    with pytest.raises(SolverError, match="max_steps"):
        ode_solve(decay_net(), np.array([1.0]), np.array([0.0, 100.0]),
                  SolverSpec("dopri5", rtol=1e-12, atol=1e-14, max_steps=5))


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
    meta = pack_meta(net)
    a, b, c = tableau(method)
    t0, h = 0.3, 0.1
    z = np.array([0.4, -0.7, 0.25])
    want_z, want_k = butcher_step(net, a, b, c, t0, h, z)
    # dopri5 trial steps reuse the first-same-as-last stage from the caller
    first = 1 if method == "dopri5" else 0
    k = np.empty((b.size, z.size))
    k[:first] = want_k[:first]
    caches = np.empty((b.size, int(meta[4][-1])))
    got_z = kernels.rk_step(
        layer_views(net.params, meta), *meta, t0, h, z, a, b, c, first, k,
        caches,
    )
    assert np.linalg.norm(got_z - want_z) <= 1e-15 * np.linalg.norm(want_z)
    assert np.linalg.norm(k - want_k) <= 1e-15 * np.linalg.norm(want_k)


@pytest.mark.parametrize("method", ["euler", "midpoint", "rk4", "dopri5"])
@pytest.mark.parametrize("h", [0.1, -0.1])
def test_adjoint_step_state_is_one_rollout_substep(method, h):
    net = stage_net()
    meta = pack_meta(net)
    a, b, c = tableau(method)
    z = np.array([0.4, -0.7, 0.25])
    costate = np.array([1.0, -2.0, 0.5])
    layers = layer_views(net.params, meta)
    z_adj, _ = kernels.adjoint_step(
        layers, *meta, 0.3, h, z, costate,
        layer_views(np.zeros(net.params.size), meta), a, b, c,
    )
    out = kernels.rollout_rk(
        layers, *meta, z, a, b, c, np.array([0.3]), np.array([h]),
        np.array([1]), 2, None,
    )
    assert z_adj.tobytes() == out[:, 1].tobytes()
