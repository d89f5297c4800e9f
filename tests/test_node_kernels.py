"""The NODE kernels' call contract and their reused buffers.

The benchmark's tracer counts kernel calls and checks them against the
solver schedule: one nn_forward per stage, one nn_vjp per reverse stage,
one rollout_backward per backprop gradient, one adjoint_step per substep,
and rollout_rk's substep start times as its positional argument 13. These
tests count the same calls by wrapping the module-level kernels, and pin
those of a dopri5 gradient, which calls adjoint_step once per accepted step
and neither rollout_rk nor rollout_backward. A guard counts numpy's
Python-level dispatchers (np.dot, np.copyto, np.all) instead and requires
the same count on two grid lengths: no hot loop calls one per stage or step.

Plans reuse their stage buffers across calls, so the other tests check that
nothing a call leaves in them, or in an array it returns, reaches the next
call.
"""

import inspect
from collections import Counter

import numpy as np
import pytest

from nirom import rbf
from nirom.node import (
    ScaleMap,
    SolverSpec,
    TrainConfig,
    build_net,
    grad,
    ode_solve,
    train,
)
from nirom.node import kernels, training
from nirom.node.network import kernel_args
from nirom.node.solvers import (GRAD_MODES, RolloutPlan, _loss_and_grad,
                                 _pad_state, build_schedule, fixed_rollout,
                                 tableau)
from nirom.pod import LatentTrajectory

TIMES = np.array([0.0, 0.1, 0.35, 0.4, 0.7, 1.0])
STEP = 0.07
KERNELS = ("nn_forward", "nn_vjp", "rollout_rk", "rollout_backward",
           "adjoint_step")


@pytest.fixture
def calls(monkeypatch):
    """Counts of every kernel call, and rollout_rk's argument 13 lengths."""
    counts = Counter()
    for name in KERNELS:
        def counted(*args, _fn=getattr(kernels, name), _name=name):
            counts[_name] += 1
            if _name == "rollout_rk":
                counts["sub_t0 entries"] += args[13].shape[0]
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    return counts


def problem(seed=2, scaled=False):
    scale = ScaleMap(np.array([0.1, -0.2]), np.array([1.3, 0.7])) if scaled else None
    net = build_net(2, [6], "tanh", seed=seed, scale=scale)
    rng = np.random.default_rng(seed)
    return net, rng.normal(size=2), rng.normal(size=(2, TIMES.size))


def n_substeps():
    return build_schedule(TIMES, STEP, 100)[0].size


@pytest.mark.parametrize("method", ["euler", "midpoint", "rk4"])
def test_backprop_gradient_calls(calls, method):
    net, z0, target = problem()
    grad(net, z0, TIMES, target, SolverSpec(method, step=STEP))
    per_pass = tableau(method)[1].size * n_substeps()
    assert calls == Counter({
        "nn_forward": per_pass, "nn_vjp": per_pass, "rollout_rk": 1,
        "rollout_backward": 1, "sub_t0 entries": n_substeps(),
    })


@pytest.mark.parametrize("method", ["midpoint", "rk4"])
def test_adjoint_gradient_calls(calls, method):
    net, z0, target = problem()
    grad(net, z0, TIMES, target, SolverSpec(method, step=STEP), mode="adjoint")
    per_pass = tableau(method)[1].size * n_substeps()
    assert calls == Counter({
        "nn_forward": 2 * per_pass, "nn_vjp": per_pass, "rollout_rk": 1,
        "adjoint_step": n_substeps(), "sub_t0 entries": n_substeps(),
    })


@pytest.mark.parametrize("mode", ["backprop_through_solver", "adjoint"])
def test_dopri5_gradient_calls(calls, mode):
    # one adaptive pass, the one ode_solve makes, then every accepted step
    # recomputed from its saved state and swept back
    net, z0, target = problem()
    solver = SolverSpec("dopri5", rtol=1e-6, atol=1e-8)
    n_accepted = fixed_rollout(RolloutPlan(net, TIMES, solver), z0)[1][0].size
    assert n_accepted > TIMES.size - 1
    calls.clear()
    ode_solve(net, z0, TIMES, solver)
    adaptive = calls["nn_forward"]
    assert calls == Counter({"nn_forward": adaptive})
    calls.clear()
    grad(net, z0, TIMES, target, solver, mode=mode)
    per_pass = tableau("dopri5")[1].size * n_accepted
    assert calls == Counter({
        "nn_forward": adaptive + per_pass, "nn_vjp": per_pass,
        "adjoint_step": n_accepted,
    })


def test_rollout_rk_takes_sub_t0_as_argument_13():
    # the benchmark's tracer reads the substep count from this position
    params = list(inspect.signature(kernels.rollout_rk).parameters)
    assert params[13] == "sub_t0"


def test_ode_solve_calls(calls):
    net, z0, _ = problem()
    ode_solve(net, z0, TIMES, SolverSpec("rk4", step=STEP))
    assert calls == Counter({
        "nn_forward": 4 * n_substeps(), "rollout_rk": 1,
        "sub_t0 entries": n_substeps(),
    })


@pytest.mark.parametrize("mode", ["backprop_through_solver", "adjoint"])
def test_training_calls_per_epoch(calls, monkeypatch, mode):
    # the count the benchmark checks on its fit stage: one rk4 substep per
    # interval at the default step, every epoch, each epoch's gradient
    # taken through training's module global _loss_and_grad, which the
    # benchmark's tracer wraps
    def counted(*args, _fn=training._loss_and_grad):
        calls["_loss_and_grad"] += 1
        return _fn(*args)
    monkeypatch.setattr(training, "_loss_and_grad", counted)
    net, _, target = problem()
    epochs = 3
    uniform = np.linspace(0.0, 1.0, TIMES.size)
    train(net, LatentTrajectory(target, uniform),
          TrainConfig(epochs=epochs, grad_mode=mode))
    intervals = uniform.size - 1
    adjoint = mode == "adjoint"
    per_epoch = 4 * intervals
    assert calls["_loss_and_grad"] == epochs
    assert calls["nn_forward"] == epochs * per_epoch * (2 if adjoint else 1)
    assert calls["nn_vjp"] == epochs * per_epoch
    assert calls["adjoint_step"] == (epochs * intervals if adjoint else 0)
    assert calls["rollout_backward"] == (0 if adjoint else epochs)


#: numpy functions that reach their C code through a Python-level
#: __array_function__ dispatcher; the hot loops call the C forms instead
DISPATCHERS = ("dot", "copyto", "all")


def dispatcher_calls(run):
    """How often run() calls each of DISPATCHERS."""
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in DISPATCHERS:
            def counted(*args, _fn=getattr(np, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            mp.setattr(np, name, counted)
        run()
    return counts


@pytest.mark.parametrize("activation,scaled", [("tanh", False), ("elu", True)])
def test_hot_loops_make_no_dispatcher_call_per_step(activation, scaled):
    # every gradient route, rollout and forecast on two grids of different
    # lengths: equal counts mean no dispatcher call per stage or step (nor
    # per kernels.CHUNK steps: the long grid has three chunks)
    scale = ScaleMap(np.array([0.1, -0.2]), np.array([1.3, 0.7])) if scaled else None
    net = build_net(2, [6], activation, augment_dim=1, seed=2, scale=scale)
    rng = np.random.default_rng(2)
    z0 = rng.normal(size=2)
    fit_t = np.linspace(0.0, 1.0, 20)
    model = rbf.fit(LatentTrajectory(np.vstack([np.sin(fit_t), np.cos(fit_t)]),
                                     fit_t), 0.05)

    def run(n):
        times = np.linspace(0.0, 1.0, n)
        target = rng.normal(size=(2, n))
        for solver in (SolverSpec("rk4", step=STEP),
                       SolverSpec("dopri5", rtol=1e-6, atol=1e-8)):
            for mode in GRAD_MODES:
                plan = RolloutPlan(net, times, solver, mode)
                _loss_and_grad(plan, _pad_state(net, z0), target, net.params)
            ode_solve(net, z0, times, solver)
        rbf.forecast(model, z0, times)

    short, long = dispatcher_calls(lambda: run(6)), dispatcher_calls(lambda: run(90))
    assert short == long


# ---------------------------------------------------------------------------
# reused buffers
# ---------------------------------------------------------------------------

SOLVERS = [
    (SolverSpec("rk4", step=STEP), "backprop_through_solver"),
    (SolverSpec("rk4", step=STEP), "adjoint"),
    (SolverSpec("midpoint", step=STEP), "adjoint"),
    (SolverSpec("dopri5", rtol=1e-6, atol=1e-8), "backprop_through_solver"),
    (SolverSpec("dopri5", rtol=1e-6, atol=1e-8), "adjoint"),
]


@pytest.mark.parametrize("solver,mode", SOLVERS)
def test_interleaved_plans_match_their_solo_results(solver, mode):
    net_a, z0_a, target_a = problem(seed=2)
    net_b, z0_b, target_b = problem(seed=5, scaled=True)
    solo_a = _loss_and_grad(RolloutPlan(net_a, TIMES, solver, mode), z0_a,
                            target_a, net_a.params)
    solo_b = _loss_and_grad(RolloutPlan(net_b, TIMES, solver, mode), z0_b,
                            target_b, net_b.params)
    plan_a = RolloutPlan(net_a, TIMES, solver, mode)
    plan_b = RolloutPlan(net_b, TIMES, solver, mode)
    moved = net_a.params + 0.3
    for _ in range(2):
        for plan, net, z0, target, (loss, g) in (
                (plan_a, net_a, z0_a, target_a, solo_a),
                (plan_b, net_b, z0_b, target_b, solo_b)):
            got_loss, got_g = _loss_and_grad(plan, z0, target, net.params)
            assert got_loss == loss
            assert got_g.tobytes() == g.tobytes()
        # a call at other parameters, whose dopri5 schedule is another
        # one, leaves nothing behind in the plan's buffers either
        _loss_and_grad(plan_a, z0_a, target_a, moved)


@pytest.mark.parametrize("solver,mode", SOLVERS)
def test_interleaved_grad_calls_match_their_solo_results(solver, mode):
    net_a, z0_a, target_a = problem(seed=2)
    net_b, z0_b, target_b = problem(seed=5, scaled=True)
    solo_a = grad(net_a, z0_a, TIMES, target_a, solver, mode=mode)
    solo_b = grad(net_b, z0_b, TIMES, target_b, solver, mode=mode)
    for _ in range(2):
        assert grad(net_a, z0_a, TIMES, target_a, solver, mode=mode).tobytes() \
            == solo_a.tobytes()
        assert grad(net_b, z0_b, TIMES, target_b, solver, mode=mode).tobytes() \
            == solo_b.tobytes()


@pytest.mark.parametrize("solver", [SolverSpec("rk4", step=STEP),
                                    SolverSpec("dopri5", rtol=1e-6, atol=1e-8)])
def test_mutating_returned_arrays_changes_no_later_result(solver):
    net, z0, target = problem()
    first = ode_solve(net, z0, TIMES, solver)
    want = first.coeffs.copy()
    first.coeffs[:] = np.nan
    assert ode_solve(net, z0, TIMES, solver).coeffs.tobytes() == want.tobytes()

    g = grad(net, z0, TIMES, target, solver)
    want = g.copy()
    g[:] = np.nan
    assert grad(net, z0, TIMES, target, solver).tobytes() == want.tobytes()

    plan = RolloutPlan(net, TIMES, solver, "backprop_through_solver")
    _, g = _loss_and_grad(plan, z0, target, net.params)
    want = g.copy()
    g[:] = np.nan
    assert _loss_and_grad(plan, z0, target,
                          net.params)[1].tobytes() == want.tobytes()


def test_mutating_rk_step_result_changes_no_later_step():
    # one step through march, the forward stage loop: its end state is a
    # row of the buffers, which the next run overwrites, not reads
    net, z0, _ = problem(scaled=True)
    args = kernel_args(net, net.params)
    buf = kernels.StageBuffers(net.sizes, args[1], net.time_input, 4, 4)
    tabs = kernels.StepTables(*tableau("rk4")).lookup([0.1])
    buf.zk.z[...] = z0

    def step():
        return kernels.march(*args, tabs, [0.2], buf.steps, buf.zk, buf.zk2)[0].z

    out = step()
    want = out.copy()
    out[:] = np.nan
    buf.zk.a[1:] = np.nan
    again = step()
    assert again.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["backprop_through_solver", "adjoint"])
def test_training_runs_in_one_process_stay_bitwise_equal(mode):
    net, _, target = problem()
    traj = LatentTrajectory(target, TIMES)
    config = TrainConfig(epochs=4, grad_mode=mode)
    first, history = train(net, traj, config)
    # another net trained in between shares nothing with the next run
    train(problem(seed=5, scaled=True)[0], traj, config)
    again, history_again = train(net, traj, config)
    assert again.params.tobytes() == first.params.tobytes()
    assert history_again.loss.tobytes() == history.loss.tobytes()
    assert net.params.tobytes() == problem()[0].params.tobytes()
