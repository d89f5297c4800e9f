"""Acceptance gate: one test per headline requirement.

Each test prints a [PASS] or [FAIL] line with its measured runtime against
the stated budget, directly to the terminal (bypassing capture), so a plain
pytest run shows the scorecard.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from nirom import dmd as dmd_mod
from nirom import rbf as rbf_mod
from nirom.cli import main as cli_main
from nirom.config import PRESETS
from nirom.node import (
    SolverSpec,
    TrainConfig,
    build_net,
    grad,
    node_forecast,
    ode_solve,
    scale_fit,
)
from nirom.node.training import train
from nirom.pod import (
    LatentTrajectory,
    project,
    reconstruct,
    thin_svd,
    thin_svd_matrix,
    truncate,
)
from nirom.snapshot import SnapshotSet, SyntheticSpec, center, generate_synthetic
from nirom.metrics import spatial_rmse
from reference import eval_dynamics


@contextlib.contextmanager
def criterion(capsys, name: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - started
    ok = elapsed < budget_s
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[{verdict}] {name} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert ok, f"{name}: runtime {elapsed:.2f}s exceeds {budget_s:g}s budget"


def wave_snapshots() -> SnapshotSet:
    # 64 grid points x 100 snapshots; the field is a rank-2 sinusoid
    spec = SyntheticSpec("traveling_wave", 64, 0.0, 0.99, 0.01)
    return generate_synthetic(spec)


def test_pod_rank_recovery(capsys):
    with criterion(capsys, "POD rank recovery", 1.0):
        snap = wave_snapshots()
        svd = thin_svd(center(snap))
        above = np.sum(svd.singular > 1e-10 * svd.singular[0])
        assert above == 2

        # truncation residual must equal the discarded singular energy
        for seed in (0, 1, 2):
            a = np.random.default_rng(seed).standard_normal((50, 30))
            full = thin_svd_matrix(a)
            scale = np.linalg.norm(full.singular)
            for k in range(1, full.rank + 1):
                approx = full.left[:, :k] @ (
                    full.singular[:k, None] * full.right[:, :k].T
                )
                residual = np.linalg.norm(a - approx)
                expected = np.linalg.norm(full.singular[k:])
                assert abs(residual - expected) <= 1e-8 * scale


def _random_smooth_trajectory(rng, m: int, n_steps: int) -> LatentTrajectory:
    """Random low-frequency sinusoid mix: smooth enough that the replayed
    rollout does not amplify roundoff exponentially."""
    times = 0.1 * np.arange(n_steps)
    freq = rng.uniform(0.3, 1.5, size=3)
    amp = rng.standard_normal((m, 3))
    phase = rng.uniform(0.0, 2 * np.pi, size=(m, 3))
    coeffs = sum(
        amp[:, j, None] * np.sin(freq[j] * times + phase[:, j, None])
        for j in range(3)
    )
    return LatentTrajectory(coeffs, times)


def test_rbf_interpolation_exactness(capsys):
    with criterion(capsys, "RBF exactness", 1.0):
        rng = np.random.default_rng(7)
        for _ in range(8):
            m = int(rng.integers(1, 6))
            n_steps = int(rng.integers(10, 51))
            traj = _random_smooth_trajectory(rng, m, n_steps)
            model = rbf_mod.fit(traj, 0.05)

            targets = rbf_mod.build_derivatives(traj)
            g_scale = np.max(np.abs(targets))
            for k in range(model.n_centers):
                f = eval_dynamics(model, model.centers[:, k])
                assert np.max(np.abs(f - targets[:, k])) <= 1e-8 * g_scale

            replay = rbf_mod.forecast(model, traj.coeffs[:, 0], traj.times)
            err = np.max(np.abs(replay.coeffs - traj.coeffs))
            assert err <= 1e-8 * np.max(np.abs(traj.coeffs))


def test_pod_rbf_end_to_end(capsys):
    with criterion(capsys, "POD-RBF end-to-end", 10.0):
        spec = SyntheticSpec("harmonic_latent", 64, 0.0, 2.0, 0.008, seed=4)
        snap = generate_synthetic(spec)
        cen = center(snap)
        basis = truncate(thin_svd(cen), cen.mean, rank=2,
                         component=snap.component)
        latent = project(basis, cen)
        model = rbf_mod.fit(latent, 0.05)

        fine = generate_synthetic(
            SyntheticSpec("harmonic_latent", 64, 0.0, 2.0, 0.002, seed=4)
        )
        pred = reconstruct(
            basis, rbf_mod.forecast(model, latent.coeffs[:, 0], fine.times)
        )
        rmse = spatial_rmse(pred, fine, normalize=True)
        assert rmse.shape == fine.times.shape
        assert np.all(rmse < 1e-2)


def test_dmd_exactness(capsys):
    with criterion(capsys, "DMD exactness", 1.0):
        theta = 0.1
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        data = np.empty((2, 30))
        data[:, 0] = [1.0, 0.0]
        for k in range(1, 30):
            data[:, k] = rot @ data[:, k - 1]
        model = dmd_mod.dmd_fit(
            SnapshotSet(data, 0.1 * np.arange(30)), 2
        )
        lam = model.eigenvalues[np.argsort(model.eigenvalues.imag)]
        expected = np.array([np.cos(theta) - 1j * np.sin(theta),
                             np.cos(theta) + 1j * np.sin(theta)])
        assert np.max(np.abs(lam - expected)) < 1e-8
        assert np.max(np.abs(np.abs(model.eigenvalues) - 1.0)) < 1e-8

        snap = wave_snapshots()
        wave_model = dmd_mod.dmd_fit(snap, 2)
        fine = generate_synthetic(
            SyntheticSpec("traveling_wave", 64, 0.0, 0.99, 0.0025)
        )
        pred = dmd_mod.dmd_forecast(wave_model, fine.times)
        assert np.all(spatial_rmse(pred, fine) < 1e-6)
        assert np.max(np.abs(np.abs(wave_model.eigenvalues) - 1.0)) < 1e-8


def _fd_gradient(net, z0, times, target, solver, step=1e-6):
    base = net.params
    out = np.empty_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + step
        hi = _rollout_loss(net.with_params(bumped), z0, times, target, solver)
        bumped[i] = base[i] - step
        lo = _rollout_loss(net.with_params(bumped), z0, times, target, solver)
        out[i] = (hi - lo) / (2.0 * step)
    return out


def _rollout_loss(net, z0, times, target, solver):
    traj = ode_solve(net, z0, times, solver)
    diff = traj.coeffs - target
    return float(np.mean(diff * diff))


def test_node_gradient_integrity(capsys):
    with criterion(capsys, "NODE gradient integrity", 30.0):
        times = np.linspace(0.0, 1.0, 5)
        target = np.vstack([np.cos(times), np.sin(times)])
        solvers = [
            SolverSpec("euler", step=0.1),
            SolverSpec("midpoint", step=0.1),
            SolverSpec("rk4", step=0.25),
        ]
        for activation in ("linear", "relu", "elu", "tanh"):
            net = build_net(2, [8], activation, seed=3)
            assert net.params.size <= 200
            z0 = np.array([1.0, 0.0])
            for solver in solvers:
                g = grad(net, z0, times, target, solver)
                fd = _fd_gradient(net, z0, times, target, solver)
                # central differences carry roundoff noise ~eps*loss/step,
                # so coordinates far below the gradient scale get a floor
                floor = 1e-4 * (1.0 + np.max(np.abs(fd)))
                tol = 1e-5 * np.maximum.reduce(
                    [np.abs(fd), np.abs(g), np.full_like(g, floor)]
                )
                assert np.all(np.abs(g - fd) <= tol), (activation,
                                                       solver.method)

        net = build_net(2, [8], "tanh", seed=5)
        z0 = np.array([1.0, 0.0])
        for solver in (SolverSpec("rk4", step=0.25),
                       SolverSpec("midpoint", step=0.01)):
            gb = grad(net, z0, times, target, solver,
                      mode="backprop_through_solver")
            ga = grad(net, z0, times, target, solver, mode="adjoint")
            rel = np.linalg.norm(ga - gb) / max(np.linalg.norm(gb), 1e-30)
            assert rel < 1e-4, solver.method


def _decay_net():
    net = build_net(1, [], "linear", seed=0, time_input=False)
    return net.with_params(np.array([-1.0, 0.0]))


def test_solver_convergence_orders(capsys):
    with criterion(capsys, "solver orders", 5.0):
        net = _decay_net()
        z0 = np.array([1.0])
        times = np.array([0.0, 1.0])
        exact = np.exp(-1.0)
        for method, order in (("euler", 1), ("midpoint", 2), ("rk4", 4)):
            steps = np.array([0.1, 0.05, 0.025, 0.0125])
            errs = []
            for h in steps:
                out = ode_solve(net, z0, times, SolverSpec(method, step=h))
                errs.append(abs(out.coeffs[0, -1] - exact))
            slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
            assert abs(slope - order) <= 0.3, method

        spec = SolverSpec("dopri5", rtol=1e-6, atol=1e-8)
        out = ode_solve(net, z0, times, spec)
        err = abs(out.coeffs[0, -1] - exact)
        assert err < 100.0 * (1e-6 * exact + 1e-8)


def test_pod_node_end_to_end(capsys):
    with criterion(capsys, "POD-NODE end-to-end", 600.0):
        spec = SyntheticSpec("harmonic_latent", 64, 0.0, 6.2, 0.1, seed=4)
        snap = generate_synthetic(spec)
        cen = center(snap)
        basis = truncate(thin_svd(cen), cen.mean, rank=2,
                         component=snap.component)
        latent = project(basis, cen)

        net = build_net(2, [64], "tanh", seed=0, time_input=False,
                        scale=scale_fit(latent))
        trained, history = train(
            net, latent, TrainConfig(epochs=5000, learning_rate=1e-3)
        )
        assert np.isfinite(history.final_loss)

        horizon = np.arange(0.0, 1.2 * 6.2 + 1e-9, 0.1)
        pred = reconstruct(
            basis, node_forecast(trained, latent.coeffs[:, 0], horizon)
        )
        truth = generate_synthetic(
            SyntheticSpec("harmonic_latent", 64, 0.0, horizon[-1], 0.1,
                          seed=4)
        )
        assert np.allclose(truth.times, pred.times)

        in_window = horizon <= 6.2 + 1e-9
        def rel(block, ref):
            return np.linalg.norm(block - ref) / np.linalg.norm(ref)
        rel_train = rel(pred.data[:, in_window], truth.data[:, in_window])
        rel_extrap = rel(pred.data[:, ~in_window], truth.data[:, ~in_window])
        assert rel_train < 0.05, f"training-window error {rel_train:.4f}"
        assert rel_extrap < 0.10, f"extrapolation error {rel_extrap:.4f}"


PRESET_TABLE = {
    # name: (hidden layers, width, activation, scaling, augmented)
    "NODE1": (1, 256, "elu", False, False),
    "NODE2": (1, 256, "tanh", True, False),
    "NODE3": (1, 512, "elu", False, False),
    "NODE4": (1, 256, "tanh", True, True),
    "NODE5": (4, 64, "tanh", True, False),
    "NODE6": (1, 256, "elu", False, False),
    "NODE7": (2, 128, "elu", False, False),
    "NODE8": (1, 512, "tanh", True, True),
}


def test_preset_fidelity(capsys):
    with criterion(capsys, "preset fidelity", 1.0):
        assert sorted(PRESETS) == sorted(PRESET_TABLE)
        for name, (n_hidden, width, act, scaling, augmented) in (
                PRESET_TABLE.items()):
            p = PRESETS[name]
            assert p["hidden"] == [width] * n_hidden, name
            assert p["activation"] == act, name
            assert p["scaling"] == scaling, name
            assert p["augmented"] == augmented, name


def test_pipeline_determinism(tmp_path, capsys):
    with criterion(capsys, "pipeline determinism", 60.0):
        binaries = ("snapshots.snp", "basis.pod", "latent.snp",
                    "model_rbf.rbf", "model_dmd.dmd", "model_node.net",
                    "pred_rbf.snp", "pred_dmd.snp", "pred_node.snp")
        for run_dir in ("a", "b"):
            d = tmp_path / run_dir
            d.mkdir()
            doc = {
                "seed": 13,
                "output_dir": str(d),
                "input": {"kind": "traveling_wave", "grid_points": 64,
                          "t_start": 0.0, "t_end": 0.99, "dt": 0.01},
                "pod": {"rank": 2},
                "rbf": {"shape_factor": 0.05},
                "dmd": {"rank": 2},
                "node": {"hidden": [8], "activation": "tanh", "epochs": 25},
                "predict": {"t_start": 0.0, "t_end": 0.99, "dt": 0.0025},
            }
            cfg = d / "cfg.json"
            cfg.write_text(json.dumps(doc))
            assert cli_main(["generate", "--config", str(cfg)]) == 0
            assert cli_main(["decompose", "--config", str(cfg)]) == 0
            for method, model in (("rbf", "model_rbf.rbf"),
                                  ("dmd", "model_dmd.dmd"),
                                  ("node", "model_node.net")):
                assert cli_main(["fit", "--method", method,
                                 "--config", str(cfg)]) == 0
                assert cli_main(["predict", model, "--config", str(cfg)]) == 0
        for name in binaries:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
