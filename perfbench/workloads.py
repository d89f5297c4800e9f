"""Workload definitions: configs, truth fields and tolerances, all made from
the workload seed.

Every workload runs the whole CLI chain with all three engines, so every
end-to-end metric exists on every workload; the workloads differ in which
layer carries the weight.

The NODE initialisation is pinned (``fit --method node --seed INIT_SEED``):
a NODE trained for a fixed, affordable number of epochs lands anywhere in a
3x range of max RMSE depending on its initialisation, which would swamp any
regression bound on ``rmse_node``. The workload seed is the config ``seed``.
The traveling wave has no random content, so only ``long_latent`` (its
orthonormal lift) changes with the seed. Moving the wave with the seed does
not work either: its POD modes are sinusoids whose largest entries tie up
to roundoff, so the sign the program picks per mode, and with it the NODE
result, changes from one shift to the next.
"""

import math
from dataclasses import dataclass

import numpy as np
from nirom.snapshot import orthonormal_lift

#: NODE initialisation seed shared by every workload (see module docstring)
INIT_SEED = 7

#: reported RMSEs are clamped to at least this value (field units); below it
#: a result is roundoff, and a change of summation order must not read as an
#: accuracy regression
RMSE_FLOOR = 1e-9

#: on small fields the NODE, the RBF marching, the report and interpreter
#: start-up are single-threaded interpreter and small-numpy work; the
#: other stages are LAPACK/BLAS calls and array I/O
SMALL_FIELD_SCALAR = frozenset(
    {"setup", "fit_node", "predict_node", "predict_rbf", "compare"})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # synthetic kind: traveling_wave or harmonic_latent
    grid_points: int
    n_snapshots: int
    dt: float
    refine: int  # prediction grid spacing is dt / refine
    node: dict  # config 'node' block
    rbf_shape: float
    tolerance: dict  # method -> largest acceptable max-over-time RMSE
    # stages (and "setup") whose calls are scaled by the scalar speed probe,
    # the rest by the full one: the one whose load resembles the stage's
    # work (see probe.py)
    scalar_stages: frozenset
    # stage -> back-to-back calls per untraced pipeline (default 1), so a
    # stage of a few milliseconds gets as many samples per run as the long
    # ones. The counts are fixed, not sized from a warm-up timing, so every
    # run makes the same calls: a first call after another stage may run
    # colder than its repeats, and their mix must not change between runs
    repeats: dict

    # -- inputs ------------------------------------------------------------

    @property
    def train_times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_snapshots)

    @property
    def predict_times(self) -> np.ndarray:
        n = (self.n_snapshots - 1) * self.refine + 1
        return (self.dt / self.refine) * np.arange(n)

    def config(self, seed: int, out_dir: str) -> dict:
        span = (self.n_snapshots - 1) * self.dt
        fine = self.dt / self.refine
        return {
            "seed": seed,
            "output_dir": out_dir,
            # the quarter-step slack keeps the grid at exactly n_snapshots
            "input": {"kind": self.kind, "grid_points": self.grid_points,
                      "t_start": 0.0, "t_end": span + 0.25 * self.dt,
                      "dt": self.dt},
            "pod": {"rank": 2},
            "rbf": {"shape_factor": self.rbf_shape},
            "dmd": {"rank": 2},
            "node": dict(self.node),
            "predict": {"t_start": 0.0, "t_end": span + 0.25 * fine,
                        "dt": fine},
        }

    @property
    def truth_is_training_set(self) -> bool:
        return self.refine == 1

    # -- reference fields, computed from the kinds' definitions -------------

    def field_rows(self, seed: int, times: np.ndarray, lo: int, hi: int):
        """Rows lo:hi of the exact field at the given times."""
        if self.kind == "traveling_wave":
            x = 2.0 * math.pi * np.arange(lo, hi) / self.grid_points
            return np.sin(x[:, None] - times[None, :])
        lift = orthonormal_lift(self.grid_points, 2, seed)[lo:hi]
        return lift @ np.vstack([np.cos(times), np.sin(times)])

    def expected_calls(self, n_stages: int) -> dict:
        """Kernel calls the NODE stages must make on the numpy backend:
        one substep per interval (the default rk4 steps at the grid
        spacing), one nn_forward per stage and substep, and the same again
        inside adjoint_step when training by the adjoint."""
        epochs = self.node["epochs"]
        train_sub = self.n_snapshots - 1
        adjoint = self.node.get("grad_mode") == "adjoint"
        per_epoch = n_stages * train_sub
        return {
            ("fit_node", "kernels.nn_forward"): epochs * per_epoch * (2 if adjoint else 1),
            ("fit_node", "kernels.nn_vjp"): epochs * per_epoch,
            ("fit_node", "kernels.adjoint_step"): epochs * train_sub if adjoint else 0,
            ("fit_node", "kernels.rollout_backward"): 0 if adjoint else epochs,
            ("predict_node", "kernels.nn_forward"): n_stages * train_sub * self.refine,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wave_node",
            why="paper headline case: NODE backprop training is ~95% of the "
                "run, so node.kernels dominate and POD, DMD and I/O are small",
            kind="traveling_wave", grid_points=64, n_snapshots=100, dt=0.01,
            refine=4,
            node={"hidden": [64], "activation": "tanh", "epochs": 50,
                  "learning_rate": 0.002},
            rbf_shape=0.05,
            tolerance={"rbf": 1e-2, "node": 0.1, "dmd": 1e-8},
            scalar_stages=SMALL_FIELD_SCALAR,
            repeats={"generate": 16, "decompose": 16, "fit_rbf": 16,
                     "fit_dmd": 16, "predict_rbf": 4, "predict_node": 2,
                     "predict_dmd": 16, "compare": 4},
        ),
        Workload(
            name="mesh_dmd",
            why="large mesh: Gram SVD, DMD forecast, reconstruction and SNP1 "
                "I/O carry the weight; the NODE is a light passenger",
            kind="traveling_wave", grid_points=20000, n_snapshots=250,
            dt=0.01, refine=1,
            node={"hidden": [64], "activation": "tanh", "epochs": 3,
                  "scaling": True},
            rbf_shape=0.05,
            tolerance={"rbf": 1e-6, "node": 2.0, "dmd": 1e-8},
            # large arrays: every stage leans on BLAS and memory bandwidth
            scalar_stages=frozenset(),
            repeats={"fit_rbf": 8},
        ),
        Workload(
            name="long_latent",
            why="adjoint NODE training, uncached rollouts over a 10x finer "
                "prediction grid, RBF marching and a long CSV report",
            kind="harmonic_latent", grid_points=64, n_snapshots=500,
            dt=4.0 * math.pi / 499, refine=10,
            node={"hidden": [64], "activation": "tanh", "epochs": 3,
                  "grad_mode": "adjoint"},
            rbf_shape=0.05,
            tolerance={"rbf": 0.2, "node": 1.0, "dmd": 1e-8},
            scalar_stages=SMALL_FIELD_SCALAR,
            repeats={"generate": 8, "decompose": 8, "fit_rbf": 2,
                     "fit_dmd": 8, "predict_dmd": 8},
        ),
    )
}
