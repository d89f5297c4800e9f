"""Outside-in timing of nirom's layers for the traced benchmark run.

The tracer replaces public entry points with timing and counting wrappers at
the places they are looked up: the kernel module (so the numpy-backend
rollouts call the wrapped per-stage kernels), the rbf and dmd modules, and
the names ``nirom.cli`` imports directly. Nothing under ``src/`` changes.

Calls and inclusive seconds are kept in memory per (stage, layer) and turned
into metrics after the run; computed work (flops, bytes, rows, substeps) is
accumulated alongside. Under numba the jitted rollouts bind ``nn_forward``
and ``nn_vjp`` at compile time, so those two cannot be observed from outside.
"""

import os
import time
from collections import defaultdict

#: layers whose calls happen inside jitted callers under numba
JIT_HIDDEN = ("kernels.nn_forward", "kernels.nn_vjp")


def _path_bytes(index):
    """Size of the file named by positional argument `index`, after the call."""
    def measure(args, kwargs):
        return {"bytes": os.path.getsize(args[index])}
    return measure


def _gram_flops(shape):
    # Gram GEMM of the tall orientation: 2 * N * M^2 with M the short side
    n, m = max(shape), min(shape)
    return {"flop": 2.0 * n * m * m}


def _reconstruct_bytes(args, kwargs):
    # computed: read modes (N x m), coefficients (m x T) and mean (N), write
    # the field (N x T) once; temporaries and cache misses are not counted
    basis, traj = args[0], args[1]
    n, m = basis.modes.shape
    t = traj.coeffs.shape[1]
    return {"bytes": 8.0 * (n * m + m * t + n + n * t)}


def _forecast_bytes(args, kwargs):
    # computed: read complex modes (N x r) and powers (r x T), write the
    # complex product (N x T) and its real part (N x T)
    model, times = args[0], args[1]
    n, r = model.modes.shape
    t = len(times)
    return {"bytes": 16.0 * (n * r + r * t + n * t) + 8.0 * n * t}


def _report_rows(args, kwargs):
    fmt = args[2] if len(args) > 2 else kwargs.get("format", "csv")
    rows = sum(len(rep.times) for rep in args[0]) if fmt == "csv" else 0
    return {"rows": rows}


def targets():
    """(module, attribute, layer, measure) for every wrapped entry point."""
    import nirom.cli as cli
    import nirom.dmd as dmd
    import nirom.rbf as rbf
    from nirom.node import kernels, training

    return [
        (kernels, "nn_forward", "kernels.nn_forward", None),
        (kernels, "nn_vjp", "kernels.nn_vjp", None),
        (kernels, "rollout_rk", "kernels.rollout_rk",
         lambda a, k: {"substeps": a[13].shape[0]}),
        (kernels, "rollout_backward", "kernels.rollout_backward", None),
        (kernels, "adjoint_step", "kernels.adjoint_step", None),
        (training, "_loss_and_grad", "gradients.loss_and_grad", None),
        (cli, "train", "training.train", lambda a, k: {"epochs": a[2].epochs}),
        (rbf, "fit", "rbf.fit", None),
        (rbf, "forecast", "rbf.forecast",
         lambda a, k: {"steps": len(a[2]) - 1}),
        (dmd, "dmd_fit", "dmd.fit", None),
        (dmd, "dmd_forecast", "dmd.forecast", _forecast_bytes),
        (dmd, "thin_svd_matrix", "pod.thin_svd",
         lambda a, k: _gram_flops(a[0].shape)),
        (cli, "thin_svd", "pod.thin_svd",
         lambda a, k: _gram_flops(a[0].deviations.shape)),
        (cli, "project", "pod.project", None),
        (cli, "reconstruct", "pod.reconstruct", _reconstruct_bytes),
        (cli, "spatial_rmse", "metrics.spatial_rmse", None),
        (cli, "report_emit", "metrics.report_emit", _report_rows),
        (cli, "generate_synthetic", "snapshot.generate", None),
        (cli, "load_snapshots", "snapshot.load", _path_bytes(0)),
        (cli, "save_snapshots", "snapshot.save", _path_bytes(1)),
        (cli, "load_basis", "containers.load", _path_bytes(0)),
        (cli, "save_basis", "containers.save", _path_bytes(1)),
        (cli, "load_net", "containers.load", _path_bytes(0)),
        (cli, "save_net", "containers.save", _path_bytes(1)),
        (rbf, "load_model", "containers.load", _path_bytes(0)),
        (rbf, "save_model", "containers.save", _path_bytes(1)),
        (dmd, "load_model", "containers.load", _path_bytes(0)),
        (dmd, "save_model", "containers.save", _path_bytes(1)),
    ]


class Tracer:
    """Context manager that installs the wrappers and records into itself.

    ``stage`` names the pipeline stage the current calls belong to; the
    runner sets it before each CLI call.
    """

    def __init__(self):
        self.stage = "setup"
        self.calls = defaultdict(int)  # (stage, layer) -> calls
        self.seconds = defaultdict(float)  # (stage, layer) -> inclusive s
        self.work = defaultdict(float)  # (stage, layer, quantity) -> amount
        self._saved = []

    def _wrap(self, fn, layer, measure):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            key = (self.stage, layer)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[key] += clock() - started
                self.calls[key] += 1
            if measure is not None:
                for quantity, amount in measure(args, kwargs).items():
                    self.work[key + (quantity,)] += amount
            return result

        return wrapper

    def __enter__(self):
        for module, attr, layer, measure in targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, measure))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    # -- totals ------------------------------------------------------------

    def total_calls(self, layer, stages=None) -> int:
        return sum(n for (s, l), n in self.calls.items()
                   if l == layer and (stages is None or s in stages))

    def total_seconds(self, layer, stages=None) -> float:
        return sum(t for (s, l), t in self.seconds.items()
                   if l == layer and (stages is None or s in stages))

    def total_work(self, layer, quantity, stages=None) -> float:
        return sum(v for (s, l, q), v in self.work.items()
                   if l == layer and q == quantity
                   and (stages is None or s in stages))
