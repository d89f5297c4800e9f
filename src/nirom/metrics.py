"""Error measures over snapshot sets and plot-ready report emission."""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .containers import replacing
from .snapshot import SnapshotSet


@dataclass(frozen=True)
class MetricsReport:
    """Per-time spatial RMSE series for one method on one component."""

    method: str
    component: str
    times: np.ndarray
    rmse: np.ndarray
    latent_dim: int
    runtime_seconds: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        rmse = np.asarray(self.rmse, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rmse", rmse)
        if times.shape != rmse.shape:
            raise ValueError("times and rmse lengths disagree")
        if not np.all(np.isfinite(rmse)) or np.any(rmse < 0):
            raise ValueError("rmse values must be finite and nonnegative")


def _check_aligned(pred: SnapshotSet, truth: SnapshotSet) -> None:
    if pred.data.shape != truth.data.shape:
        raise ValueError(
            f"shape mismatch: prediction {pred.data.shape}, truth {truth.data.shape}"
        )
    scale = max(abs(truth.times[0]), abs(truth.times[-1]), 1.0)
    if np.any(np.abs(pred.times - truth.times) > 1e-9 * scale):
        raise ValueError("prediction and truth time stamps disagree")


def spatial_rmse(
    pred: SnapshotSet, truth: SnapshotSet, normalize: bool = False
) -> np.ndarray:
    """Per-column root mean square error over the spatial DOFs. With
    normalize=True the series is divided by max|truth|."""
    _check_aligned(pred, truth)
    out = np.sqrt(np.mean((pred.data - truth.data) ** 2, axis=0))
    if normalize:
        peak = np.max(np.abs(truth.data))
        if peak == 0:
            raise ValueError("cannot normalize by an all-zero truth set")
        out = out / peak
    return out


CSV_HEADER = ["method", "component", "time", "rmse"]


def report_emit(reports: list[MetricsReport], path, format: str = "csv") -> None:
    """CSV: one row per (method, component, time). JSON: nested by method,
    then component, with the run metadata alongside the series."""
    if format == "csv":
        with replacing(path, "w") as f:
            w = csv.writer(f)
            w.writerow(CSV_HEADER)
            for rep in reports:
                for t, e in zip(rep.times, rep.rmse):
                    w.writerow([rep.method, rep.component, f"{t:.17g}", f"{e:.17g}"])
    elif format == "json":
        tree: dict = {}
        for rep in reports:
            tree.setdefault(rep.method, {})[rep.component] = {
                "latent_dim": rep.latent_dim,
                "runtime_seconds": rep.runtime_seconds,
                "times": rep.times.tolist(),
                "rmse": rep.rmse.tolist(),
            }
        with replacing(path, "w") as f:
            json.dump(tree, f, indent=2)
            f.write("\n")
    else:
        raise ValueError(f"unknown report format {format!r}")
