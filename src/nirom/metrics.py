"""Error measures over snapshot sets and plot-ready report emission."""

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .containers import replacing
from .snapshot import SnapshotSet, column_blocks, time_tolerance


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
        if not (isinstance(self.method, str) and isinstance(self.component, str)):
            raise ValueError("method and component must be strings")
        if times.ndim != 1 or times.shape != rmse.shape:
            raise ValueError("times and rmse must be vectors of equal length")
        if not np.all(np.isfinite(rmse)) or np.any(rmse < 0):
            raise ValueError("rmse values must be finite and nonnegative")


def _check_aligned(pred_shape, pred_times, truth_shape, truth_times) -> None:
    if pred_shape != truth_shape:
        raise ValueError(
            f"shape mismatch: prediction {pred_shape}, truth {truth_shape}"
        )
    if np.any(np.abs(pred_times - truth_times) > time_tolerance(truth_times)):
        raise ValueError("prediction and truth time stamps disagree")


def _mean_squares(pred, truth, diff, out) -> None:
    """Each column's mean square difference of a block pair, into out;
    diff, a column-major buffer of the blocks' shape, may be pred itself.
    On column-major blocks every column is summed exactly as the
    whole-field reduction sums it."""
    np.subtract(pred, truth, diff)
    np.square(diff, diff)
    np.mean(diff, axis=0, out=out)


def spatial_rmse(
    pred: SnapshotSet, truth: SnapshotSet, normalize: bool = False
) -> np.ndarray:
    """Per-column root mean square error over the spatial DOFs. With
    normalize=True the series is divided by max|truth|.

    The difference is formed in one column-major block of columns at a
    time (snapshot.column_blocks), so no temporary grows with the number
    of snapshots."""
    _check_aligned(pred.data.shape, pred.times, truth.data.shape, truth.times)
    n, m = truth.data.shape
    blocks = column_blocks(n, m)
    buf = np.empty((n, blocks[0].stop), order="F")
    out = np.empty(m)
    peak = 0.0
    for cols in blocks:
        block = buf[:, :cols.stop - cols.start]
        _mean_squares(pred.data[:, cols], truth.data[:, cols], block, out[cols])
        if normalize:
            peak = max(peak, np.max(np.abs(truth.data[:, cols], out=block)))
    np.sqrt(out, out)
    if normalize:
        if peak == 0:
            raise ValueError("cannot normalize by an all-zero truth set")
        out = out / peak
    return out


def streamed_rmse(preds: list, truth) -> list:
    """spatial_rmse of each prediction against the truth, all of them open
    SnapshotFiles, read in lockstep one column block at a time into reused
    buffers; every block is checked finite as it is read. Shapes and times
    are checked first, before any field is read."""
    for pred in preds:
        _check_aligned(pred.shape, pred.times, truth.shape, truth.times)
    n, m = truth.shape
    blocks = column_blocks(n, m)
    truth_buf, pred_buf = (np.empty((n, blocks[0].stop), "<f8", order="F")
                           for _ in range(2))
    series = [np.empty(m) for _ in preds]
    for cols in blocks:
        width = cols.stop - cols.start
        truth_block = truth.read(truth_buf[:, :width])
        for pred, out in zip(preds, series):
            block = pred.read(pred_buf[:, :width])
            _mean_squares(block, truth_block, block, out[cols])
    for out in series:
        np.sqrt(out, out)
    return series


CSV_HEADER = ["method", "component", "time", "rmse"]


def _per_time_vector(reports: list[MetricsReport], fmt) -> dict:
    """fmt(times) once per distinct time vector, keyed by its id: the
    reports of one compare share the truth's times."""
    out = {}
    for rep in reports:
        if id(rep.times) not in out:
            out[id(rep.times)] = fmt(rep.times)
    return out


def _csv_text(reports: list[MetricsReport]) -> str:
    """The rows csv.writer would write: the label fields go through it, for
    its quoting and its CRLF line ends; the numbers never need quoting and
    are formatted in bulk."""
    head = io.StringIO()
    csv.writer(head).writerow(CSV_HEADER)
    parts = [head.getvalue()]
    times_text = _per_time_vector(
        reports, lambda times: [f"{t:.17g}" for t in times.tolist()])
    for rep in reports:
        label = io.StringIO()
        csv.writer(label).writerow([rep.method, rep.component, ""])
        prefix = label.getvalue().removesuffix("\r\n")
        parts.append("".join([
            f"{prefix}{t},{e:.17g}\r\n"
            for t, e in zip(times_text[id(rep.times)], rep.rmse.tolist())
        ]))
    return "".join(parts)


def _json_series(values: np.ndarray) -> str:
    """A float list in json.dump's indent=2 layout at the depth of a series.
    json's C encoder writes the numbers (float.__repr__, and NaN/Infinity
    as json.dump would); none of them holds the ", " it separates them by."""
    if values.size == 0:
        return "[]"
    flat = json.dumps(values.tolist())[1:-1]
    return "[\n        " + flat.replace(", ", ",\n        ") + "\n      ]"


def _json_text(reports: list[MetricsReport]) -> str:
    """json.dumps(tree, indent=2) of the method -> component -> series tree,
    in one pass: the pure-Python encoder that indent selects would format
    every float of every series one call at a time."""
    tree: dict = {}
    for rep in reports:
        tree.setdefault(rep.method, {})[rep.component] = rep
    if not tree:
        return "{}"
    times_text = _per_time_vector(reports, _json_series)
    methods = []
    for method, components in tree.items():
        bodies = [
            f"    {json.dumps(component)}: {{\n"
            f'      "latent_dim": {json.dumps(rep.latent_dim)},\n'
            f'      "runtime_seconds": {json.dumps(rep.runtime_seconds)},\n'
            f'      "times": {times_text[id(rep.times)]},\n'
            f'      "rmse": {_json_series(rep.rmse)}\n'
            "    }"
            for component, rep in components.items()
        ]
        methods.append(
            f"  {json.dumps(method)}: {{\n" + ",\n".join(bodies) + "\n  }")
    return "{\n" + ",\n".join(methods) + "\n}"


def report_emit(reports: list[MetricsReport], path, format: str = "csv") -> None:
    """CSV: one row per (method, component, time). JSON: nested by method,
    then component, with the run metadata alongside the series. Either file
    is formatted whole and written at once."""
    if format == "csv":
        text = _csv_text(reports)
    elif format == "json":
        text = _json_text(reports) + "\n"
    else:
        raise ValueError(f"unknown report format {format!r}")
    with replacing(path, "w") as f:
        f.write(text)
