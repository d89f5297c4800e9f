"""Spatial RMSE and report emission."""

import csv
import json

import numpy as np
import pytest

from nirom.metrics import MetricsReport, report_emit, spatial_rmse
from nirom.snapshot import SnapshotSet


def make_set(data, times=None) -> SnapshotSet:
    data = np.asarray(data, dtype=np.float64)
    if times is None:
        times = np.arange(float(data.shape[1]))
    return SnapshotSet(data, times)


# ---------------------------------------------------------------------------
# spatial RMSE
# ---------------------------------------------------------------------------


def test_identical_sets_give_zero():
    s = make_set(np.random.default_rng(0).standard_normal((4, 6)))
    assert np.all(spatial_rmse(s, s) == 0.0)


def test_constant_offset():
    truth = make_set(np.zeros((3, 4)))
    pred = make_set(np.zeros((3, 4)) - 0.25)
    assert np.allclose(spatial_rmse(pred, truth), 0.25)


def test_hand_values():
    truth = make_set(np.zeros((2, 2)))
    pred = make_set(np.array([[1.0, 3.0], [1.0, 4.0]]))
    out = spatial_rmse(pred, truth)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(np.sqrt(12.5))


def test_symmetry_and_shift_invariance():
    rng = np.random.default_rng(1)
    a = make_set(rng.standard_normal((5, 7)))
    b = make_set(rng.standard_normal((5, 7)))
    assert np.allclose(spatial_rmse(a, b), spatial_rmse(b, a))
    c = 3.7
    shifted = spatial_rmse(make_set(a.data + c), make_set(b.data + c))
    assert np.allclose(shifted, spatial_rmse(a, b), atol=1e-12)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        spatial_rmse(make_set(np.zeros((2, 3))), make_set(np.zeros((3, 3))))


def test_time_mismatch_rejected():
    a = make_set(np.zeros((2, 3)), np.array([0.0, 1.0, 2.0]))
    b = make_set(np.zeros((2, 3)), np.array([0.0, 1.0, 2.5]))
    with pytest.raises(ValueError):
        spatial_rmse(a, b)


def test_normalized_rmse():
    truth = make_set(np.array([[2.0, -4.0]]))
    pred = make_set(np.array([[3.0, -4.0]]))
    out = spatial_rmse(pred, truth, normalize=True)
    assert out[0] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def sample_report() -> MetricsReport:
    return MetricsReport(
        method="rbf",
        component="u",
        times=np.array([0.0, 0.1, 0.2]),
        rmse=np.array([0.0, 1e-3, 2.5e-3]),
        latent_dim=4,
        runtime_seconds=1.25,
    )


def test_empty_report_writes_header_only(tmp_path):
    path = tmp_path / "m.csv"
    report_emit([], path, "csv")
    rows = list(csv.reader(open(path)))
    assert rows == [["method", "component", "time", "rmse"]]


def test_csv_rows_per_time(tmp_path):
    path = tmp_path / "m.csv"
    report_emit([sample_report()], path, "csv")
    rows = list(csv.reader(open(path)))
    assert len(rows) == 4
    assert rows[1][:2] == ["rbf", "u"]
    assert float(rows[2][3]) == 1e-3


def test_json_round_trip_exact(tmp_path):
    path = tmp_path / "m.json"
    rep = sample_report()
    report_emit([rep], path, "json")
    tree = json.load(open(path))
    node = tree["rbf"]["u"]
    assert node["latent_dim"] == 4
    assert node["runtime_seconds"] == 1.25
    assert node["times"] == rep.times.tolist()
    assert node["rmse"] == rep.rmse.tolist()


def test_invalid_rmse_rejected():
    with pytest.raises(ValueError):
        MetricsReport("rbf", "u", np.array([0.0]), np.array([-1.0]), 1, 0.0)
    with pytest.raises(ValueError):
        MetricsReport("rbf", "u", np.array([0.0]), np.array([np.nan]), 1, 0.0)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        report_emit([], tmp_path / "m.x", "yaml")
