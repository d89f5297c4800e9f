"""Spatial RMSE and report emission."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nirom.cli import main
from nirom.metrics import (
    CSV_HEADER,
    MetricsReport,
    report_emit,
    spatial_rmse,
)
from nirom.snapshot import BLOCK_VALUES, SnapshotSet


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


def reference_rmse(pred: SnapshotSet, truth: SnapshotSet, normalize=False):
    """The whole-field reduction spatial_rmse replaced."""
    out = np.sqrt(np.mean((pred.data - truth.data) ** 2, axis=0))
    return out / np.max(np.abs(truth.data)) if normalize else out


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("rows,cols", [
    (4000, 250),  # blocks of 32 columns, the last one of 26
    (BLOCK_VALUES // 3 + 1, 7),  # blocks of 2 columns, the last one of 1
    (3, 1000),  # one block
])
def test_blocked_rmse_matches_whole_field_reduction(rows, cols, normalize):
    # column-major, as load_snapshots returns every field compare scores
    rng = np.random.default_rng(rows + cols)
    truth, pred = (
        make_set(np.asfortranarray(scale * rng.standard_normal((rows, cols))))
        for scale in (1.0, 3.0)
    )
    got = spatial_rmse(pred, truth, normalize=normalize)
    assert got.tobytes() == reference_rmse(pred, truth, normalize).tobytes()


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


def reference_emit(reports, path, format):
    """The row-at-a-time csv.writer / json.dump writer that report_emit
    must match byte for byte."""
    if format == "csv":
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(CSV_HEADER)
            for rep in reports:
                for t, e in zip(rep.times, rep.rmse):
                    w.writerow([rep.method, rep.component, f"{t:.17g}", f"{e:.17g}"])
    else:
        tree: dict = {}
        for rep in reports:
            tree.setdefault(rep.method, {})[rep.component] = {
                "latent_dim": rep.latent_dim,
                "runtime_seconds": rep.runtime_seconds,
                "times": rep.times.tolist(),
                "rmse": rep.rmse.tolist(),
            }
        with open(path, "w", newline="") as f:
            json.dump(tree, f, indent=2)
            f.write("\n")


def assert_emits_like_reference(reports, tmp_path):
    for fmt in ("csv", "json"):
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        report_emit(reports, got, fmt)
        reference_emit(reports, want, fmt)
        assert got.read_bytes() == want.read_bytes(), fmt


AWKWARD_LABELS = ["a,b", 'say "hi"', "two\nlines", "cr\r", "Üñï-ß ∂t",
                  "50%", "", " lead", "tab\t", "\\u0000"]


def awkward_reports() -> list:
    rng = np.random.default_rng(3)
    shared = np.linspace(0.0, 1.0, 7)  # as in compare, one time vector
    reports = [
        MetricsReport(method, component, shared,
                      rng.random(7) * 10.0 ** rng.integers(-300, 300, 7),
                      latent_dim=i, runtime_seconds=rng.random())
        for i, (method, component) in enumerate(
            zip(AWKWARD_LABELS, reversed(AWKWARD_LABELS)))
    ]
    reports.append(MetricsReport("rbf", "u", np.array([-0.0, 5e-324, 1e308]),
                                 np.array([-0.0, 5e-324, 1e308]), 2, 0.0))
    reports.append(MetricsReport("rbf", "one", np.array([2.5]), np.array([0.1]),
                                 1, 1e308))
    reports.append(MetricsReport("dmd", "none", np.array([]), np.array([]),
                                 0, 5e-324))
    # a repeated (method, component) replaces the earlier JSON series in place
    reports.append(MetricsReport(AWKWARD_LABELS[0], AWKWARD_LABELS[-1],
                                 np.array([0.0, 0.5]), np.array([1.0, 2.0]),
                                 3, 4.0))
    reports.append(MetricsReport(AWKWARD_LABELS[1], "later", np.array([0.0]),
                                 np.array([0.0]), 1, 0.0))
    return reports


def test_emit_matches_reference_on_awkward_reports(tmp_path):
    assert_emits_like_reference(awkward_reports(), tmp_path)


def test_emit_matches_reference_on_non_finite_times(tmp_path):
    # only a re-emitted metrics.json can carry these: json reads NaN and
    # Infinity, and MetricsReport checks the rmse alone
    rep = MetricsReport("rbf", "u", np.array([np.nan, np.inf, -np.inf]),
                        np.zeros(3), 2, float("nan"))
    assert_emits_like_reference([rep], tmp_path)


def test_emit_matches_reference_on_empty_list(tmp_path):
    assert_emits_like_reference([], tmp_path)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.text(max_size=6), st.text(max_size=6),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5),
    st.integers(0, 1 << 70),
    st.floats(allow_nan=False),
), max_size=4))
def test_emit_matches_reference_on_random_reports(tmp_path_factory, specs):
    tmp_path = tmp_path_factory.mktemp("emit")
    reports = [
        MetricsReport(method, component, np.sort(values), np.abs(values),
                      latent_dim, runtime)
        for method, component, values, latent_dim, runtime in specs
    ]
    assert_emits_like_reference(reports, tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_command_reemits_like_reference(tmp_path, fmt):
    reports = awkward_reports()
    source = tmp_path / "metrics.json"
    reference_emit(reports, source, "json")
    out = tmp_path / "out"
    assert main(["report", str(source), "--format", fmt, "--out", str(out)]) == 0
    # the re-read tree holds one body per (method, component), grouped by
    # method in order of first appearance
    tree: dict = {}
    for rep in reports:
        tree.setdefault(rep.method, {})[rep.component] = rep
    regrouped = [rep for bodies in tree.values() for rep in bodies.values()]
    want = tmp_path / f"want.{fmt}"
    reference_emit(regrouped, want, fmt)
    assert (out / f"metrics.{fmt}").read_bytes() == want.read_bytes()


def test_labels_must_be_strings():
    with pytest.raises(ValueError, match="strings"):
        MetricsReport(5, "u", np.array([0.0]), np.array([0.0]), 1, 0.0)
    with pytest.raises(ValueError, match="strings"):
        MetricsReport("rbf", None, np.array([0.0]), np.array([0.0]), 1, 0.0)


def test_invalid_rmse_rejected():
    with pytest.raises(ValueError):
        MetricsReport("rbf", "u", np.array([0.0]), np.array([-1.0]), 1, 0.0)
    with pytest.raises(ValueError):
        MetricsReport("rbf", "u", np.array([0.0]), np.array([np.nan]), 1, 0.0)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        report_emit([], tmp_path / "m.x", "yaml")
