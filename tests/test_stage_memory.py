"""Peak memory of the field-sized stages: generate, decompose, predict's
lift and write, and compare's reduction.

Each peak is traced with tracemalloc on a 4000 x 250 field and stated in
fields above the stage's inputs. Predict lifts its field into a buffer one
column block wide (snapshot.BLOCK_VALUES, 1 MiB: 0.131 of this field) and
writes each block to its file, and compare reads the truth and each
prediction into two such buffers, so neither holds a field at all; their
peaks are a fixed number of bytes, whatever the field. The in-memory lift
makes its field and nothing else field-sized, and the RMSE of two
in-memory sets holds one column block of their difference at a time.
Decompose centers the field in place and holds the lift of the columns the
Gram cut keeps, and generate its column-major field, which its save writes
without a copy.
"""

from contextlib import ExitStack

import tracemalloc

import numpy as np
import pytest

from nirom.dmd import DmdModel, dmd_forecast
from nirom.metrics import spatial_rmse, streamed_rmse
from nirom.pod import LatentTrajectory, PodBasis, project, reconstruct, thin_svd, truncate
from nirom.snapshot import (
    SnapshotSet,
    SyntheticSpec,
    center,
    generate_synthetic,
    load_snapshots,
    open_snapshots,
    save_snapshots,
)

N, T = 4000, 250
FIELD_BYTES = 8 * N * T
TIMES = np.arange(float(T))


def peak_fields(call) -> float:
    """Peak bytes allocated while call() runs, in fields."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / FIELD_BYTES


def pod_inputs():
    """A three-mode basis with column-major modes, as load_basis gives."""
    rng = np.random.default_rng(0)
    basis = PodBasis(np.asfortranarray(rng.standard_normal((N, 3))),
                     np.ones(3), rng.standard_normal(N))
    return basis, LatentTrajectory(rng.standard_normal((3, T)), TIMES)


def dmd_model() -> DmdModel:
    rng = np.random.default_rng(1)
    lam = [0.999 * np.exp(0.05j), 0.999 * np.exp(-0.05j)]
    modes = rng.standard_normal((N, 2)) + 1j * rng.standard_normal((N, 2))
    return DmdModel(modes, lam, [1.0 + 1.0j, 1.0 - 1.0j], dt=1.0, t0=0.0)


def decompose(snap: SnapshotSet):
    """The body of the decompose stage, without its file writes; like the
    stage, it centers the field it is given in place."""
    cen = center(snap, in_place=True)
    basis = truncate(thin_svd(cen), cen.mean, rank=2)
    return basis, project(basis, cen)


@pytest.mark.parametrize("noise, bound", [(0.0, 0.6), (1e-6, 3.3)],
                         ids=["rank-2", "full-rank"])
def test_decompose_peak(noise, bound):
    wave = generate_synthetic(SyntheticSpec("traveling_wave", N, 0.0, 2.4925, 0.01))
    data = wave.data + noise * np.random.default_rng(3).standard_normal((N, T))
    snap = SnapshotSet(data, wave.times)
    # the deviations overwrite the field. Rank 2 (0.53 measured): s @ v over
    # the 119 columns the Gram cut keeps, of which the polish takes 2. Full
    # rank (3.14): s @ v until its QR is done, then Q and Q @ P, whose kept
    # columns are a view; each is 250 columns wide
    assert peak_fields(lambda: decompose(snap)) <= bound


@pytest.mark.parametrize("kind", ["traveling_wave", "harmonic_latent"])
def test_generate_peak(kind, tmp_path):
    # the column-major field and the finiteness mask of its check (1/8
    # field): 1.13 measured for traveling_wave, whose sine is taken in place
    # on its argument, and 1.21 for harmonic_latent. save_snapshots writes
    # the field through a view, without a copy
    def generate():
        spec = SyntheticSpec(kind, N, 0.0, 2.4925, 0.01)
        save_snapshots(generate_synthetic(spec), tmp_path / "snapshots.snp")
    assert peak_fields(generate) <= 1.25


def test_reconstruct_peaks_at_its_field():
    basis, traj = pod_inputs()
    # the field, and the boolean mask of its finiteness check (1/8 field)
    assert peak_fields(lambda: reconstruct(basis, traj)) <= 1.2


def test_dmd_forecast_peaks_at_its_field():
    model = dmd_model()
    # the field, its finiteness mask, and the N x 2r real lift
    assert peak_fields(lambda: dmd_forecast(model, TIMES)) <= 1.2


@pytest.mark.parametrize("method", ["reconstruct", "dmd_forecast"])
def test_predict_stage_streams_its_field(method, tmp_path):
    if method == "reconstruct":
        lift, args = reconstruct, pod_inputs()
    else:
        lift, args = dmd_forecast, (dmd_model(), TIMES)
    # the block buffer (0.131) and one block's finiteness mask (0.016):
    # 0.145 measured for the POD lift; the DMD lift adds its N x 2r real
    # mode matrix (0.016), 0.163
    assert peak_fields(lambda: lift(*args, tmp_path / "pred.snp")) <= 0.17


def test_compare_stage_streams_its_files(tmp_path):
    rng = np.random.default_rng(2)
    for name in ("truth", "a", "b", "c"):
        save_snapshots(SnapshotSet(rng.standard_normal((N, T)), TIMES),
                       tmp_path / f"{name}.snp")

    def compare():
        with ExitStack() as files:
            truth = files.enter_context(open_snapshots(tmp_path / "truth.snp"))
            preds = [files.enter_context(open_snapshots(tmp_path / f"{x}.snp"))
                     for x in "abc"]
            streamed_rmse(preds, truth)

    # a truth and a prediction block buffer (0.262), whatever the number of
    # predictions, and one block's finiteness mask: 0.277 measured
    assert peak_fields(compare) <= 0.29


@pytest.mark.parametrize("predict", [
    lambda: reconstruct(*pod_inputs()),
    lambda: dmd_forecast(dmd_model(), TIMES),
], ids=["reconstruct", "dmd_forecast"])
def test_prediction_is_written_without_a_copy(predict, tmp_path):
    pred = predict()
    path = tmp_path / "pred.snp"
    assert peak_fields(lambda: save_snapshots(pred, path)) <= 0.01
    assert np.array_equal(load_snapshots(path).data, pred.data)


@pytest.mark.parametrize("normalize", [False, True])
def test_spatial_rmse_holds_one_column_block(normalize, tmp_path):
    rng = np.random.default_rng(2)
    for name in ("truth", "pred"):
        save_snapshots(SnapshotSet(rng.standard_normal((N, T)), TIMES),
                       tmp_path / f"{name}.snp")
    truth = load_snapshots(tmp_path / "truth.snp")
    pred = load_snapshots(tmp_path / "pred.snp")
    # blocks of 32 columns: 0.128 fields
    assert peak_fields(lambda: spatial_rmse(pred, truth, normalize)) <= 0.25
