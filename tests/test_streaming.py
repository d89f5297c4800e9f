"""Fields that move through SNP1 a column block at a time: predict's lift
written straight to its file, and compare's lockstep reduction of files.

Each streamed result must equal, byte for byte, the in-memory route it
stands in for: ``save_snapshots(reconstruct(...))``,
``save_snapshots(dmd_forecast(...))`` and ``spatial_rmse`` on the loaded
sets. The shapes cover blocks whose last one is narrower than the others,
one column per block (more rows than ``BLOCK_VALUES``) and a single block;
a prediction streamed in blocks one or three columns wide holds the bytes
of the default blocks.
"""

import os
import re

import numpy as np
import pytest

from nirom import snapshot
from nirom.dmd import DmdModel, dmd_forecast
from nirom.errors import FormatError, NumericalError
from nirom.metrics import spatial_rmse, streamed_rmse
from nirom.pod import LatentTrajectory, PodBasis, reconstruct
from nirom.snapshot import (
    BLOCK_VALUES,
    SnapshotSet,
    column_blocks,
    load_snapshots,
    open_snapshots,
    save_snapshots,
)

SHAPES = [
    (4000, 250),  # blocks of 32 columns, the last one of 26
    (BLOCK_VALUES + 1, 5),  # one column per block
    (3, 1000),  # one block
]
SHAPE_IDS = ["narrower-last", "one-column", "one-block"]


@pytest.mark.parametrize("n,m", [(4000, 250), (BLOCK_VALUES + 1, 5), (3, 1000),
                                 (BLOCK_VALUES // 3 + 1, 7)])
def test_column_blocks_tile_the_field(n, m):
    blocks = column_blocks(n, m)
    width = max(1, BLOCK_VALUES // n)
    assert blocks[0].start == 0 and blocks[-1].stop == m
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert all(c.stop - c.start == width for c in blocks[:-1])
    assert 0 < blocks[-1].stop - blocks[-1].start <= width


def pod_case(n, m, seed=0):
    rng = np.random.default_rng(seed)
    basis = PodBasis(np.asfortranarray(rng.standard_normal((n, 3))),
                     np.ones(3), rng.standard_normal(n))
    return basis, LatentTrajectory(rng.standard_normal((3, m)),
                                   np.arange(float(m)))


def dmd_case(n, m, seed=1):
    rng = np.random.default_rng(seed)
    lam = [0.999 * np.exp(0.05j), 0.999 * np.exp(-0.05j)]
    modes = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    model = DmdModel(modes, lam, [1.0 + 1.0j, 1.0 - 1.0j], dt=1.0, t0=0.0)
    return model, np.arange(float(m))


#: each shape at the default block width, and in blocks `width` columns wide
WIDTH_CASES = [pytest.param(n, m, width,
                            id=name if width is None else f"{name}-{width}")
               for width in (None, 1, 3)
               for (n, m), name in zip(SHAPES, SHAPE_IDS)]


@pytest.mark.parametrize("n,m,width", WIDTH_CASES)
@pytest.mark.parametrize("method", ["reconstruct", "dmd_forecast"])
def test_streamed_prediction_is_the_saved_one(tmp_path, monkeypatch, method,
                                              n, m, width):
    if method == "reconstruct":
        args = pod_case(n, m)
        lift = reconstruct
    else:
        args = dmd_case(n, m)
        lift = dmd_forecast
    whole = lift(*args)
    save_snapshots(whole, tmp_path / "saved.snp")
    if width is not None:
        # blocks of `width` columns give the bytes of the default blocks:
        # a one-column block rounds as a column of a wider one
        monkeypatch.setattr(snapshot, "BLOCK_VALUES", n * width)
    assert lift(*args, tmp_path / "streamed.snp") is None
    assert ((tmp_path / "streamed.snp").read_bytes()
            == (tmp_path / "saved.snp").read_bytes())
    assert sorted(os.listdir(tmp_path)) == ["saved.snp", "streamed.snp"]


@pytest.mark.parametrize("method", ["reconstruct", "dmd_forecast"])
def test_overflow_mid_stream_names_the_step_and_leaves_no_file(
        tmp_path, method):
    # 4000 rows: blocks of 32 columns, so step 100 is in the fourth block
    if method == "reconstruct":
        basis, traj = pod_case(4000, 250)
        coeffs = traj.coeffs.copy()
        coeffs[:, 100] = 1e308
        args = (basis, LatentTrajectory(coeffs, traj.times))
        lift = reconstruct
    else:
        model, times = dmd_case(4000, 250)
        # |lam|^t is 1e309 at t = 100, beyond f64's 1.8e308, and 8e305 at
        # t = 99, whose field stays finite
        lam = 10 ** 3.09 * np.exp(0.05j)
        args = (DmdModel(model.modes, [lam, np.conj(lam)], model.amplitudes,
                         dt=1.0, t0=0.0), times)
        lift = dmd_forecast
    target = tmp_path / "pred.snp"
    with pytest.raises(NumericalError,
                       match=re.escape("overflows at step 100 (t=100)")):
        lift(*args, target)
    assert os.listdir(tmp_path) == []
    with pytest.raises(NumericalError,
                       match=re.escape("overflows at step 100 (t=100)")):
        lift(*args)


def write_pair(tmp_path, n, m, seed=2):
    rng = np.random.default_rng(seed)
    times = np.arange(float(m))
    paths = []
    for name, scale in (("truth", 1.0), ("a", 3.0), ("b", 0.5)):
        path = tmp_path / f"{name}.snp"
        save_snapshots(SnapshotSet(scale * rng.standard_normal((n, m)), times),
                       path)
        paths.append(path)
    return paths


@pytest.mark.parametrize("n,m", SHAPES, ids=SHAPE_IDS)
def test_streamed_rmse_is_spatial_rmse_of_the_loaded_sets(tmp_path, n, m):
    truth_path, *pred_paths = write_pair(tmp_path, n, m)
    with open_snapshots(truth_path) as truth, \
            open_snapshots(pred_paths[0]) as a, open_snapshots(pred_paths[1]) as b:
        got = streamed_rmse([a, b], truth)
    truth = load_snapshots(truth_path)
    for series, path in zip(got, pred_paths):
        want = spatial_rmse(load_snapshots(path), truth)
        assert series.tobytes() == want.tobytes()


def poke(path, row, col, value):
    """Write one value into an SNP1 file's field in place, bypassing the
    SnapshotSet check."""
    data = load_snapshots(path).data.copy()
    data[row, col] = value
    raw = bytearray(path.read_bytes())
    raw[-data.nbytes:] = data.tobytes(order="F")
    path.write_bytes(bytes(raw))


def test_nonfinite_block_names_its_file_row_and_column(tmp_path):
    # 4000 x 250 moves in eight blocks of 32 columns; the bad value sits in
    # the second prediction, whose blocks are reduced in lockstep with the
    # first one's until then
    for case, (row, col, value) in enumerate([
        (17, 200, np.nan),  # the seventh block
        (17, 125, np.nan),  # the middle block
        (0, 0, -np.inf),  # the first value
    ]):
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        truth_path, good_path, pred_path = write_pair(case_dir, 4000, 250)
        poke(pred_path, row, col, value)
        with open_snapshots(truth_path) as truth, \
                open_snapshots(good_path) as good, \
                open_snapshots(pred_path) as pred:
            with pytest.raises(FormatError) as err:
                streamed_rmse([good, pred], truth)
        assert str(pred_path) in str(err.value)
        assert f"non-finite value at row {row}, column {col}" in str(err.value)


def test_finite_squares_that_overflow_are_a_numerical_error(tmp_path):
    # a finite block whose mean squares overflow is read again, found
    # finite, and refused, naming the file and the first such column;
    # spatial_rmse, over sets in memory, reports that column infinite
    truth_path, pred_path, _ = write_pair(tmp_path, 4000, 250)
    poke(pred_path, 17, 125, 1e200)
    with open_snapshots(truth_path) as truth, open_snapshots(pred_path) as p:
        with pytest.raises(NumericalError) as err:
            streamed_rmse([p], truth)
    assert str(pred_path) in str(err.value)
    assert "column 125 overflows" in str(err.value)
    want = spatial_rmse(load_snapshots(pred_path), load_snapshots(truth_path))
    assert np.isinf(want[125]) and np.isfinite(np.delete(want, 125)).all()


@pytest.mark.parametrize("cut", [-8, 1], ids=["truncated", "trailing"])
def test_open_refuses_a_file_of_the_wrong_length(tmp_path, cut):
    path = write_pair(tmp_path, 40, 30)[1]
    raw = path.read_bytes()
    path.write_bytes(raw[:cut] if cut < 0 else raw + b"\0" * cut)
    word = "truncated" if cut < 0 else "trailing bytes"
    with pytest.raises(FormatError, match=word):
        with open_snapshots(path):
            pass
