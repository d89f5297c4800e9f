"""Command-line pipeline: artifacts, exit codes, determinism.

The shared fixtures run the traveling-wave pipeline once per module; the
wave is exactly rank 2, so truncation at rank 2 is lossless and the latent
one-step map is a pure rotation.
"""

import csv
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nirom
from nirom import cli as cli_mod
from nirom import dmd as dmd_mod
from nirom import errors
from nirom import rbf as rbf_mod
from nirom.cli import main
from nirom.config import PRESETS
from nirom.containers import peek_magic
from nirom.errors import FormatError
from nirom.metrics import spatial_rmse
from nirom.node import load_net, save_net
from nirom.pod import PodBasis, load_basis, save_basis
from nirom.snapshot import SnapshotSet, load_snapshots, save_snapshots, time_grid

WAVE_INPUT = {
    "kind": "traveling_wave",
    "grid_points": 64,
    "t_start": 0.0,
    "t_end": 0.99,
    "dt": 0.01,
}


def write_cfg(directory, **blocks):
    doc = {"input": dict(WAVE_INPUT), "output_dir": str(directory)}
    doc.update(blocks)
    path = directory / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv):
    return main(list(argv))


def run_ok(*argv):
    assert run(*argv) == 0, argv


def run_fresh(*argv, **env):
    """One command in a fresh interpreter, with what it prints."""
    return subprocess.run(
        [sys.executable, "-m", "nirom.cli", *argv],
        env=dict(os.environ, **env,
                 PYTHONPATH=str(Path(nirom.__file__).parents[1])),
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full run with predictions on a 4x finer grid than training."""
    out = tmp_path_factory.mktemp("wave")
    cfg = write_cfg(
        out,
        seed=11,
        pod={"rank": 2},
        rbf={"shape_factor": 0.05},
        dmd={"rank": 2},
        node={"hidden": [16], "activation": "tanh", "epochs": 150,
              "scaling": True},
        predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.0025},
    )
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    for method in ("rbf", "dmd", "node"):
        run_ok("fit", "--method", method, "--config", cfg)
        run_ok("predict", f"model_{method}.{_EXT[method]}", "--config", cfg)

    truth_dir = tmp_path_factory.mktemp("wave_truth")
    truth_cfg = write_cfg(truth_dir, seed=11, dmd={"rank": 2})
    doc = json.loads((truth_dir / "cfg.json").read_text())
    doc["input"]["dt"] = 0.0025
    (truth_dir / "cfg.json").write_text(json.dumps(doc))
    run_ok("generate", "--config", truth_cfg)
    truth = truth_dir / "snapshots.snp"

    run_ok("compare", str(truth),
           str(out / "pred_rbf.snp"), str(out / "pred_dmd.snp"),
           str(out / "pred_node.snp"), "--out", str(out))
    return SimpleNamespace(out=out, cfg=cfg, truth=truth)


_EXT = {"rbf": "rbf", "dmd": "dmd", "node": "net"}


@pytest.fixture(scope="module")
def train_grid(tmp_path_factory):
    """RBF and DMD predictions on exactly the training grid."""
    out = tmp_path_factory.mktemp("wave_train")
    cfg = write_cfg(
        out,
        seed=11,
        pod={"rank": 2},
        rbf={"shape_factor": 0.05},
        dmd={"rank": 2},
        predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.01},
    )
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    for method in ("rbf", "dmd"):
        run_ok("fit", "--method", method, "--config", cfg)
        run_ok("predict", f"model_{method}.{_EXT[method]}", "--config", cfg)
    return SimpleNamespace(out=out, cfg=cfg)


# generate --------------------------------------------------------------


def test_generate_writes_64_by_100_snapshot_file(pipeline):
    path = pipeline.out / "snapshots.snp"
    assert peek_magic(path) == b"SNP1"
    snap = load_snapshots(path)
    assert snap.data.shape == (64, 100)


def test_generate_missing_kind_is_config_error(tmp_path, capsys):
    doc = {"input": {"grid_points": 8, "t_end": 1.0, "dt": 0.5},
           "dmd": {"rank": 1}, "output_dir": str(tmp_path)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run("generate", "--config", str(cfg)) == 2
    assert "input.kind" in capsys.readouterr().err


@pytest.mark.parametrize("kind,grid_points,message", [
    ("traveling_wave", 100_000_000_000, "SNP1 holds at most 4294967295 points"),
    ("traveling_wave", 100_000_000, "field takes 74.5 GiB"),
    # the field alone is 0.75 GiB; its 10^6 x 10^6 operator is not
    ("linear_system", 1_000_000, "field takes 7.45e+03 GiB"),
], ids=["u32", "field", "operator"])
def test_generate_grid_beyond_the_limit_exit_2(tmp_path, capsys, kind,
                                               grid_points, message):
    # refused at config load, before the field or the operator is allocated
    cfg = write_cfg(tmp_path, dmd={"rank": 2})
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["input"].update(kind=kind, grid_points=grid_points)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = run("generate", "--config", cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"'input.grid_points' is {grid_points}" in err and message in err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]
    assert peak < 16e6


def test_a_component_label_too_long_for_snp1_exits_2_at_load(tmp_path,
                                                             capsys):
    cfg = write_cfg(tmp_path, dmd={"rank": 2})
    run_ok("generate", "--config", cfg)
    kept = {name: (tmp_path / name).read_bytes()
            for name in ("snapshots.snp", "snapshots.snp.meta.json")}
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["input"]["component"] = "é" * 32768  # 65536 bytes in UTF-8
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run("generate", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "'input.component' is 65536 bytes" in err and "65535" in err
    assert {name: (tmp_path / name).read_bytes() for name in kept} == kept
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        ["cfg.json", *kept])


@pytest.mark.parametrize("kind,rate", [("traveling_wave", "wave_speed"),
                                       ("harmonic_latent", "omega")])
def test_generate_overflowing_rate_exit_2(tmp_path, kind, rate):
    # refused at config load, before numpy overflows and warns
    cfg = write_cfg(tmp_path, dmd={"rank": 2})
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["input"].update(kind=kind, t_end=2.0, **{rate: 1e308})
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    done = run_fresh("generate", "--config", cfg)
    assert done.returncode == 2
    assert f"'input.{rate}' is too large" in done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_generate_is_byte_deterministic(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        cfg = write_cfg(d, seed=3, dmd={"rank": 2})
        doc = json.loads((d / "cfg.json").read_text())
        doc["input"] = {"kind": "harmonic_latent", "grid_points": 32,
                        "t_end": 2.0, "dt": 0.05, "omega": 3.0}
        (d / "cfg.json").write_text(json.dumps(doc))
        run_ok("generate", "--config", cfg)
    a = (tmp_path / "a" / "snapshots.snp").read_bytes()
    b = (tmp_path / "b" / "snapshots.snp").read_bytes()
    assert a == b


# decompose --------------------------------------------------------------


def test_decompose_energy_tolerance_keeps_two_modes(tmp_path):
    cfg = write_cfg(tmp_path, pod={"tolerance": 1e-10}, dmd={"rank": 2})
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    assert load_basis(tmp_path / "basis.pod").m == 2


def test_decompose_rank_criterion_overrides_energy(tmp_path):
    cfg = write_cfg(tmp_path, pod={"rank": 1}, dmd={"rank": 2})
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    assert load_basis(tmp_path / "basis.pod").m == 1


def test_spectrum_csv_final_cumulative_energy_is_one(pipeline):
    with open(pipeline.out / "spectrum.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert float(rows[-1]["cumulative_energy"]) == 1.0
    cum = np.array([float(r["cumulative_energy"]) for r in rows])
    assert np.all(np.diff(cum) >= 0)


def test_spectrum_csv_holds_the_polished_spectrum(pipeline):
    # the wave is rank 2: only two values survive the polish, and the basis
    # lifts exactly those
    with open(pipeline.out / "spectrum.csv", newline="") as f:
        sv = np.array([float(r["singular_value"]) for r in csv.DictReader(f)])
    assert sv.size == 2
    basis = load_basis(pipeline.out / "basis.pod")
    assert np.all(np.abs(basis.singular - sv[:basis.m]) <= 1e-12 * sv[:basis.m])


def test_decompose_rank_beyond_numerical_rank_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, pod={"rank": 3}, dmd={"rank": 2})
    run_ok("generate", "--config", cfg)
    assert run("decompose", "--config", cfg) == 2
    assert "rank must be in [1, 2], got 3" in capsys.readouterr().err
    assert not (tmp_path / "basis.pod").exists()


def overflowing_field(kind: str) -> SnapshotSet:
    """A finite 64 x 100 field too large for the Gram SVD."""
    times = 0.01 * np.arange(100)
    wave = np.sin(2.0 * np.pi * np.arange(64)[:, None] / 64 - times)
    if kind == "eigenvalue":
        # decompose's centered Gram peaks at 1.14e307, yet its top
        # eigenvalue is infinite
        return SnapshotSet(1.2e153 * wave, times)
    if kind == "entry":
        wave[3, 7] = 1e300  # one square overflows the Gram
        return SnapshotSet(wave, times)
    if kind == "deviation":
        # three times: each row's mean is finite, but not its deviations
        return SnapshotSet(1.7e308 * np.sign(wave[:, :3] + [2.0, -2.0, -2.0])
                           * (1.0 - 1e-3 * wave[:, :3]), times[:3])
    # every row's sum, and so its mean, overflows
    return SnapshotSet(1.7e308 * (1.0 + 0.01 * wave), times)


@pytest.mark.parametrize("command", [("decompose",), ("fit", "--method", "dmd")],
                         ids=["decompose", "fit-dmd"])
@pytest.mark.parametrize("kind", ["eigenvalue", "entry", "mean", "deviation"])
def test_a_field_too_large_for_the_gram_svd_exits_3(tmp_path, command, kind):
    save_snapshots(overflowing_field(kind), tmp_path / "field.snp")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": {"path": str(tmp_path / "field.snp")},
        "pod": {"rank": 2}, "dmd": {"rank": 2}, "output_dir": str(tmp_path)}))
    done = run_fresh(*command, "--config", str(cfg))
    assert done.returncode == 3, done.stderr
    # no numpy warning, and no traceback, beside the error
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and "not finite" in line
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json",
                                                           "field.snp"]


def spectrum_overflow_field() -> SnapshotSet:
    """Two orthonormal modes, both at singular value 1.2e154, centered
    already: each squared value is finite, and their sum is not."""
    phase = 2.0 * np.pi * (np.arange(64)[:, None] / 64 - np.arange(100) / 100)
    return SnapshotSet(3e152 * np.cos(phase), 0.01 * np.arange(100))


@pytest.mark.parametrize("command, pod, code", [
    (("decompose",), {"rank": 2}, 3),
    (("decompose",), {"tolerance": 0.1}, 3),
    (("fit", "--method", "dmd"), {"rank": 2}, 0),
], ids=["decompose-rank", "decompose-tolerance", "fit-dmd"])
def test_a_spectrum_whose_energy_overflows(tmp_path, command, pod, code):
    # the energies are refused, and the lift needs none: no numpy warning
    save_snapshots(spectrum_overflow_field(), tmp_path / "field.snp")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": {"path": str(tmp_path / "field.snp")},
        "pod": pod, "dmd": {"rank": 2}, "output_dir": str(tmp_path)}))
    done = run_fresh(*command, "--config", str(cfg))
    assert done.returncode == code, done.stderr
    if code:
        [line] = done.stderr.splitlines()
        assert line.startswith("error: ") and "largest float" in line
    else:
        assert done.stderr == ""


def test_a_refused_spectrum_leaves_the_last_decompose_in_place(tmp_path):
    # pod.rank reads no energy to truncate, yet the overflow is refused
    # before the basis and latent files are replaced
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": {"path": str(tmp_path / "field.snp")},
        "pod": {"rank": 2}, "dmd": {"rank": 2},
        "output_dir": str(tmp_path)}))
    field = spectrum_overflow_field()
    save_snapshots(SnapshotSet(field.data / 3e152, field.times),
                   tmp_path / "field.snp")
    run_ok("decompose", "--config", str(cfg))
    names = ("basis.pod", "latent.snp", "latent.snp.meta.json",
             "spectrum.csv")
    before = {name: (tmp_path / name).read_bytes() for name in names}
    save_snapshots(field, tmp_path / "field.snp")
    assert run("decompose", "--config", str(cfg)) == 3
    assert {name: (tmp_path / name).read_bytes() for name in names} == before


def test_decompose_writes_latent_trajectory(pipeline):
    latent = load_snapshots(pipeline.out / "latent.snp")
    assert latent.data.shape == (2, 100)


def test_decompose_records_its_basis_last(pipeline):
    meta = pipeline.out / "latent.snp.meta.json"
    digest = hashlib.sha256((pipeline.out / "basis.pod").read_bytes()).hexdigest()
    assert json.loads(meta.read_text()) == {"basis_sha256": digest}
    assert meta.stat().st_mtime_ns >= max(
        (pipeline.out / name).stat().st_mtime_ns
        for name in ("basis.pod", "latent.snp", "spectrum.csv"))


@pytest.mark.parametrize("command", [("decompose",), ("fit", "--method", "dmd")],
                         ids=["decompose", "fit-dmd"])
def test_missing_snapshots_exit_4_and_name_generate(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, pod={"rank": 2}, dmd={"rank": 2})
    assert run(*command, "--config", cfg) == 4
    err = capsys.readouterr().err
    assert "snapshots.snp: missing" in err and "nirom generate" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("change", [
    {"grid_points": 32}, {"t_end": 0.49}, {"t_start": 0.5, "t_end": 1.49},
], ids=["grid size", "time count", "time grid"])
@pytest.mark.parametrize("command", [("decompose",), ("fit", "--method", "dmd")],
                         ids=["decompose", "fit-dmd"])
def test_stale_snapshots_exit_2_and_name_generate(tmp_path, capsys, command,
                                                  change):
    cfg = write_cfg(tmp_path, pod={"rank": 2}, dmd={"rank": 2})
    run_ok("generate", "--config", cfg)
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["input"].update(change)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run(*command, "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "snapshots.snp holds" in err and "'nirom generate'" in err
    assert "np.float64" not in err
    if "t_start" in change:
        assert "on [0.0, 0.99]" in err and "on [0.5, 1.49]" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "snapshots.snp", "snapshots.snp.meta.json"]


def test_generate_records_its_recipe_last(pipeline):
    meta = pipeline.out / "snapshots.snp.meta.json"
    assert json.loads(meta.read_text()) == {
        "kind": "traveling_wave", "component": "u", "wave_speed": 1.0}
    assert (meta.stat().st_mtime_ns
            >= (pipeline.out / "snapshots.snp").stat().st_mtime_ns)


@pytest.mark.parametrize("command", [("decompose",), ("fit", "--method", "dmd")],
                         ids=["decompose", "fit-dmd"])
def test_snapshots_without_their_record_exit_4(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, pod={"rank": 2}, dmd={"rank": 2})
    run_ok("generate", "--config", cfg)
    (tmp_path / "snapshots.snp.meta.json").unlink()
    assert run(*command, "--config", cfg) == 4
    err = capsys.readouterr().err
    assert "snapshots.snp.meta.json: missing" in err and "nirom generate" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                          "snapshots.snp"]


@pytest.mark.parametrize("first,change", [
    ({}, {"kind": "harmonic_latent"}),
    ({}, {"kind": "linear_system"}),
    ({}, {"wave_speed": 2.0}),
    ({"kind": "harmonic_latent"}, {"seed": 12}),
    ({"kind": "harmonic_latent"}, {"omega": 2.0}),
    ({"kind": "linear_system", "grid_points": 8}, {"seed": 12}),
    ({}, {"component": "v"}),
], ids=["wave-to-harmonic", "wave-to-linear", "wave-speed", "harmonic-seed",
        "harmonic-omega", "linear-seed", "component"])
@pytest.mark.parametrize("command", [("decompose",), ("fit", "--method", "dmd")],
                         ids=["decompose", "fit-dmd"])
def test_snapshots_of_another_recipe_exit_2_and_name_generate(
        tmp_path, capsys, command, first, change):
    # the same grid each time: only the record tells the fields apart
    cfg = write_cfg(tmp_path, seed=11, pod={"rank": 2}, dmd={"rank": 2})
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["input"].update(first)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    run_ok("generate", "--config", cfg)
    doc["seed"] = change.get("seed", doc["seed"])
    doc["input"].update({k: v for k, v in change.items() if k != "seed"})
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run(*command, "--config", cfg) == 2
    err = capsys.readouterr().err
    key = "kind" if "kind" in change else next(iter(change))
    assert f"snapshots.snp.meta.json records {key} " in err
    assert "run 'nirom generate' again" in err
    run_ok("generate", "--config", cfg)
    # a key the recipe does not name is not read
    _add_to_record(tmp_path / "snapshots.snp.meta.json", note="extra")
    run_ok(*command, "--config", cfg)


def _add_to_record(record, **fields):
    tree = json.loads(record.read_text())
    tree.update(fields)
    record.write_text(json.dumps(tree))


def test_wave_snapshots_serve_any_seed(tmp_path):
    # the wave reads no seed, so its record holds none
    cfg = write_cfg(tmp_path, seed=11, pod={"rank": 2}, dmd={"rank": 2})
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg, "--seed", "12")


class Interrupted(Exception):
    """Stands in for a signal that stops a command midway."""


@pytest.mark.parametrize("step", ["project", "_write_meta"],
                         ids=["after basis", "after latent"])
@pytest.mark.parametrize("method", ["rbf", "node"])
def test_fit_refuses_the_pair_an_interrupted_decompose_left(
        tmp_path, capsys, monkeypatch, method, step):
    cfg = write_cfg(tmp_path, pod={"rank": 2}, rbf={"shape_factor": 0.05},
                    node={"hidden": [4], "activation": "tanh", "epochs": 1})
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    # a second field on the same grid, decomposed until `step` raises
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["input"]["kind"] = "harmonic_latent"
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    run_ok("generate", "--config", cfg)
    basis_before = (tmp_path / "basis.pod").read_bytes()

    def stop(*args, **kwargs):
        raise Interrupted

    with monkeypatch.context() as m:
        m.setattr(cli_mod, step, stop)
        with pytest.raises(Interrupted):
            run("decompose", "--config", cfg)
    assert (tmp_path / "basis.pod").read_bytes() != basis_before
    capsys.readouterr()
    assert run("fit", "--method", method, "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "latent.snp.meta.json records basis_sha256 " in err
    assert "run 'nirom decompose' again" in err
    assert not (tmp_path / f"model_{method}.{_EXT[method]}").exists()
    # a finished decompose ties the pair again, and a key the check does
    # not name is not read
    run_ok("decompose", "--config", cfg)
    _add_to_record(tmp_path / "latent.snp.meta.json", note="extra")
    run_ok("fit", "--method", method, "--config", cfg)


def _interrupt(*args, **kwargs):
    raise Interrupted


@pytest.mark.parametrize("method, change", [
    ("rbf", {"shape_factor": 0.1}), ("node", {"epochs": 2}),
    ("dmd", {"rank": 1}),
])
def test_predict_refuses_the_model_an_interrupted_fit_left(
        tmp_path, capsys, monkeypatch, method, change):
    cfg = write_cfg(tmp_path, pod={"rank": 2}, rbf={"shape_factor": 0.05},
                    node={"hidden": [4], "activation": "tanh", "epochs": 1},
                    dmd={"rank": 2},
                    predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.01})
    model = tmp_path / f"model_{method}.{_EXT[method]}"
    for command in ("generate", "decompose"):
        run_ok(command, "--config", cfg)
    run_ok("fit", "--method", method, "--config", cfg)
    model_before = model.read_bytes()
    # a second fit with another setting, stopped before its record
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc[method].update(change)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    with monkeypatch.context() as m:
        m.setattr(cli_mod, "_write_meta", _interrupt)
        with pytest.raises(Interrupted):
            run("fit", "--method", method, "--config", cfg)
    assert model.read_bytes() != model_before
    capsys.readouterr()
    assert run("predict", model.name, "--config", cfg) == 4
    err = capsys.readouterr().err
    assert f"{model.name}.meta.json: missing" in err
    assert f"run 'nirom fit --method {method}'" in err
    assert not (tmp_path / f"pred_{method}.snp").exists()
    # a finished fit records its model again
    run_ok("fit", "--method", method, "--config", cfg)
    run_ok("predict", model.name, "--config", cfg)


@pytest.mark.parametrize("method", ["rbf", "dmd"])
def test_an_interrupted_predict_leaves_no_record(tmp_path, monkeypatch,
                                                 method):
    cfg = write_cfg(tmp_path, pod={"rank": 2}, rbf={"shape_factor": 0.05},
                    dmd={"rank": 2},
                    predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.01})
    for command in ("generate", "decompose"):
        run_ok(command, "--config", cfg)
    run_ok("fit", "--method", method, "--config", cfg)
    model = f"model_{method}.{_EXT[method]}"
    pred = tmp_path / f"pred_{method}.snp"
    record = Path(f"{pred}.meta.json")
    run_ok("predict", model, "--config", cfg)
    assert json.loads(record.read_text())["runtime_seconds"] > 0
    with monkeypatch.context() as m:
        m.setattr(cli_mod, "_write_meta", _interrupt)
        with pytest.raises(Interrupted):
            run("predict", model, "--config", cfg)
    assert pred.exists()
    assert not record.exists()
    # compare reads no runtime for a prediction without its record
    run_ok("compare", str(tmp_path / "snapshots.snp"), str(pred),
           "--out", str(tmp_path))
    tree = json.loads((tmp_path / "metrics.json").read_text())
    assert tree[method]["u"]["runtime_seconds"] == 0.0


def test_a_temp_file_a_hard_kill_left_is_left_alone(tmp_path):
    # a hard kill inside containers.replacing leaves <artifact>.<pid>.tmp
    # behind; it may be a live writer's, and no reader opens it, so later
    # commands write their artifacts beside it as a clean run does
    planted = "snapshots.snp.99999999.tmp"
    for sub in ("clean", "planted"):
        d = tmp_path / sub
        d.mkdir()
        cfg = write_cfg(d, pod={"rank": 2}, dmd={"rank": 2})
        if sub == "planted":
            (d / planted).write_bytes(b"half a field")
        for command in ("generate", "decompose"):
            run_ok(command, "--config", cfg)
    clean, dirty = tmp_path / "clean", tmp_path / "planted"
    names = sorted(p.name for p in clean.iterdir())
    assert "latent.snp.meta.json" in names
    assert sorted(p.name for p in dirty.iterdir()) == sorted(names + [planted])
    for name in names:
        if name != "cfg.json":
            assert (dirty / name).read_bytes() == (clean / name).read_bytes()
    assert (dirty / planted).read_bytes() == b"half a field"


def test_fit_without_the_decompose_record_exits_4(latent_dir, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(latent_dir, out)
    record = out / "latent.snp.meta.json"
    cfg = write_cfg(out, pod={"rank": 2}, rbf={"shape_factor": 0.05})
    record.write_text(json.dumps({"note": "no basis_sha256"}))
    assert run("fit", "--method", "rbf", "--config", cfg) == 4
    assert "latent.snp.meta.json: no 'basis_sha256'" in capsys.readouterr().err
    record.unlink()
    assert run("fit", "--method", "rbf", "--config", cfg) == 4
    assert "latent.snp.meta.json: missing" in capsys.readouterr().err
    assert not (out / "model_rbf.rbf").exists()


# fit ---------------------------------------------------------------------


def test_fit_rbf_records_shape_factor(pipeline):
    model = rbf_mod.load_model(pipeline.out / "model_rbf.rbf")
    assert model.shape_factor == 0.05
    assert model.dim == 2


def test_fit_node_preset_name_survives_serialization(tmp_path):
    cfg = write_cfg(
        tmp_path,
        pod={"rank": 2},
        node={"preset": "NODE1", "epochs": 2},
    )
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    run_ok("fit", "--method", "node", "--config", cfg)
    net = load_net(tmp_path / "model_node.net")
    assert net.name == "NODE1"
    assert net.sizes == (3, 256, 2)
    assert net.activations == ("elu", "linear")


@pytest.fixture(scope="module")
def latent_dir(tmp_path_factory):
    """A decomposed rank-2 wave, ready for fit."""
    out = tmp_path_factory.mktemp("wave_latent")
    cfg = write_cfg(out, pod={"rank": 2}, dmd={"rank": 2})
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    return out


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_fit_node_preset_builds_its_net(latent_dir, tmp_path, name):
    p = PRESETS[name]
    cfg = write_cfg(tmp_path, node={"preset": name, "epochs": 0})
    run_ok("fit", "--method", "node", "--config", cfg, "--out", str(latent_dir))
    net = load_net(latent_dir / "model_node.net")
    state = 2 + (1 if p["augmented"] else 0)
    hidden = p["hidden"]
    assert net.sizes == (state + 1, *hidden, state)
    assert net.activations == (p["activation"],) * len(hidden) + ("linear",)
    assert net.augment_dim == (1 if p["augmented"] else 0)
    assert (net.scale is not None) == p["scaling"]
    assert net.name == name


def test_fit_node_epochs_beyond_the_bound_is_config_error(latent_dir, tmp_path,
                                                       capsys):
    # refused at config load, before a history of that many epochs is
    # allocated
    cfg = write_cfg(tmp_path, node={"hidden": [4], "activation": "tanh",
                                    "epochs": 1_000_000_000_000})
    assert run("fit", "--method", "node", "--config", cfg,
               "--out", str(latent_dir)) == 2
    assert "'node.epochs' must be in [0, 1000000]" in capsys.readouterr().err


def test_fit_node_stage_buffers_beyond_the_limit_exit_2(latent_dir, tmp_path,
                                                      capsys):
    # backprop would cache 396 stage rows 400009 values wide, 1.18 GiB: the
    # size is refused before anything that large is allocated (the net's
    # weights are 10 MB)
    cfg = write_cfg(tmp_path, node={"hidden": [200_000], "activation": "tanh",
                                    "epochs": 1})
    tracemalloc.start()
    try:
        code = run("fit", "--method", "node", "--config", cfg,
                   "--out", str(latent_dir))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "1.18 GiB" in err and "limit of 1 GiB" in err
    assert 'grad_mode "adjoint"' in err
    assert peak < 64e6


def test_fit_node_weights_beyond_the_limit_exit_2(latent_dir, tmp_path,
                                                 capsys):
    # 10^10 weights, 80 GB: refused before the first draw, with no traceback
    cfg = write_cfg(tmp_path, node={"hidden": [100_000, 100_000],
                                    "activation": "tanh", "epochs": 1})
    tracemalloc.start()
    try:
        code = run("fit", "--method", "node", "--config", cfg,
                   "--out", str(latent_dir))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "100000, 100000" in err and "limit of 1 GiB" in err
    assert peak < 16e6


def test_fit_dmd_rank_beyond_columns_is_argument_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dmd={"rank": 20})
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["input"]["t_end"] = 0.2  # 21 snapshots, so ranks stop at M-1 = 20
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    run_ok("generate", "--config", cfg)
    assert run("fit", "--method", "dmd", "--config", cfg) == 3
    assert "numerical rank" in capsys.readouterr().err
    doc["dmd"]["rank"] = 21
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run("fit", "--method", "dmd", "--config", cfg) == 2
    assert "rank must be in [1, 20]" in capsys.readouterr().err


def test_fit_dmd_rank_beyond_numerical_rank_is_numerical_error(
        tmp_path, capsys):
    cfg = write_cfg(tmp_path, dmd={"rank": 50})
    run_ok("generate", "--config", cfg)
    assert run("fit", "--method", "dmd", "--config", cfg) == 3
    assert "numerical rank" in capsys.readouterr().err


def test_fit_rbf_and_dmd_take_a_grid_far_from_time_zero(tmp_path):
    # the steps of t = 1e5 + 0.01 k are off by more than 1e-9 of dt, as
    # every uniform grid's are that far from t = 0
    cfg = write_cfg(tmp_path, pod={"rank": 2}, rbf={"shape_factor": 0.05},
                    dmd={"rank": 2})
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["input"].update(t_start=100000.0, t_end=100000.99, dt=0.01)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    for command in (("generate",), ("decompose",), ("fit", "--method", "rbf"),
                    ("fit", "--method", "dmd")):
        run_ok(*command, "--config", cfg)
    assert load_snapshots(tmp_path / "snapshots.snp").n_snapshots == 100


def test_a_training_failure_names_its_physical_time(tmp_path, capsys):
    # dopri5 ends a step on each of the 121 training times, so its budget
    # of 50 runs out at the unit time 50/120, physical 10 + 12 * 50/120
    cfg = write_cfg(tmp_path, pod={"rank": 2}, node={
        "hidden": [4], "activation": "tanh", "epochs": 1,
        "solver": {"method": "dopri5", "max_steps": 50}})
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["input"] = {"kind": "harmonic_latent", "grid_points": 32,
                    "t_start": 10.0, "t_end": 22.0, "dt": 0.1}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    capsys.readouterr()
    assert run("fit", "--method", "node", "--config", cfg) == 3
    err = capsys.readouterr().err
    assert "dopri5 exceeded max_steps=50" in err
    t = float(re.search(r"at t=(\S+)$", err.strip())[1])
    assert 10.0 <= t <= 22.0


def test_fit_node_without_epochs_writes_strict_json_meta(latent_dir, tmp_path):
    cfg = write_cfg(tmp_path, node={"hidden": [4], "activation": "tanh",
                                    "epochs": 0})
    run_ok("fit", "--method", "node", "--config", cfg, "--out", str(latent_dir))
    meta = latent_dir / "model_node.net.meta.json"
    # NaN and Infinity are not JSON
    tree = json.loads(meta.read_text(), parse_constant=pytest.fail)
    assert tree["final_loss"] is None and tree["epochs"] == 0


def test_meta_writer_refuses_nan(tmp_path):
    artifact = tmp_path / "model_node.net"
    with pytest.raises(ValueError):
        cli_mod._write_meta(artifact, method="node", final_loss=float("nan"))
    # neither the record nor its temp file
    assert list(tmp_path.iterdir()) == []


def test_fit_writes_training_history(pipeline):
    with open(pipeline.out / "train_history.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 150
    losses = np.array([float(r["loss"]) for r in rows])
    assert losses[-1] < losses[0]


# predict -------------------------------------------------------------------


def test_predict_training_grid_dmd_matches_training_data(train_grid):
    truth = load_snapshots(train_grid.out / "snapshots.snp")
    pred = load_snapshots(train_grid.out / "pred_dmd.snp")
    assert np.allclose(pred.times, truth.times)
    assert np.max(np.abs(pred.data - truth.data)) < 1e-8


def test_predict_training_grid_rbf_matches_training_data(train_grid):
    truth = load_snapshots(train_grid.out / "snapshots.snp")
    pred = load_snapshots(train_grid.out / "pred_rbf.snp")
    assert np.max(np.abs(pred.data - truth.data)) < 1e-8


def test_predict_quarter_step_grows_columns_fourfold_minus_three(pipeline):
    pred = load_snapshots(pipeline.out / "pred_dmd.snp")
    assert pred.data.shape[1] == 4 * 100 - 3
    assert pred.times[1] - pred.times[0] == pytest.approx(0.0025)


def test_predict_dimension_mismatch_names_both_dims(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        pod={"rank": 2},
        rbf={"shape_factor": 0.05},
        predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.01},
    )
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    run_ok("fit", "--method", "rbf", "--config", cfg)
    # shrink the basis after fitting so the model no longer matches
    doc = json.loads((tmp_path / "cfg.json").read_text())
    doc["pod"] = {"rank": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    run_ok("decompose", "--config", cfg)
    assert run("predict", "model_rbf.rbf", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "2 latent components" in err
    assert "1 mode" in err


def test_predict_missing_model_file_is_io_error(train_grid, capsys):
    assert run("predict", "no_such.rbf", "--config", train_grid.cfg) == 4


def test_predict_rejects_non_model_file(train_grid, capsys):
    rc = run("predict", str(train_grid.out / "snapshots.snp"),
             "--config", train_grid.cfg)
    assert rc == 4
    assert "not a model file" in capsys.readouterr().err


def test_predict_hostile_basis_header_is_format_error(tmp_path, capsys):
    # a POD1 header declaring N = m = 2^32 - 1 over a few bytes of payload
    cfg = write_cfg(
        tmp_path,
        pod={"rank": 2},
        rbf={"shape_factor": 0.05},
        predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.01},
    )
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    run_ok("fit", "--method", "rbf", "--config", cfg)
    huge = (2**32 - 1).to_bytes(4, "little")
    (tmp_path / "basis.pod").write_bytes(
        b"POD1" + (1).to_bytes(4, "little") + huge + huge
        + (1).to_bytes(2, "little") + b"u" + bytes(8) + bytes(64)
    )
    with pytest.raises(FormatError, match="truncated"):
        load_basis(tmp_path / "basis.pod")
    assert run("predict", "model_rbf.rbf", "--config", cfg) == 4
    assert "truncated" in capsys.readouterr().err


def _at_16(value):
    """Overwrite the field that starts after magic, version and two u32s."""
    return lambda blob: blob[:16] + value + blob[16 + len(value):]


@pytest.mark.parametrize("name,corrupt", [
    ("model_node.net", _at_16(struct.pack("<I", 7))),  # hidden width
    ("model_rbf.rbf", _at_16(struct.pack("<d", -1.0))),  # shape factor
    ("model_dmd.dmd", _at_16(struct.pack("<d", 0.0))),  # time step
    ("basis.pod", lambda blob: blob[:-1]),
], ids=["node", "rbf", "dmd", "basis"])
def test_predict_corrupt_container_exits_4(pipeline, tmp_path, capsys,
                                           name, corrupt):
    out = tmp_path / "run"
    shutil.copytree(pipeline.out, out)
    (out / name).write_bytes(corrupt((out / name).read_bytes()))
    cfg = write_cfg(out, pod={"rank": 2}, rbf={"shape_factor": 0.05},
                    predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.01})
    model = name if name.startswith("model_") else "model_rbf.rbf"
    assert run("predict", model, "--config", cfg) == 4
    assert name in capsys.readouterr().err


@pytest.fixture(scope="module")
def other_run(tmp_path_factory):
    """A rank-2 decomposition of a shorter window of the same wave: basis
    and latent files that load like the pipeline's but hold other values."""
    out = tmp_path_factory.mktemp("wave_other")
    cfg = write_cfg(out, pod={"rank": 2}, dmd={"rank": 2})
    doc = json.loads((out / "cfg.json").read_text())
    doc["input"]["t_end"] = 0.49
    (out / "cfg.json").write_text(json.dumps(doc))
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    return out


def _predict_copy(pipeline, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(pipeline.out, out)
    cfg = write_cfg(out, pod={"rank": 2}, rbf={"shape_factor": 0.05},
                    predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.01})
    return out, cfg


@pytest.mark.parametrize("method", ["rbf", "node"])
def test_fit_records_sha256_of_basis_and_latent(pipeline, method):
    meta = json.loads(
        (pipeline.out / f"model_{method}.{_EXT[method]}.meta.json").read_text())
    for key, name in (("basis_sha256", "basis.pod"),
                      ("latent_sha256", "latent.snp")):
        digest = hashlib.sha256((pipeline.out / name).read_bytes()).hexdigest()
        assert meta[key] == digest


@pytest.mark.parametrize("swapped", [
    ("basis.pod",), ("latent.snp",), ("basis.pod", "latent.snp"),
], ids=["basis", "latent", "both"])
@pytest.mark.parametrize("method", ["rbf", "node"])
def test_predict_refuses_another_runs_basis_or_latent(
        pipeline, other_run, tmp_path, capsys, method, swapped):
    out, cfg = _predict_copy(pipeline, tmp_path)
    (out / f"pred_{method}.snp").unlink()
    for name in swapped:
        shutil.copyfile(other_run / name, out / name)
    assert run("predict", f"model_{method}.{_EXT[method]}", "--config", cfg) == 2
    err = capsys.readouterr().err
    key = {"basis.pod": "basis_sha256", "latent.snp": "latent_sha256"}[swapped[0]]
    assert f"model_{method}.{_EXT[method]}.meta.json records {key} " in err
    assert f"run 'nirom fit --method {method}' again" in err
    assert not (out / f"pred_{method}.snp").exists()


@pytest.mark.parametrize("damage", ["meta file", "basis_sha256", "latent_sha256"])
@pytest.mark.parametrize("method", ["rbf", "node"])
def test_predict_without_the_fit_record_exits_4(pipeline, tmp_path, capsys,
                                                method, damage):
    out, cfg = _predict_copy(pipeline, tmp_path)
    (out / f"pred_{method}.snp").unlink()
    meta = out / f"model_{method}.{_EXT[method]}.meta.json"
    tree = json.loads(meta.read_text())
    if damage == "meta file":
        meta.unlink()
    else:
        meta.write_text(json.dumps({k: v for k, v in tree.items() if k != damage}))
    assert run("predict", f"model_{method}.{_EXT[method]}", "--config", cfg) == 4
    err = capsys.readouterr().err
    assert meta.name in err
    if damage != "meta file":
        assert f"no '{damage}'" in err
    assert not (out / f"pred_{method}.snp").exists()
    # the whole record with a key the check does not name is accepted
    meta.write_text(json.dumps({**tree, "note": "extra"}))
    run_ok("predict", f"model_{method}.{_EXT[method]}", "--config", cfg)


def test_predict_from_another_start_time_is_config_error(pipeline, tmp_path,
                                                        capsys):
    out, cfg = _predict_copy(pipeline, tmp_path)
    doc = json.loads(Path(cfg).read_text())
    doc["predict"]["t_start"] = 0.5
    Path(cfg).write_text(json.dumps(doc))
    for method in ("rbf", "node"):
        (out / f"pred_{method}.snp").unlink()
        assert run("predict", f"model_{method}.{_EXT[method]}",
                   "--config", cfg) == 2, method
        err = capsys.readouterr().err
        assert "'predict.t_start' is 0.5" in err and "at t=0.0;" in err
        assert "np.float64" not in err
        assert not (out / f"pred_{method}.snp").exists()
    # DMD keeps its own start time, so any grid after it is fine
    run_ok("predict", "model_dmd.dmd", "--config", cfg)


def test_predict_infinite_grid_end_is_config_error(train_grid, tmp_path,
                                                   capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": WAVE_INPUT, "output_dir": str(train_grid.out),
        "dmd": {"rank": 2},
        "predict": {"t_start": 0.0, "t_end": "@", "dt": 0.01},
    }).replace('"@"', "Infinity"))
    assert run("predict", "model_dmd.dmd", "--config", str(cfg)) == 2
    assert "'predict.t_end' must be a finite number" in capsys.readouterr().err


def test_predict_overflowing_grid_is_config_error(train_grid, tmp_path,
                                                  capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": WAVE_INPUT, "output_dir": str(train_grid.out),
        "dmd": {"rank": 2},
        "predict": {"t_start": 0.0, "t_end": 1e300, "dt": 1e-300},
    }))
    assert run("predict", "model_dmd.dmd", "--config", str(cfg)) == 2
    assert "'predict.dt' is too fine" in capsys.readouterr().err


def test_predict_one_point_grid_is_config_error_for_every_method(
        pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": WAVE_INPUT, "output_dir": str(pipeline.out),
        "dmd": {"rank": 2},
        "predict": {"t_start": 0.0, "t_end": 0.99, "dt": 1.0},
    }))
    for method in ("rbf", "node", "dmd"):
        model = f"model_{method}.{_EXT[method]}"
        assert run("predict", model, "--config", str(cfg)) == 2, method
        assert "predict.dt" in capsys.readouterr().err


def test_predict_node_takes_every_grid_rbf_and_dmd_take(latent_dir, tmp_path):
    # 100001 intervals of 1e-6: more steps than SolverSpec's default cap,
    # but a grid well under MAX_GRID_TIMES, which rbf and dmd forecast
    out = tmp_path / "run"
    shutil.copytree(latent_dir, out)
    cfg = write_cfg(out, pod={"rank": 2},
                    node={"hidden": [4], "activation": "tanh", "epochs": 0},
                    predict={"t_start": 0.0, "t_end": 0.100001, "dt": 1e-6})
    run_ok("fit", "--method", "node", "--config", cfg)
    run_ok("predict", "model_node.net", "--config", cfg)
    assert load_snapshots(out / "pred_node.snp").n_snapshots == 100002


# compare / report ------------------------------------------------------------


def test_compare_identical_files_gives_zero_rmse(train_grid):
    truth = train_grid.out / "snapshots.snp"
    run_ok("compare", str(truth), str(truth), "--out", str(train_grid.out))
    with open(train_grid.out / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    assert all(float(r["rmse"]) == 0.0 for r in rows)


def test_compare_emits_one_group_per_method(pipeline):
    tree = json.loads((pipeline.out / "metrics.json").read_text())
    assert sorted(tree) == ["dmd", "node", "rbf"]
    for method in tree:
        body = tree[method]["u"]
        assert len(body["rmse"]) == 397
        assert body["latent_dim"] == 2


def test_end_to_end_dmd_beats_rbf_and_both_stay_small(pipeline):
    tree = json.loads((pipeline.out / "metrics.json").read_text())
    rbf_rmse = np.array(tree["rbf"]["u"]["rmse"])
    dmd_rmse = np.array(tree["dmd"]["u"]["rmse"])
    assert np.all(dmd_rmse < rbf_rmse)
    assert np.all(rbf_rmse < 1e-2)  # wave amplitude is 1


def test_report_reemits_identical_csv(pipeline, tmp_path):
    run_ok("report", str(pipeline.out / "metrics.json"),
           "--format", "csv", "--out", str(tmp_path))
    assert ((tmp_path / "metrics.csv").read_bytes()
            == (pipeline.out / "metrics.csv").read_bytes())


def test_report_json_round_trip(pipeline, tmp_path):
    run_ok("report", str(pipeline.out / "metrics.json"),
           "--format", "json", "--out", str(tmp_path))
    a = json.loads((tmp_path / "metrics.json").read_text())
    b = json.loads((pipeline.out / "metrics.json").read_text())
    assert a == b


def test_report_rejects_malformed_metrics(tmp_path, capsys):
    bad = tmp_path / "metrics.json"
    bad.write_text("{broken")
    assert run("report", str(bad), "--out", str(tmp_path)) == 4


_SERIES = {"latent_dim": 2, "runtime_seconds": 0.5, "times": [0.0, 1.0],
           "rmse": [0.1, 0.2]}


@pytest.mark.parametrize("tree", [
    {"rbf": {"u": {}}},
    {"rbf": {"u": {k: v for k, v in _SERIES.items() if k != "rmse"}}},
    [1, 2],
    {"rbf": 3},
    {"rbf": {"u": [0.1]}},
    {"rbf": {"u": dict(_SERIES, times="soon")}},
    {"rbf": {"u": dict(_SERIES, latent_dim=None)}},
    {"rbf": {"u": dict(_SERIES, rmse=[0.1])}},
    {"rbf": {"u": dict(_SERIES, times=[[0.0, 1.0]], rmse=[[0.1, 0.2]])}},
], ids=["empty-body", "no-rmse", "list", "method-int", "body-list",
        "times-str", "latent-null", "short-rmse", "matrix-series"])
def test_report_missing_or_mistyped_key_exits_4(tmp_path, capsys, tree):
    bad = tmp_path / "metrics.json"
    bad.write_text(json.dumps(tree))
    assert run("report", str(bad), "--out", str(tmp_path)) == 4
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("meta", [
    "{broken", "[1]", '{"latent_dim": "two"}', '{"method": 5}',
    '{"method": ["rbf"]}',
], ids=["not-json", "list", "latent-str", "method-int", "method-list"])
def test_compare_corrupt_prediction_meta_exits_4(train_grid, tmp_path, capsys,
                                                 meta):
    pred = tmp_path / "pred_rbf.snp"
    shutil.copy(train_grid.out / "pred_rbf.snp", pred)
    bad = tmp_path / "pred_rbf.snp.meta.json"
    bad.write_text(meta)
    truth = train_grid.out / "snapshots.snp"
    assert run("compare", str(truth), str(pred), "--out", str(tmp_path)) == 4
    assert str(bad) in capsys.readouterr().err


def test_compare_deeply_nested_prediction_meta_exits_4(train_grid, tmp_path,
                                                       capsys):
    pred = tmp_path / "pred_rbf.snp"
    shutil.copy(train_grid.out / "pred_rbf.snp", pred)
    bad = tmp_path / "pred_rbf.snp.meta.json"
    bad.write_text("[" * 200_000 + "]" * 200_000)
    truth = train_grid.out / "snapshots.snp"
    assert run("compare", str(truth), str(pred), "--out", str(tmp_path)) == 4
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("key,raw", [
    ("latent_dim", "1e400"), ("latent_dim", "true"), ("runtime_seconds", '"nan"'),
], ids=["latent-overflow", "latent-bool", "runtime-str"])
@pytest.mark.parametrize("artifact", ["metrics", "prediction-record"])
def test_a_json_number_the_config_would_refuse_exits_4(train_grid, tmp_path,
                                                        capsys, artifact, key,
                                                        raw):
    # both artifacts are read through the config's typed getter: a number
    # must be finite, and a boolean is never one
    if artifact == "metrics":
        bad = tmp_path / "metrics.json"
        tree = {"rbf": {"u": dict(_SERIES, **{key: "@"})}}
        argv = ("report", str(bad), "--out", str(tmp_path))
    else:
        pred = tmp_path / "pred_rbf.snp"
        shutil.copy(train_grid.out / "pred_rbf.snp", pred)
        bad = tmp_path / "pred_rbf.snp.meta.json"
        tree = dict({"method": "rbf", "latent_dim": 2, "runtime_seconds": 0.5},
                    **{key: "@"})
        argv = ("compare", str(train_grid.out / "snapshots.snp"), str(pred),
                "--out", str(tmp_path))
    bad.write_text(json.dumps(tree).replace('"@"', raw))
    assert run(*argv) == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(bad) in line
    assert not (tmp_path / "metrics.csv").exists()


def test_compare_series_are_spatial_rmse_of_the_loaded_sets(pipeline):
    tree = json.loads((pipeline.out / "metrics.json").read_text())
    truth = load_snapshots(pipeline.truth)
    for method in ("rbf", "dmd", "node"):
        pred = load_snapshots(pipeline.out / f"pred_{method}.snp")
        want = spatial_rmse(pred, truth)
        got = np.array(tree[method]["u"]["rmse"])
        assert got.tobytes() == want.tobytes(), method


def _broken(blob: bytes, fault: str) -> bytes:
    if fault == "truncated":
        return blob[:-8]
    if fault == "trailing":
        return blob + b"\0"
    # the field's last value, which the last column block reads
    return blob[:-8] + struct.pack("<d", np.inf)


@pytest.mark.parametrize("fault,message", [
    ("truncated", "truncated"), ("trailing", "trailing bytes"),
    ("non-finite", "non-finite value at row 63, column 99"),
])
def test_compare_refuses_a_broken_prediction_and_writes_no_metrics(
        train_grid, tmp_path, capsys, fault, message):
    good = tmp_path / "pred_rbf.snp"
    shutil.copy(train_grid.out / "pred_rbf.snp", good)
    bad = tmp_path / "pred_dmd.snp"
    bad.write_bytes(_broken((train_grid.out / "pred_dmd.snp").read_bytes(),
                            fault))
    truth = train_grid.out / "snapshots.snp"
    assert run("compare", str(truth), str(good), str(bad),
               "--out", str(tmp_path)) == 4
    err = capsys.readouterr().err
    assert str(bad) in err and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pred_dmd.snp",
                                                          "pred_rbf.snp"]


def test_compare_squared_error_past_the_largest_float_exits_3(tmp_path):
    # every value is finite, but 1e200 squared is not
    times = np.arange(5.0)
    save_snapshots(SnapshotSet(np.zeros((4, 5)), times), tmp_path / "truth.snp")
    pred = np.zeros((4, 5))
    pred[2, 3:] = 1e200
    save_snapshots(SnapshotSet(pred, times), tmp_path / "pred_rbf.snp")
    done = run_fresh("compare", str(tmp_path / "truth.snp"),
                     str(tmp_path / "pred_rbf.snp"), "--out", str(tmp_path))
    assert done.returncode == 3, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and str(tmp_path / "pred_rbf.snp") in line
    assert "column 3 overflows" in line
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("mismatch", ["shape", "times"])
def test_compare_shape_or_time_mismatch_exits_2(train_grid, tmp_path, capsys,
                                                mismatch):
    truth = load_snapshots(train_grid.out / "snapshots.snp")
    if mismatch == "shape":
        pred = SnapshotSet(truth.data[:, :-1], truth.times[:-1])
    else:
        pred = SnapshotSet(truth.data, truth.times + 0.5)
    save_snapshots(pred, tmp_path / "pred_rbf.snp")
    assert run("compare", str(train_grid.out / "snapshots.snp"),
               str(tmp_path / "pred_rbf.snp"), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert ("shape mismatch" if mismatch == "shape" else "disagree") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pred_rbf.snp"]


# config and flag handling ----------------------------------------------------


def test_deeply_nested_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 200_000 + "]" * 200_000)
    assert run("generate", "--config", str(cfg)) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "maybe"])
def test_numba_variable_is_ignored(tmp_path, value):
    """The kernels are plain numpy; NIROM_NUMBA selects nothing."""
    cfg = write_cfg(tmp_path, dmd={"rank": 2})
    done = run_fresh("generate", "--config", cfg, NIROM_NUMBA=value)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "snapshots.snp").exists()


def test_unknown_config_key_reports_dotted_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, pod={"rnak": 2}, dmd={"rank": 2})
    assert run("generate", "--config", cfg) == 2
    assert "pod.rnak" in capsys.readouterr().err


def test_missing_subcommand_arguments_exit_2(train_grid):
    with pytest.raises(SystemExit) as exc:
        run("fit", "--config", train_grid.cfg)  # no --method
    assert exc.value.code == 2


def test_parser_is_built_once_and_answers_alike(capsys):
    assert cli_mod.build_parser() is cli_mod.build_parser()
    said = []
    for argv in (["--help"], ["fit", "--help"], ["fit", "--method", "svm"],
                 ["--help"], ["fit", "--help"], ["fit", "--method", "svm"]):
        with pytest.raises(SystemExit):
            main(argv)
        said.append(capsys.readouterr())
    assert said[:3] == said[3:]
    assert "usage: nirom" in said[0].out
    assert "invalid choice: 'svm'" in said[2].err


def test_out_flag_overrides_config_directory(tmp_path):
    cfg_dir = tmp_path / "cfgside"
    cfg_dir.mkdir()
    other = tmp_path / "elsewhere"
    cfg = write_cfg(cfg_dir, dmd={"rank": 2})
    run_ok("generate", "--config", cfg, "--out", str(other))
    assert (other / "snapshots.snp").exists()
    assert not (cfg_dir / "snapshots.snp").exists()


def test_env_var_supplies_default_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "envdir"
    monkeypatch.setenv("NIROM_OUT_DIR", str(target))
    doc = {"input": dict(WAVE_INPUT), "dmd": {"rank": 2}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    run_ok("generate", "--config", str(cfg))
    assert (target / "snapshots.snp").exists()


def test_seed_flag_overrides_config_seed(tmp_path):
    for sub, seed_args in (("a", []), ("b", ["--seed", "21"])):
        d = tmp_path / sub
        d.mkdir()
        cfg = write_cfg(d, seed=7, dmd={"rank": 2})
        doc = json.loads((d / "cfg.json").read_text())
        doc["input"] = {"kind": "harmonic_latent", "grid_points": 16,
                        "t_end": 1.0, "dt": 0.1}
        (d / "cfg.json").write_text(json.dumps(doc))
        run_ok("generate", "--config", cfg, *seed_args)
    a = (tmp_path / "a" / "snapshots.snp").read_bytes()
    b = (tmp_path / "b" / "snapshots.snp").read_bytes()
    assert a != b  # harmonic_latent lift depends on the seed


@pytest.mark.parametrize("config_seed,flag", [
    (2**64, []), (0, ["--seed", "-1"]), (0, ["--seed", str(2**64)]),
])
def test_seed_outside_u64_range_is_config_error(latent_dir, tmp_path, capsys,
                                                config_seed, flag):
    cfg = write_cfg(tmp_path, seed=config_seed,
                    node={"hidden": [4], "activation": "tanh", "epochs": 1})
    rc = run("fit", "--method", "node", "--config", cfg,
             "--out", str(latent_dir), *flag)
    assert rc == 2
    assert "'seed'" in capsys.readouterr().err


def test_training_blowup_is_numerical_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        pod={"rank": 2},
        node={"hidden": [8], "activation": "relu", "epochs": 40,
              "learning_rate": 1e12},
    )
    run_ok("generate", "--config", cfg)
    run_ok("decompose", "--config", cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run("fit", "--method", "node", "--config", cfg)
    assert rc == 3


def test_loss_overflow_reports_its_error_alone(latent_dir, tmp_path, capsys):
    # the first update overflows the weights, and the next loss with them;
    # training names the epoch, and numpy's own warning stays quiet
    out = tmp_path / "run"
    shutil.copytree(latent_dir, out)
    cfg = write_cfg(out, pod={"rank": 2}, node={
        "hidden": [4], "activation": "tanh", "epochs": 3,
        "learning_rate": 1e300})
    capsys.readouterr()
    assert run("fit", "--method", "node", "--config", cfg) == 3
    assert capsys.readouterr().err == (
        "error: loss became non-finite at epoch 1\n")


@pytest.mark.parametrize("step", [1e-300, 1e-20])
def test_fit_node_too_fine_a_solver_step_exits_3(latent_dir, tmp_path, capsys,
                                                step):
    out = tmp_path / "run"
    shutil.copytree(latent_dir, out)
    (out / "model_node.net").unlink(missing_ok=True)
    cfg = write_cfg(out, pod={"rank": 2}, node={
        "hidden": [4], "activation": "tanh", "epochs": 1,
        "solver": {"method": "rk4", "step": step}})
    assert run("fit", "--method", "node", "--config", cfg) == 3
    assert "max_steps is 100000" in capsys.readouterr().err
    assert not (out / "model_node.net").exists()


@pytest.mark.parametrize("command", [
    ("generate",), ("decompose",), ("fit", "--method", "node"),
])
def test_adjoint_with_dopri5_runs_past_config_load(latent_dir, tmp_path,
                                                   capsys, command):
    # the pairing is a valid config: each command that loads it runs through
    out = tmp_path / "run"
    shutil.copytree(latent_dir, out)
    (out / "model_node.net").unlink(missing_ok=True)
    cfg = write_cfg(out, pod={"rank": 2}, node={
        "hidden": [4], "activation": "tanh", "epochs": 1,
        "grad_mode": "adjoint", "solver": {"method": "dopri5"}})
    assert run(*command, "--config", cfg) == 0
    assert "'node.grad_mode'" not in capsys.readouterr().err
    assert (out / "model_node.net").exists() == (command[0] == "fit")


def test_fit_node_adjoint_with_dopri5_writes_the_backprop_net(latent_dir,
                                                              tmp_path):
    # both gradient modes take dopri5's recompute route: the same net
    nets = {}
    for mode in ("backprop_through_solver", "adjoint"):
        out = tmp_path / mode
        shutil.copytree(latent_dir, out)
        (out / "model_node.net").unlink(missing_ok=True)
        cfg = write_cfg(out, pod={"rank": 2}, node={
            "hidden": [4], "activation": "tanh", "epochs": 3,
            "grad_mode": mode, "solver": {"method": "dopri5"}})
        assert run("fit", "--method", "node", "--config", cfg) == 0
        nets[mode] = (out / "model_node.net").read_bytes()
    assert nets["adjoint"] == nets["backprop_through_solver"]


def test_max_steps_beyond_its_bound_exits_2_at_config_load(tmp_path, capsys):
    # a command that never integrates: the budget is refused as the config
    # loads, before any schedule could be counted or built
    cfg = write_cfg(tmp_path, node={
        "hidden": [4], "activation": "tanh", "epochs": 1,
        "solver": {"method": "rk4", "step": 1e-13, "max_steps": 10**17}})
    assert run("generate", "--config", cfg) == 2
    assert "'node.solver.max_steps' must be in" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


#: the exit code README.md documents for each exception cli.main maps
README_EXIT_CODES = {
    errors.ConfigError: 2, ValueError: 2,
    errors.NumericalError: 3,
    errors.FormatError: 4, errors.ValidationError: 4, OSError: 4,
}
#: every class nirom.errors defines but the base, which nothing raises
ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.NiromError)
    and cls is not errors.NiromError
]


@pytest.mark.parametrize("exc", [*ERROR_CLASSES, ValueError, OSError],
                         ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_readme_code(tmp_path, capsys,
                                                     monkeypatch, exc):
    assert exc in README_EXIT_CODES, f"{exc.__name__} has no exit code"

    def fail(*args):
        raise exc("planted failure")

    monkeypatch.setattr(cli_mod, "cmd_report", fail)
    assert run("report", "metrics.json", "--out", str(tmp_path)) == \
        README_EXIT_CODES[exc]
    assert capsys.readouterr().err == "error: planted failure\n"


def assert_numerical_failure(done, message):
    """Exit 3 with one error line and no raw numpy warning."""
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
    assert message in lines[0]


def save_dmd_model(model, out):
    """Save a hand-built DMD model into out with the record a fit writes
    beside it."""
    dmd_mod.save_model(model, out / "model_dmd.dmd")
    (out / "model_dmd.dmd.meta.json").write_text(json.dumps({"method": "dmd"}))


def test_overflowing_dmd_forecast_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, dmd={"rank": 1},
                    predict={"t_start": 0.0, "t_end": 2999.0, "dt": 1.0})
    save_dmd_model(
        dmd_mod.DmdModel(np.ones((3, 1)), [1.5], [1.0], dt=1.0, t0=0.0),
        tmp_path)
    done = run_fresh("predict", "model_dmd.dmd", "--config", cfg)
    assert_numerical_failure(done, "overflows at step 1751")
    assert not (tmp_path / "pred_dmd.snp").exists()


def test_dmd_overflow_mid_stream_exits_3_and_leaves_no_file(tmp_path):
    # 200 rows: blocks of 655 columns, so step 1751 is in the third block,
    # after two blocks went to the temp file
    cfg = write_cfg(tmp_path, dmd={"rank": 1},
                    predict={"t_start": 0.0, "t_end": 2999.0, "dt": 1.0})
    save_dmd_model(
        dmd_mod.DmdModel(np.ones((200, 1)), [1.5], [1.0], dt=1.0, t0=0.0),
        tmp_path)
    done = run_fresh("predict", "model_dmd.dmd", "--config", cfg)
    assert_numerical_failure(done, "overflows at step 1751")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "model_dmd.dmd", "model_dmd.dmd.meta.json"]


def test_overflowing_rbf_forecast_exits_3(latent_dir, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(latent_dir, out)
    cfg = write_cfg(out, pod={"rank": 2}, rbf={"shape_factor": 1.0},
                    predict={"t_start": 0.0, "t_end": 2e10, "dt": 1e10})
    run_ok("fit", "--method", "rbf", "--config", cfg)
    model_file = out / "model_rbf.rbf"
    fitted = rbf_mod.load_model(model_file)
    rbf_mod.save_model(rbf_mod.RbfModel(
        fitted.centers, np.full_like(fitted.coefficients, 1e300), 1.0),
        model_file)
    done = run_fresh("predict", "model_rbf.rbf", "--config", cfg)
    assert_numerical_failure(done, "RBF forecast became non-finite")
    assert not (out / "pred_rbf.snp").exists()


def test_overflowing_node_forecast_exits_3(latent_dir, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(latent_dir, out)
    cfg = write_cfg(out, pod={"rank": 2},
                    node={"hidden": [4], "activation": "relu", "epochs": 0},
                    predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.01})
    run_ok("fit", "--method", "node", "--config", cfg)
    model_file = out / "model_node.net"
    fitted = load_net(model_file)
    save_net(fitted.with_params(np.full_like(fitted.params, 1e300)), model_file)
    done = run_fresh("predict", "model_node.net", "--config", cfg)
    assert_numerical_failure(done, "non-finite at step ")
    # the step's physical time, not its time on the net's unit interval
    k = int(re.search(r"at step (\d+) ", done.stderr).group(1))
    assert f"(t={time_grid(0.0, 0.99, 0.01)[k]:.6g})" in done.stderr
    assert not (out / "pred_node.snp").exists()


def test_dmd_field_overflow_exits_3(tmp_path):
    # the spectral coefficients stay at 1e10; the 1e300 modes overflow them
    cfg = write_cfg(tmp_path, dmd={"rank": 1},
                    predict={"t_start": 0.0, "t_end": 3.0, "dt": 1.0})
    save_dmd_model(
        dmd_mod.DmdModel(np.full((3, 1), 1e300), [1.0], [1e10], dt=1.0, t0=0.0),
        tmp_path)
    done = run_fresh("predict", "model_dmd.dmd", "--config", cfg)
    assert_numerical_failure(done, "overflows at step 0 (t=0)")
    assert not (tmp_path / "pred_dmd.snp").exists()


def test_rbf_field_overflow_exits_3(latent_dir, tmp_path):
    # a still latent state of 1.5e308 on two 0.7 modes: the latent forecast
    # is finite, its lift to the full field is not
    out = tmp_path / "run"
    shutil.copytree(latent_dir, out)
    cfg = write_cfg(out, pod={"rank": 2}, rbf={"shape_factor": 1.0},
                    predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.01})
    run_ok("fit", "--method", "rbf", "--config", cfg)
    model_file = out / "model_rbf.rbf"
    fitted = rbf_mod.load_model(model_file)
    rbf_mod.save_model(rbf_mod.RbfModel(
        fitted.centers, np.zeros_like(fitted.coefficients), 1.0), model_file)
    latent = load_snapshots(out / "latent.snp")
    save_snapshots(SnapshotSet(np.full_like(latent.data, 1.5e308), latent.times),
                   out / "latent.snp")
    basis = load_basis(out / "basis.pod")
    save_basis(PodBasis(np.full_like(basis.modes, 0.7), basis.singular,
                        basis.mean), out / "basis.pod")
    meta = Path(str(model_file) + ".meta.json")
    tree = json.loads(meta.read_text())
    for key, name in (("basis_sha256", "basis.pod"),
                      ("latent_sha256", "latent.snp")):
        tree[key] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    meta.write_text(json.dumps(tree))
    done = run_fresh("predict", "model_rbf.rbf", "--config", cfg)
    assert_numerical_failure(done, "full field overflows at step 0 (t=0)")
    assert not (out / "pred_rbf.snp").exists()


def test_fit_rbf_unsolvable_system_exits_3(latent_dir, tmp_path, capsys):
    # centers 1e-10 apart: the shifted retry misses the tolerance too
    out = tmp_path / "run"
    shutil.copytree(latent_dir, out)
    save_snapshots(SnapshotSet(np.array([[0.0, 1e-10, 3e-10]]),
                               np.arange(3.0)), out / "latent.snp")
    cfg = write_cfg(out, rbf={"shape_factor": 1.0})
    assert run("fit", "--method", "rbf", "--config", cfg) == 3
    assert "diagonal shift" in capsys.readouterr().err
    assert not (out / "model_rbf.rbf").exists()


def test_fit_rbf_beyond_the_center_limit_exits_2(tmp_path, capsys):
    # one input time more than MAX_CENTERS + 1: one center too many
    dt = 2.0 ** -10
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": dict(WAVE_INPUT, grid_points=8, dt=dt,
                      t_end=(rbf_mod.MAX_CENTERS + 1) * dt),
        "output_dir": str(tmp_path), "pod": {"rank": 2},
        "rbf": {"shape_factor": 1.0},
    }))
    run_ok("generate", "--config", str(cfg))
    run_ok("decompose", "--config", str(cfg))
    latent = load_snapshots(tmp_path / "latent.snp")
    assert latent.n_snapshots == rbf_mod.MAX_CENTERS + 2
    capsys.readouterr()
    assert run("fit", "--method", "rbf", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert f"{rbf_mod.MAX_CENTERS + 1} RBF centers" in err
    assert f"limit of {rbf_mod.MAX_CENTERS}" in err
    assert "'input.dt'" in err
    assert not (tmp_path / "model_rbf.rbf").exists()


def test_importing_the_cli_loads_no_scipy():
    # only fit --method rbf needs scipy, and imports it itself
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, nirom.cli; print(sorted(m for m in sys.modules"
         " if m.partition('.')[0] == 'scipy'))"],
        env=dict(os.environ, PYTHONPATH=str(Path(nirom.__file__).parents[1])),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_full_pipeline_is_byte_deterministic(tmp_path):
    files = ("snapshots.snp", "basis.pod", "latent.snp", "model_rbf.rbf",
             "model_dmd.dmd", "model_node.net", "pred_dmd.snp")
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        cfg = write_cfg(
            d, seed=11,
            pod={"rank": 2},
            rbf={"shape_factor": 0.05},
            dmd={"rank": 2},
            node={"hidden": [8], "activation": "tanh", "epochs": 20},
            predict={"t_start": 0.0, "t_end": 0.99, "dt": 0.005},
        )
        run_ok("generate", "--config", cfg)
        run_ok("decompose", "--config", cfg)
        for method in ("rbf", "dmd", "node"):
            run_ok("fit", "--method", method, "--config", cfg)
        run_ok("predict", "model_dmd.dmd", "--config", cfg)
    for name in files:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
