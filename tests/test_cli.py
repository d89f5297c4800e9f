"""Command-line pipeline: artifacts, exit codes, determinism.

The shared fixtures run the traveling-wave pipeline once per module; the
wave is exactly rank 2, so truncation at rank 2 is lossless and the latent
one-step map is a pure rotation.
"""

import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nirom
from nirom import dmd as dmd_mod
from nirom import rbf as rbf_mod
from nirom.cli import main
from nirom.containers import peek_magic
from nirom.errors import FormatError
from nirom.node import PRESETS, load_net
from nirom.pod import load_basis
from nirom.snapshot import load_snapshots

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


def test_decompose_writes_latent_trajectory(pipeline):
    latent = load_snapshots(pipeline.out / "latent.snp")
    assert latent.data.shape == (2, 100)


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
    state = 2 + (1 if p.augmented else 0)
    assert net.sizes == (state + 1, *[p.width] * p.n_hidden, state)
    assert net.activations == (p.activation,) * p.n_hidden + ("linear",)
    assert net.augment_dim == (1 if p.augmented else 0)
    assert (net.scale is not None) == p.scaling
    assert net.name == name


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
    "{broken", "[1]", '{"latent_dim": "two"}',
], ids=["not-json", "list", "latent-str"])
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
    env = dict(os.environ, NIROM_NUMBA=value,
               PYTHONPATH=str(Path(nirom.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "nirom.cli", "generate", "--config", cfg],
        env=env, capture_output=True, text=True, timeout=120,
    )
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
