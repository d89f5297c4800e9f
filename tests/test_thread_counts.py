"""Outputs across BLAS thread counts.

Artifacts are byte-identical for one numpy/BLAS build at one thread count;
another thread count may change how BLAS orders a sum. One small chain runs
in two fresh interpreters, at one and at two OpenBLAS threads, and every
array it writes must agree to roundoff: 1e-12 relative to the array's
largest magnitude, the POD modes with the same signs, and each method's
largest RMSE over time to 1e-10 relative, floored at RMSE_FLOOR as the
benchmark reports it: below that an RMSE is roundoff itself.

One array of the model files is compared through what it determines. An
RBF model's coefficients solve an interpolation system whose condition
number (about 8e3 here) amplifies the roundoff, so the interpolant's values
at its centers are compared. A DMD mode's free complex phase is fixed by a
rule that tolerates the ties of a traveling wave's components (dmd.dmd_fit),
so modes and amplitudes are compared as they are.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nirom
from nirom import dmd as dmd_mod
from nirom import rbf as rbf_mod
from nirom.node import load_net
from nirom.pod import load_basis
from nirom.snapshot import load_snapshots

#: the least RMSE the benchmark reports (perfbench/workloads.py)
RMSE_FLOOR = 1e-9

CHAIN = [("generate",), ("decompose",)] + [
    step for m, ext in (("rbf", "rbf"), ("node", "net"), ("dmd", "dmd"))
    for step in (("fit", "--method", m), ("predict", f"model_{m}.{ext}"))]

LOADERS = {
    "snapshots.snp": load_snapshots, "latent.snp": load_snapshots,
    "basis.pod": load_basis, "model_rbf.rbf": rbf_mod.load_model,
    "model_node.net": load_net, "model_dmd.dmd": dmd_mod.load_model,
    "pred_rbf.snp": load_snapshots, "pred_node.snp": load_snapshots,
    "pred_dmd.snp": load_snapshots,
}


def write_cfg(out: Path, dt: float) -> str:
    """A chain's config on a wave sampled every dt, writing into out."""
    out.mkdir()
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({
        "input": {"kind": "traveling_wave", "grid_points": 2000,
                  "t_start": 0.0, "t_end": 0.99, "dt": dt},
        "output_dir": str(out), "seed": 5,
        "pod": {"rank": 2}, "rbf": {"shape_factor": 0.05},
        "dmd": {"rank": 2},
        "node": {"hidden": [8], "activation": "tanh", "epochs": 20},
        "predict": {"t_start": 0.0, "t_end": 0.99, "dt": 0.005},
    }))
    return str(cfg)


def run_chain(out: Path, threads: int) -> None:
    """The chain, then compare against the wave on the prediction grid, in
    one fresh interpreter at the given OpenBLAS thread count."""
    cfg = write_cfg(out, 0.01)
    truth = write_cfg(out / "truth", 0.005)
    steps = [[*step, "--config", cfg] for step in CHAIN]
    steps.append(["generate", "--config", truth])
    steps.append(["compare", str(out / "truth" / "snapshots.snp"),
                  *(str(out / f"pred_{m}.snp") for m in ("rbf", "node", "dmd")),
                  "--out", str(out)])
    script = ("import sys; from nirom.cli import main\n"
              f"for argv in {steps!r}:\n"
              "    code = main(argv)\n"
              "    if code: sys.exit(f'{argv}: exit {code}')\n")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                 PYTHONPATH=str(Path(nirom.__file__).parents[1])),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def rbf_values(model) -> np.ndarray:
    """An RBF interpolant's values at its own centers."""
    gaps = model.centers[:, :, None] - model.centers[:, None, :]
    return model.coefficients @ np.exp(
        -model.shape_factor * np.sqrt(np.sum(gaps * gaps, axis=0)))


#: model fields compared through what they determine (module docstring)
FREE = {(rbf_mod.RbfModel, "coefficients")}


def arrays(obj, prefix=""):
    """(name, array) for every float array a loaded artifact holds, its
    nested records' included, a FREE field's in what it determines."""
    if isinstance(obj, rbf_mod.RbfModel):
        yield "values at centers", rbf_values(obj)
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        name = prefix + field.name
        if (type(obj), field.name) in FREE:
            continue
        if dataclasses.is_dataclass(value):
            yield from arrays(value, name + ".")
        elif isinstance(value, (np.ndarray, float)):
            yield name, np.asarray(value)


def test_one_and_two_blas_threads_agree_to_roundoff(tmp_path):
    run_chain(tmp_path / "one", 1)
    run_chain(tmp_path / "two", 2)
    for file, load in LOADERS.items():
        other = dict(arrays(load(tmp_path / "two" / file)))
        for name, x in arrays(load(tmp_path / "one" / file)):
            y = other[name]
            assert x.shape == y.shape, (file, name)
            scale = np.max(np.abs(x), initial=0.0)
            assert np.max(np.abs(x - y), initial=0.0) <= 1e-12 * scale, (
                file, name)
    one, two = (load_basis(tmp_path / d / "basis.pod").modes
                for d in ("one", "two"))
    assert np.all(np.sum(one * two, axis=0) > 0)
    rmse = [json.loads((tmp_path / d / "metrics.json").read_text())
            for d in ("one", "two")]
    for method in ("rbf", "node", "dmd"):
        x, y = (max(RMSE_FLOOR, *tree[method]["u"]["rmse"]) for tree in rmse)
        assert abs(x - y) <= 1e-10 * x, method
