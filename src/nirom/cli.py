"""Command-line front end.

Chains the pipeline stages over one JSON config:

    nirom generate  --config cfg.json          synthetic snapshots -> SNP1
    nirom decompose --config cfg.json          basis.pod + latent.snp + spectrum.csv
    nirom fit --method {rbf|node|dmd} ...      model_<method>.{rbf,net,dmd}
    nirom predict MODEL --config cfg.json      pred_<method>.snp
    nirom compare TRUTH PRED [PRED...]         metrics.csv + metrics.json
    nirom report METRICS.json --format csv     re-emit a metrics artifact

Exit codes: 0 success, 2 configuration/argument error, 3 numerical failure,
4 I/O or file-format error. The default output directory comes from --out,
then the config's output_dir, then $NIROM_OUT_DIR, then the working
directory.
"""

import argparse
import csv
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dmd as dmd_mod
from . import rbf as rbf_mod
from .config import PipelineConfig, load_config
from .containers import peek_magic, replacing
from .errors import (
    ConfigError,
    FitError,
    FormatError,
    NumericalError,
    ScalingError,
    SolverError,
    TrainingError,
    ValidationError,
)
from .metrics import MetricsReport, report_emit, spatial_rmse
from .node import build_net, load_net, node_forecast, save_net, scale_fit
from .node.training import attach_time_map, normalize_times, train
from .pod import (
    LatentTrajectory,
    energy_spectrum,
    load_basis,
    project,
    reconstruct,
    save_basis,
    thin_svd,
    truncate,
)
from .snapshot import (
    SnapshotSet,
    center,
    generate_synthetic,
    load_snapshots,
    save_snapshots,
    time_grid,
)

log = logging.getLogger("nirom")

OUT_DIR_ENV = "NIROM_OUT_DIR"
FILE_SNAPSHOTS = "snapshots.snp"
FILE_BASIS = "basis.pod"
FILE_LATENT = "latent.snp"
FILE_SPECTRUM = "spectrum.csv"
FILE_HISTORY = "train_history.csv"
FILE_METRICS_CSV = "metrics.csv"
FILE_METRICS_JSON = "metrics.json"
MODEL_FILES = {"rbf": "model_rbf.rbf", "node": "model_node.net",
               "dmd": "model_dmd.dmd"}
MAGIC_METHODS = {b"RBF1": "rbf", b"NET1": "node", b"DMD1": "dmd"}


def _out_dir(args, cfg: PipelineConfig | None) -> Path:
    if args.out:
        d = args.out
    elif cfg is not None and cfg.output_dir:
        d = cfg.output_dir
    else:
        d = os.environ.get(OUT_DIR_ENV) or "."
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(value, name: str, command: str):
    if value is None:
        raise ConfigError(f"'{command}' needs a '{name}' block in the config")
    return value


def _find(out: Path, raw) -> Path:
    """The path as given, else the same path under the output directory."""
    p = Path(raw)
    if not p.exists() and (out / p).exists():
        return out / p
    return p


def _input_snapshots(cfg: PipelineConfig, out: Path) -> SnapshotSet:
    """The pipeline's source data: an explicit file, or the synthetic set
    regenerated in memory (deterministic under the config seed)."""
    if cfg.input_path is not None:
        return load_snapshots(_find(out, cfg.input_path))
    return generate_synthetic(cfg.synthetic)


def _write_meta(path: Path, **fields) -> None:
    with replacing(path, "w") as f:
        json.dump(fields, f, indent=2)
        f.write("\n")


def _read_json(path, decode):
    """Build a value from a JSON artifact with ``decode``; text that is not
    JSON (nested too deeply included), or a tree missing a key or holding a
    wrongly typed one, is a FormatError naming the file."""
    try:
        with open(path) as f:
            return decode(json.load(f))
    except (ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        raise FormatError(f"{path}: malformed JSON artifact ({exc!r})") from exc


def _read_meta(pred_path: Path) -> tuple:
    """(method, latent_dim, runtime_seconds) from the .meta.json beside a
    prediction; without that file the method comes from the file name."""
    method = pred_path.stem.removeprefix("pred_")
    meta = Path(str(pred_path) + ".meta.json")
    if not meta.exists():
        return method, 0, 0.0
    return _read_json(meta, lambda tree: (
        tree.get("method", method),
        int(tree.get("latent_dim", 0)),
        float(tree.get("runtime_seconds", 0.0)),
    ))


def _metrics_reports(tree) -> list:
    """The MetricsReports of a metrics.json tree (method -> component ->
    series and run metadata)."""
    return [
        MetricsReport(
            method=method,
            component=component,
            times=np.asarray(body["times"], dtype=float),
            rmse=np.asarray(body["rmse"], dtype=float),
            latent_dim=int(body["latent_dim"]),
            runtime_seconds=float(body["runtime_seconds"]),
        )
        for method, components in tree.items()
        for component, body in components.items()
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(cfg: PipelineConfig, out: Path) -> None:
    if cfg.synthetic is None:
        raise ConfigError("'generate' needs a synthetic 'input' block, not a path")
    snap = generate_synthetic(cfg.synthetic)
    target = out / FILE_SNAPSHOTS
    save_snapshots(snap, target)
    log.info("wrote %s (%d x %d)", target, snap.mesh_size, snap.n_snapshots)
    print(target)


def cmd_decompose(cfg: PipelineConfig, out: Path) -> None:
    crit = _require(cfg.pod, "pod", "decompose")
    snap = _input_snapshots(cfg, out)
    cen = center(snap)
    svd = thin_svd(cen)
    basis = truncate(svd, cen.mean, rank=crit.rank, tol=crit.tolerance,
                     component=snap.component)
    save_basis(basis, out / FILE_BASIS)
    latent = project(basis, cen)
    save_snapshots(
        SnapshotSet(latent.coeffs, latent.times, snap.component),
        out / FILE_LATENT,
    )
    cum = energy_spectrum(svd)
    with replacing(out / FILE_SPECTRUM, "w") as f:
        w = csv.writer(f)
        w.writerow(["mode", "singular_value", "cumulative_energy"])
        for i in range(svd.rank):
            w.writerow([i + 1, f"{svd.singular[i]:.17g}", f"{cum[i]:.17g}"])
    log.info("kept %d of %d modes", basis.m, svd.rank)
    print(out / FILE_BASIS)


def _load_latent(out: Path) -> LatentTrajectory:
    snap = load_snapshots(out / FILE_LATENT)
    return LatentTrajectory(snap.data, snap.times)


def _fit_rbf(cfg: PipelineConfig, out: Path) -> None:
    block = _require(cfg.rbf, "rbf", "fit --method rbf")
    traj = _load_latent(out)
    started = time.perf_counter()
    model = rbf_mod.fit(traj, block.shape_factor)
    elapsed = time.perf_counter() - started
    target = out / MODEL_FILES["rbf"]
    rbf_mod.save_model(model, target)
    _write_meta(Path(str(target) + ".meta.json"), method="rbf",
                latent_dim=model.dim, fit_seconds=elapsed)
    log.info("rbf fit: %d centers, c=%g, %.3fs", model.n_centers,
             block.shape_factor, elapsed)
    print(target)


def _fit_node(cfg: PipelineConfig, out: Path) -> None:
    block = _require(cfg.node, "node", "fit --method node")
    traj = _load_latent(out)
    tau, tmap = normalize_times(traj.times)
    unit_traj = LatentTrajectory(traj.coeffs, tau)
    scale = scale_fit(unit_traj) if block.scaling else None
    net = build_net(
        unit_traj.dim, list(block.hidden), block.activation,
        augment_dim=block.augment_dim, seed=cfg.seed,
        time_input=block.time_input, scale=scale,
        name=block.preset or "custom",
    )
    started = time.perf_counter()
    trained, history = train(net, unit_traj, block.train, solver=block.solver)
    elapsed = time.perf_counter() - started
    trained = attach_time_map(trained, tmap)
    target = out / MODEL_FILES["node"]
    save_net(trained, target)
    with replacing(out / FILE_HISTORY, "w") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "loss", "learning_rate"])
        for i in range(history.loss.size):
            w.writerow([i, f"{history.loss[i]:.17g}", f"{history.lr[i]:.17g}"])
    _write_meta(Path(str(target) + ".meta.json"), method="node",
                latent_dim=trained.latent_dim, fit_seconds=elapsed,
                final_loss=history.final_loss, epochs=block.train.epochs)
    log.info("node fit: %s, final loss %.3e, %.3fs", trained.name,
             history.final_loss, elapsed)
    print(target)


def _fit_dmd(cfg: PipelineConfig, out: Path) -> None:
    block = _require(cfg.dmd, "dmd", "fit --method dmd")
    snap = _input_snapshots(cfg, out)
    started = time.perf_counter()
    model = dmd_mod.dmd_fit(snap, block.rank)
    elapsed = time.perf_counter() - started
    target = out / MODEL_FILES["dmd"]
    dmd_mod.save_model(model, target)
    _write_meta(Path(str(target) + ".meta.json"), method="dmd",
                latent_dim=model.rank, fit_seconds=elapsed)
    log.info("dmd fit: rank %d, %.3fs", model.rank, elapsed)
    print(target)


def cmd_fit(cfg: PipelineConfig, out: Path, method: str) -> None:
    {"rbf": _fit_rbf, "node": _fit_node, "dmd": _fit_dmd}[method](cfg, out)


def cmd_predict(cfg: PipelineConfig, out: Path, model_path: str) -> None:
    grid = _require(cfg.predict, "predict", "predict")
    times = time_grid(grid.t_start, grid.t_end, grid.dt)
    model_file = _find(out, model_path)
    magic = peek_magic(model_file)
    if magic not in MAGIC_METHODS:
        raise FormatError(
            f"{model_file} is not a model file (magic {magic!r})"
        )
    method = MAGIC_METHODS[magic]
    started = time.perf_counter()
    if method == "dmd":
        model = dmd_mod.load_model(model_file)
        pred = dmd_mod.dmd_forecast(model, times)
        latent_dim = model.rank
    else:
        basis = load_basis(out / FILE_BASIS)
        z0 = _load_latent(out).coeffs[:, 0]
        if method == "rbf":
            model = rbf_mod.load_model(model_file)
            if model.dim != basis.m:
                raise ValueError(
                    f"model has {model.dim} latent components, "
                    f"basis has {basis.m} modes"
                )
            latent = rbf_mod.forecast(model, z0, times)
            latent_dim = model.dim
        else:
            net = load_net(model_file)
            if net.latent_dim != basis.m:
                raise ValueError(
                    f"model has {net.latent_dim} latent components, "
                    f"basis has {basis.m} modes"
                )
            latent = node_forecast(net, z0, times)
            latent_dim = net.latent_dim
        pred = reconstruct(basis, latent)
    elapsed = time.perf_counter() - started
    target = out / f"pred_{method}.snp"
    save_snapshots(pred, target)
    _write_meta(Path(str(target) + ".meta.json"), method=method,
                latent_dim=latent_dim, runtime_seconds=elapsed)
    log.info("%s prediction: %d times, %.3fs", method, times.size, elapsed)
    print(target)


def cmd_compare(out: Path, truth_path: str, pred_paths) -> None:
    truth = load_snapshots(_find(out, truth_path))
    reports = []
    for raw in pred_paths:
        p = _find(out, raw)
        pred = load_snapshots(p)
        method, latent_dim, runtime_seconds = _read_meta(p)
        series = spatial_rmse(pred, truth)
        reports.append(MetricsReport(
            method=method,
            component=pred.component,
            times=truth.times,
            rmse=series,
            latent_dim=latent_dim,
            runtime_seconds=runtime_seconds,
        ))
        log.info("%s: max rmse %.3e", method, float(np.max(series)))
    report_emit(reports, out / FILE_METRICS_CSV, "csv")
    report_emit(reports, out / FILE_METRICS_JSON, "json")
    print(out / FILE_METRICS_JSON)


def cmd_report(out: Path, metrics_path: str, fmt: str) -> None:
    reports = _read_json(metrics_path, _metrics_reports)
    target = out / (FILE_METRICS_CSV if fmt == "csv" else FILE_METRICS_JSON)
    report_emit(reports, target, fmt)
    print(target)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common(sp, config_required: bool = True) -> None:
    sp.add_argument("--config", required=config_required, metavar="PATH",
                    help="pipeline configuration (JSON)")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="output directory")
    sp.add_argument("--verbose", "-v", action="store_true",
                    help="log progress to stderr")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nirom",
        description="Reduced-order modeling pipeline: snapshot compression "
                    "plus latent-dynamics forecasting.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("generate", help="write synthetic snapshots"))
    _add_common(sub.add_parser("decompose",
                               help="build the truncated modal basis"))
    fit = sub.add_parser("fit", help="fit one latent-dynamics model")
    fit.add_argument("--method", required=True, choices=["rbf", "node", "dmd"])
    _add_common(fit)
    pred = sub.add_parser("predict", help="forecast and reconstruct fields")
    pred.add_argument("model", help="model file (RBF1/NET1/DMD1)")
    _add_common(pred)
    cmp_ = sub.add_parser("compare", help="score predictions against truth")
    cmp_.add_argument("truth", help="reference snapshot file")
    cmp_.add_argument("predictions", nargs="+", help="prediction files")
    _add_common(cmp_, config_required=False)
    rep = sub.add_parser("report", help="re-emit a metrics artifact")
    rep.add_argument("metrics", help="metrics.json produced by compare")
    rep.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(rep, config_required=False)
    return p


def _dispatch(args) -> None:
    cfg = None
    if args.config is not None:
        cfg = load_config(args.config, seed_override=args.seed)
    out = _out_dir(args, cfg)
    if args.command == "generate":
        cmd_generate(cfg, out)
    elif args.command == "decompose":
        cmd_decompose(cfg, out)
    elif args.command == "fit":
        cmd_fit(cfg, out, args.method)
    elif args.command == "predict":
        cmd_predict(cfg, out, args.model)
    elif args.command == "compare":
        cmd_compare(out, args.truth, args.predictions)
    else:
        cmd_report(out, args.metrics, args.format)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
        force=True,
    )
    try:
        _dispatch(args)
    # ValidationError is a ValueError, so exit 4 is matched before exit 2
    except (FormatError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, SolverError, TrainingError, FitError,
            ScalingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
