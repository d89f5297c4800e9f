"""Command-line front end.

Chains the pipeline stages over one JSON config:

    nirom generate  --config cfg.json          synthetic snapshots -> snapshots.snp
    nirom decompose --config cfg.json          basis.pod + latent.snp + spectrum.csv
    nirom fit --method {rbf|node|dmd} ...      model_<method>.{rbf,net,dmd}
    nirom predict MODEL --config cfg.json      pred_<method>.snp
    nirom compare TRUTH PRED [PRED...]         metrics.csv + metrics.json
    nirom report METRICS.json --format csv     re-emit a metrics artifact

The input field is read from a file by ``decompose`` and ``fit --method
dmd``: the config's input path, or for a synthetic input the snapshots.snp
that ``generate`` wrote, which is also the field ``compare`` scores
against; only ``generate`` builds a synthetic field. ``generate`` writes
snapshots.snp.meta.json last, recording the kind and parameters of the
field, so a field of another kind or seed on the same grid is refused.
``decompose`` writes latent.snp.meta.json last, recording the basis.pod it
wrote, so ``fit`` refuses a basis and latent pair that an interrupted
``decompose`` left mixed.

``predict`` and ``compare`` never hold a full field: ``predict`` writes
its lift to pred_<method>.snp one column block at a time (its
runtime_seconds covers the forecast, the lift and the write), and
``compare`` checks every file's header, length, shape and times before it
reads the truth and the predictions in lockstep, one column block at a
time.

Exit codes: 0 success, 2 configuration/argument error, 3 numerical failure,
4 I/O or file-format error. The default output directory comes from --out,
then the config's output_dir, then $NIROM_OUT_DIR, then the working
directory.
"""

import argparse
import csv
import functools
import hashlib
import json
import logging
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import dmd as dmd_mod
from . import rbf as rbf_mod
from .config import PipelineConfig, load_config
from .containers import peek_magic, replacing
from .errors import (
    ConfigError,
    FormatError,
    NumericalError,
    ValidationError,
)
from .metrics import MetricsReport, report_emit, streamed_rmse
# no command calls it, but perfbench/tracing.py times the metrics layer
# through this name
from .metrics import spatial_rmse  # noqa: F401
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
    open_snapshots,
    save_snapshots,
    snapshot_header,
    time_grid,
    time_tolerance,
)

log = logging.getLogger("nirom")

OUT_DIR_ENV = "NIROM_OUT_DIR"
FILE_SNAPSHOTS = "snapshots.snp"
#: generate's record of the kind and parameters of the field it wrote,
#: written last
FILE_SNAPSHOTS_META = FILE_SNAPSHOTS + ".meta.json"
FILE_BASIS = "basis.pod"
FILE_LATENT = "latent.snp"
FILE_SPECTRUM = "spectrum.csv"
FILE_HISTORY = "train_history.csv"
FILE_METRICS_CSV = "metrics.csv"
FILE_METRICS_JSON = "metrics.json"
MODEL_FILES = {"rbf": "model_rbf.rbf", "node": "model_node.net",
               "dmd": "model_dmd.dmd"}
MAGIC_METHODS = {b"RBF1": "rbf", b"NET1": "node", b"DMD1": "dmd"}
#: .meta.json keys of an rbf or node model that tie it to the files it was
#: fit on; predict starts from these files and refuses any others
FIT_INPUTS = {"basis_sha256": FILE_BASIS, "latent_sha256": FILE_LATENT}
#: decompose's record of the basis it projected latent.snp on, written last
FILE_LATENT_META = FILE_LATENT + ".meta.json"


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
    """The pipeline's source field, read from its file: the config's input
    path, or for a synthetic input the snapshots.snp that generate wrote.
    That file must hold the input block's grid size and time grid, which
    its header alone shows."""
    if cfg.input_path is not None:
        return load_snapshots(_find(out, cfg.input_path))
    path = out / FILE_SNAPSHOTS
    if not path.exists():
        raise FormatError(
            f"{path}: missing; run 'nirom generate' with this config first"
        )
    spec = cfg.synthetic
    _check_recipe(out / FILE_SNAPSHOTS_META, spec.recipe)
    n, times = snapshot_header(path)
    want = spec.times
    if n != spec.grid_points or times.size != want.size:
        held = f"{n} points x {times.size} times"
    elif np.max(np.abs(times - want)) > time_tolerance(want):
        held = f"times on [{times[0]!r}, {times[-1]!r}]"
    else:
        return load_snapshots(path)
    raise ConfigError(
        f"{path} holds {held}, but the config's 'input' block asks for "
        f"{spec.grid_points} points x {want.size} times on "
        f"[{want[0]!r}, {want[-1]!r}]; run 'nirom generate' again"
    )


def _check_recipe(meta: Path, recipe: dict) -> None:
    """Refuse a snapshots.snp that generate did not make from this recipe
    (the kind and the parameters it reads), as its record shows: on one
    grid, two kinds or seeds give two fields with the same header."""
    if not meta.exists():
        raise FormatError(
            f"{meta}: missing; it records the kind and parameters "
            f"{FILE_SNAPSHOTS} was generated with, and generate writes it "
            f"last; run 'nirom generate' with this config"
        )
    recorded = _read_json(meta, dict)
    if recorded != recipe:
        raise ConfigError(
            f"{meta.parent / FILE_SNAPSHOTS} was generated from "
            f"{json.dumps(recorded, sort_keys=True)}, but the config's "
            f"'input' block asks for {json.dumps(recipe, sort_keys=True)}; "
            f"run 'nirom generate' again"
        )


def _write_meta(path: Path, **fields) -> None:
    """Write the fields as strict JSON; a NaN or infinite value is a
    ValueError, and no file is written."""
    with replacing(path, "w") as f:
        json.dump(fields, f, indent=2, allow_nan=False)
        f.write("\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_digests(out: Path) -> dict:
    """sha256 of the basis and latent files in the output directory, under
    their FIT_INPUTS keys."""
    return {key: _sha256(out / name) for key, name in FIT_INPUTS.items()}


def _check_decomposition(out: Path, basis_sha256: str) -> None:
    """Refuse a latent.snp that decompose did not project on this
    basis.pod, as latent.snp.meta.json records: a decompose stopped before
    it wrote that record leaves a new basis beside an old latent file."""
    meta = out / FILE_LATENT_META
    if not meta.exists():
        raise FormatError(
            f"{meta}: missing; it records the {FILE_BASIS} that {FILE_LATENT} "
            f"was projected on, and decompose writes it last"
        )
    recorded = _read_json(meta, lambda tree: str(tree["basis_sha256"]))
    if recorded != basis_sha256:
        raise ValueError(
            f"{out / FILE_BASIS} is not the basis {FILE_LATENT} was projected "
            f"on (sha256 {basis_sha256[:16]}..., {meta.name} records "
            f"{recorded[:16]}...); run 'nirom decompose' again"
        )


def _check_fit_inputs(model_file: Path, out: Path, digests: dict) -> None:
    """Refuse a basis or latent file other than the one the model was fit
    on, as its .meta.json records."""
    meta = Path(str(model_file) + ".meta.json")
    if not meta.exists():
        raise FormatError(
            f"{meta}: missing; it records the {FILE_BASIS} and {FILE_LATENT} "
            f"that {model_file.name} was fit on"
        )
    recorded = _read_json(meta, lambda tree: {key: str(tree[key]) for key in digests})
    for key, digest in digests.items():
        if recorded[key] != digest:
            raise ValueError(
                f"{out / FIT_INPUTS[key]} is not the file {model_file.name} was "
                f"fit on (sha256 {digest[:16]}..., {meta.name} records "
                f"{recorded[key][:16]}...)"
            )


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

    def decode(tree):
        recorded = tree.get("method", method)
        if not isinstance(recorded, str):
            raise TypeError(f"'method' is {recorded!r}, not a string")
        return (recorded, int(tree.get("latent_dim", 0)),
                float(tree.get("runtime_seconds", 0.0)))

    return _read_json(meta, decode)


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
    # the record goes first and comes back last, so a field that is being
    # replaced is never taken for the one the record describes
    record = out / FILE_SNAPSHOTS_META
    record.unlink(missing_ok=True)
    snap = generate_synthetic(cfg.synthetic)
    target = out / FILE_SNAPSHOTS
    save_snapshots(snap, target)
    _write_meta(record, **cfg.synthetic.recipe)
    log.info("wrote %s (%d x %d)", target, snap.mesh_size, snap.n_snapshots)
    print(target)


def cmd_decompose(cfg: PipelineConfig, out: Path) -> None:
    crit = _require(cfg.pod, "pod", "decompose")
    # the field is decompose's own, so its deviations overwrite it
    cen = center(_input_snapshots(cfg, out), in_place=True)
    svd = thin_svd(cen)
    basis = truncate(svd, cen.mean, rank=crit.rank, tol=crit.tolerance,
                     component=cen.component)
    save_basis(basis, out / FILE_BASIS)
    latent = project(basis, cen)
    save_snapshots(
        SnapshotSet(latent.coeffs, latent.times, cen.component),
        out / FILE_LATENT,
    )
    cum = energy_spectrum(svd)
    with replacing(out / FILE_SPECTRUM, "w") as f:
        w = csv.writer(f)
        w.writerow(["mode", "singular_value", "cumulative_energy"])
        for i in range(svd.rank):
            w.writerow([i + 1, f"{svd.singular[i]:.17g}", f"{cum[i]:.17g}"])
    _write_meta(out / FILE_LATENT_META, basis_sha256=_sha256(out / FILE_BASIS))
    log.info("kept %d of %d modes", basis.m, svd.rank)
    print(out / FILE_BASIS)


def _fit_inputs(out: Path) -> tuple:
    """The digests of the basis and latent files fit records, and the latent
    trajectory, once latent.snp.meta.json ties the two files together."""
    inputs = _input_digests(out)
    _check_decomposition(out, inputs["basis_sha256"])
    return inputs, _load_latent(out)


def _load_latent(out: Path) -> LatentTrajectory:
    snap = load_snapshots(out / FILE_LATENT)
    return LatentTrajectory(snap.data, snap.times)


def _fit_rbf(cfg: PipelineConfig, out: Path) -> None:
    block = _require(cfg.rbf, "rbf", "fit --method rbf")
    inputs, traj = _fit_inputs(out)
    started = time.perf_counter()
    model = rbf_mod.fit(traj, block.shape_factor)
    elapsed = time.perf_counter() - started
    target = out / MODEL_FILES["rbf"]
    rbf_mod.save_model(model, target)
    _write_meta(Path(str(target) + ".meta.json"), method="rbf",
                latent_dim=model.dim, fit_seconds=elapsed, **inputs)
    log.info("rbf fit: %d centers, c=%g, %.3fs", model.n_centers,
             block.shape_factor, elapsed)
    print(target)


def _fit_node(cfg: PipelineConfig, out: Path) -> None:
    block = _require(cfg.node, "node", "fit --method node")
    inputs, traj = _fit_inputs(out)
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
                final_loss=history.final_loss if block.train.epochs else None,
                epochs=block.train.epochs,
                **inputs)
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
    target = out / f"pred_{method}.snp"
    started = time.perf_counter()
    if method == "dmd":
        model = dmd_mod.load_model(model_file)
        dmd_mod.dmd_forecast(model, times, target)
        latent_dim = model.rank
    else:
        inputs = _input_digests(out)
        basis = load_basis(out / FILE_BASIS)
        latent = _load_latent(out)
        if abs(times[0] - latent.times[0]) > time_tolerance(latent.times):
            raise ConfigError(
                f"'predict.t_start' is {grid.t_start!r}, but {method} forecasts "
                f"start from the first latent snapshot at t="
                f"{latent.times[0]!r}; set it to that time"
            )
        z0 = latent.coeffs[:, 0]
        if method == "rbf":
            model = rbf_mod.load_model(model_file)
            latent_dim = model.dim
        else:
            model = load_net(model_file)
            latent_dim = model.latent_dim
        if latent_dim != basis.m:
            raise ValueError(
                f"model has {latent_dim} latent components, "
                f"basis has {basis.m} modes"
            )
        _check_fit_inputs(model_file, out, inputs)
        if method == "rbf":
            latent = rbf_mod.forecast(model, z0, times)
        else:
            latent = node_forecast(model, z0, times)
        reconstruct(basis, latent, target)
    elapsed = time.perf_counter() - started
    _write_meta(Path(str(target) + ".meta.json"), method=method,
                latent_dim=latent_dim, runtime_seconds=elapsed)
    log.info("%s prediction: %d times, %.3fs", method, times.size, elapsed)
    print(target)


def cmd_compare(out: Path, truth_path: str, pred_paths) -> None:
    paths = [_find(out, raw) for raw in pred_paths]
    with ExitStack() as files:
        truth = files.enter_context(open_snapshots(_find(out, truth_path)))
        preds = [files.enter_context(open_snapshots(path)) for path in paths]
        metas = [_read_meta(path) for path in paths]
        series = streamed_rmse(preds, truth)
    reports = []
    for pred, (method, latent_dim, runtime_seconds), rmse in zip(
            preds, metas, series):
        log.info("%s: max rmse %.3e", method, float(np.max(rmse)))
        reports.append(MetricsReport(
            method=method,
            component=pred.component,
            times=truth.times,
            rmse=rmse,
            latent_dim=latent_dim,
            runtime_seconds=runtime_seconds,
        ))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it, and building it costs more than a small stage."""
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
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
