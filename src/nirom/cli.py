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
against; only ``generate`` makes a synthetic field, and it streams it to
that file a column block at a time, as ``predict`` does its lift.

Every artifact's record is <artifact>.meta.json (``_record``), written by
``_write_meta`` as strict JSON, last, and checked by ``_check_record``
against the values a stage needs, key by key: a missing record, or one
without a key, exits 4 naming the record; a differing value exits 2 naming
the key, both values and the stage to run again; other keys are not read.
snapshots.snp's record holds the kind and parameters of the field, so a
field of another kind or seed on the same grid is refused; latent.snp's
holds the basis.pod it was projected on, so ``fit`` refuses a pair that an
interrupted ``decompose`` left mixed; a model's holds its method and, for
rbf and node, the basis and latent files it was fit on, which ``predict``
checks with its other inputs before it touches the old prediction.
``generate``, ``fit`` and ``predict`` remove their artifact's record
before they replace the artifact and write it last (``_recorded``): an
interrupted run leaves its artifact without a record, which the record
checks refuse, and never beside an older run's.

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
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import dmd as dmd_mod
from . import rbf as rbf_mod
from .config import PipelineConfig, _get, load_config
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
from .node.network import NET_MAGIC
from .node.training import train
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
    same_times,
    snapshot_header,
    time_tolerance,
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
MAGIC_METHODS = {rbf_mod.RBF_MAGIC: "rbf", NET_MAGIC: "node",
                 dmd_mod.DMD_MAGIC: "dmd"}
#: .meta.json keys of an rbf or node model that tie it to the files it was
#: fit on; predict starts from these files and refuses any others
FIT_INPUTS = {"basis_sha256": FILE_BASIS, "latent_sha256": FILE_LATENT}


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
    _check_record(path, spec.recipe, "nirom generate")
    n, times = snapshot_header(path)
    want = spec.times
    if n == spec.grid_points and same_times(times, want):
        return load_snapshots(path)
    raise ConfigError(
        f"{path} holds {_grid_text(n, times)}, but the config's 'input' block "
        f"asks for {_grid_text(spec.grid_points, want)}; run 'nirom generate' "
        "again"
    )


def _grid_text(n: int, times: np.ndarray) -> str:
    """'n points x m times on [first, last]', the span left out of an empty
    grid."""
    text = f"{n} points x {times.size} times"
    if times.size:
        text += f" on [{float(times[0])}, {float(times[-1])}]"
    return text


def _record(artifact: Path) -> Path:
    """The .meta.json record beside an artifact."""
    return Path(f"{artifact}.meta.json")


def _write_meta(artifact: Path, **fields) -> None:
    """Write the artifact's record: the fields as strict JSON; a NaN or
    infinite value is a ValueError, and no file is written."""
    with replacing(_record(artifact), "w") as f:
        json.dump(fields, f, indent=2, allow_nan=False)
        f.write("\n")


@contextmanager
def _recorded(artifact: Path):
    """Replace an artifact and its record, in that order: the old record
    is removed first, the body replaces the artifact and fills the yielded
    dict, and the record is written from it last. An interrupted run thus
    leaves its artifact without a record, never beside an older run's."""
    _record(artifact).unlink(missing_ok=True)
    fields = {}
    yield fields
    _write_meta(artifact, **fields)


def _check_record(artifact: Path, want: dict, command: str) -> None:
    """Refuse an artifact whose record does not hold ``want``, compared key
    by key in order: a missing record, or one without a key, is a
    FormatError; a differing value is a ConfigError that names the key,
    both values and ``command``, the stage to run again. Keys the record
    holds beyond ``want`` are not read."""
    record = _record(artifact)
    if not record.exists():
        raise FormatError(f"{record}: missing; run '{command}', which "
                          f"writes it last, after {artifact.name}")
    held = _read_json(record, dict)
    for key, value in want.items():
        if key not in held:
            raise FormatError(f"{record}: no '{key}'; run '{command}' again")
        if held[key] != value:
            raise ConfigError(
                f"{record} records {key} {json.dumps(held[key])}, but this "
                f"run needs {json.dumps(value)}; run '{command}' again")


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


def _read_json(path, decode):
    """Build a value from a JSON artifact with ``decode``; text that is not
    JSON (nested too deeply included), or a tree missing a key or holding a
    wrongly typed one, is a FormatError naming the file."""
    try:
        with open(path) as f:
            return decode(json.load(f))
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
            ConfigError) as exc:
        raise FormatError(f"{path}: malformed JSON artifact ({exc!r})") from exc


def _read_meta(pred_path: Path) -> tuple:
    """(method, latent_dim, runtime_seconds) from the .meta.json beside a
    prediction; without that file the method comes from the file name."""
    method = pred_path.stem.removeprefix("pred_")
    meta = _record(pred_path)
    if not meta.exists():
        return method, 0, 0.0

    def decode(tree):
        if not isinstance(tree, dict):
            raise TypeError("the record is not a JSON object")
        return (_get(tree, "", "method", str, method),
                _get(tree, "", "latent_dim", int, 0),
                _get(tree, "", "runtime_seconds", float, 0.0))

    return _read_json(meta, decode)


def _series(body: dict, path: str, key: str) -> np.ndarray:
    """The list at ``key`` as floats, each entry read as the typed getter
    reads a float: a finite JSON number, never a boolean or a string."""
    entries = dict(enumerate(_get(body, path, key, list)))
    return np.array([_get(entries, f"{path}.{key}", i, float)
                     for i in entries], dtype=float)


def _metrics_reports(tree) -> list:
    """The MetricsReports of a metrics.json tree (method -> component ->
    series and run metadata)."""
    return [
        MetricsReport(
            method=method,
            component=component,
            times=_series(body, f"{method}.{component}", "times"),
            rmse=_series(body, f"{method}.{component}", "rmse"),
            latent_dim=_get(body, f"{method}.{component}", "latent_dim", int),
            runtime_seconds=_get(body, f"{method}.{component}",
                                 "runtime_seconds", float),
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
    spec = cfg.synthetic
    target = out / FILE_SNAPSHOTS
    with _recorded(target) as record:
        generate_synthetic(spec, target)
        record.update(spec.recipe)
    log.info("wrote %s (%d x %d)", target, spec.grid_points, spec.times.size)
    print(target)


def cmd_decompose(cfg: PipelineConfig, out: Path) -> None:
    crit = _require(cfg.pod, "pod", "decompose")
    # the field is decompose's own, so its deviations overwrite it
    cen = center(_input_snapshots(cfg, out), in_place=True)
    svd = thin_svd(cen)
    basis = truncate(svd, cen.mean, rank=crit.rank, tol=crit.tolerance,
                     component=cen.component)
    # a spectrum whose energy overflows is refused before any file is
    # replaced, under 'pod.rank' as under 'pod.tolerance'
    cum = energy_spectrum(svd)
    save_basis(basis, out / FILE_BASIS)
    latent = project(basis, cen)
    save_snapshots(
        SnapshotSet(latent.coeffs, latent.times, cen.component),
        out / FILE_LATENT,
    )
    with replacing(out / FILE_SPECTRUM, "w") as f:
        w = csv.writer(f)
        w.writerow(["mode", "singular_value", "cumulative_energy"])
        for i in range(svd.rank):
            w.writerow([i + 1, f"{svd.singular[i]:.17g}", f"{cum[i]:.17g}"])
    _write_meta(out / FILE_LATENT, basis_sha256=_sha256(out / FILE_BASIS))
    log.info("kept %d of %d modes", basis.m, svd.rank)
    print(out / FILE_BASIS)


def _fit_inputs(out: Path) -> tuple:
    """The digests of the basis and latent files fit records, and the latent
    trajectory, once latent.snp.meta.json ties the two files together."""
    inputs = _input_digests(out)
    _check_record(out / FILE_LATENT, {"basis_sha256": inputs["basis_sha256"]},
                  "nirom decompose")
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
    with _recorded(target) as record:
        rbf_mod.save_model(model, target)
        record.update(method="rbf", latent_dim=model.dim,
                      fit_seconds=elapsed, **inputs)
    log.info("rbf fit: %d centers, c=%g, %.3fs", model.n_centers,
             block.shape_factor, elapsed)
    print(target)


def _fit_node(cfg: PipelineConfig, out: Path) -> None:
    block = _require(cfg.node, "node", "fit --method node")
    inputs, traj = _fit_inputs(out)
    scale = scale_fit(traj) if block.scaling else None
    net = build_net(
        traj.dim, list(block.hidden), block.activation,
        augment_dim=block.augment_dim, seed=cfg.seed,
        time_input=block.time_input, scale=scale,
        name=block.preset or "custom",
    )
    started = time.perf_counter()
    trained, history = train(net, traj, block.train, solver=block.solver)
    elapsed = time.perf_counter() - started
    target = out / MODEL_FILES["node"]
    with _recorded(target) as record:
        save_net(trained, target)
        with replacing(out / FILE_HISTORY, "w") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "loss", "learning_rate"])
            for i in range(history.loss.size):
                w.writerow([i, f"{history.loss[i]:.17g}",
                            f"{history.lr[i]:.17g}"])
        record.update(
            method="node", latent_dim=trained.latent_dim,
            fit_seconds=elapsed,
            final_loss=history.final_loss if block.train.epochs else None,
            epochs=block.train.epochs, **inputs)
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
    with _recorded(target) as record:
        dmd_mod.save_model(model, target)
        record.update(method="dmd", latent_dim=model.rank,
                      fit_seconds=elapsed)
    log.info("dmd fit: rank %d, %.3fs", model.rank, elapsed)
    print(target)


def cmd_fit(cfg: PipelineConfig, out: Path, method: str) -> None:
    {"rbf": _fit_rbf, "node": _fit_node, "dmd": _fit_dmd}[method](cfg, out)


def cmd_predict(cfg: PipelineConfig, out: Path, model_path: str) -> None:
    times = _require(cfg.predict, "predict", "predict")
    model_file = _find(out, model_path)
    magic = peek_magic(model_file)
    if magic not in MAGIC_METHODS:
        raise FormatError(
            f"{model_file} is not a model file (magic {magic!r})"
        )
    method = MAGIC_METHODS[magic]
    # every check before the old prediction and its record are replaced
    want = {"method": method}
    if method == "dmd":
        model = dmd_mod.load_model(model_file)
        latent_dim = model.rank
    else:
        want.update(_input_digests(out))
        basis = load_basis(out / FILE_BASIS)
        latent = _load_latent(out)
        if abs(times[0] - latent.times[0]) > time_tolerance(latent.times):
            raise ConfigError(
                f"'predict.t_start' is {float(times[0])}, but {method} "
                f"forecasts start from the first latent snapshot at t="
                f"{float(latent.times[0])}; set it to that time")
        z0 = latent.coeffs[:, 0]
        if method == "rbf":
            model, forecast = rbf_mod.load_model(model_file), rbf_mod.forecast
            latent_dim = model.dim
        else:
            model, forecast = load_net(model_file), node_forecast
            latent_dim = model.latent_dim
        if latent_dim != basis.m:
            raise ValueError(f"model has {latent_dim} latent components, "
                             f"basis has {basis.m} modes")
    _check_record(model_file, want, f"nirom fit --method {method}")
    target = out / f"pred_{method}.snp"
    with _recorded(target) as record:
        started = time.perf_counter()
        if method == "dmd":
            dmd_mod.dmd_forecast(model, times, target)
        else:
            reconstruct(basis, forecast(model, z0, times), target)
        elapsed = time.perf_counter() - started
        record.update(method=method, latent_dim=latent_dim,
                      runtime_seconds=elapsed)
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
    fit.add_argument("--method", required=True, choices=list(MODEL_FILES))
    _add_common(fit)
    pred = sub.add_parser("predict", help="forecast and reconstruct fields")
    pred.add_argument("model", help="model file ({})".format(
        "/".join(magic.decode() for magic in MAGIC_METHODS)))
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
    # only the 'nirom' logger goes to stderr, through one handler replaced
    # on each call: a host's root handlers and level are left as they are
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers = [handler]
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    log.propagate = False
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
