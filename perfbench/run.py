"""Pipeline benchmark for nirom.

Runs the CLI chain generate -> decompose -> fit (rbf, node, dmd) ->
predict (rbf, node, dmd) -> compare by calling ``nirom.cli.main`` in-process,
one stage after another (a closed loop: one process, one client), on a
seeded workload, for a fixed measuring time. It checks the outputs, prints
every metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced, as seconds at a reference machine speed: each timed
call is scaled by a fixed probe load like its own work, timed just before
and just after it (probe.py), because a shared host's own speed drifts by up to 2x within
minutes. With ``--trace 1`` they are the per-layer ones, from pipelines
run under the outside-in tracer, interleaved with untraced ones to give
the tracing overhead.

Usage, from the repository root:

    python3 perfbench/run.py --workload wave_node --seed 1 --seconds 30 --trace 0
"""

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: fresh interpreters timed per run for setup_s, one after each pipeline,
#: after one untimed warm-up
SETUP_SAMPLES = 12
#: pipelines measured at least, whatever --seconds says
MIN_PIPELINES = 3
#: the speed probe runs again once this much timed work is pending
PROBE_EVERY_S = 0.25
#: stop starting pipelines once this much wall time is gone
HARD_LIMIT_S = 150.0

SETUP_CHILD = """\
import json, sys, time
import nirom.cli
from nirom.config import load_config
started = time.perf_counter()
load_config(sys.argv[1])
print(json.dumps({"load_s": time.perf_counter() - started}))
"""

STAGES = ("generate", "decompose", "fit_rbf", "fit_node", "fit_dmd",
          "predict_rbf", "predict_node", "predict_dmd", "compare")
MODEL_FILES = {"rbf": "model_rbf.rbf", "node": "model_node.net",
               "dmd": "model_dmd.dmd"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads(limit: int) -> None:
    """Keep every BLAS pool at or below `limit` threads; must run before
    numpy is imported. Child interpreters inherit the setting."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= limit):
            os.environ[var] = str(limit)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable (unresolved ref)"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    from nirom.accel import backend_name

    skipped = {}
    try:
        import numba  # noqa: F401
    except ImportError as exc:
        skipped["numba"] = f"cannot be imported: {exc}"
    else:
        if backend_name() != "numba":
            skipped["numba"] = "disabled by NIROM_NUMBA"
    if backend_name() != "numpy":
        skipped["numpy"] = "numba backend active"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": backend_name(),
        "skipped_backends": skipped,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
    }


class Ledger:
    """Operations attempted and failed: stage calls and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Pipeline:
    """One workload's inputs in a private directory, and the stage chain."""

    def __init__(self, workload, seed: int, work_dir: Path):
        from nirom.snapshot import SnapshotSet, save_snapshots

        self.w = workload
        self.seed = seed
        self.dir = work_dir
        self.dir.mkdir(parents=True)
        self.cfg = self.dir / "cfg.json"
        self.cfg.write_text(json.dumps(workload.config(seed, str(self.dir))))
        self.predict_times = workload.predict_times
        if workload.truth_is_training_set:
            self.truth = self.dir / "snapshots.snp"
        else:
            self.truth = self.dir / "truth.snp"
            field = workload.field_rows(seed, self.predict_times, 0,
                                        workload.grid_points)
            save_snapshots(SnapshotSet(field, self.predict_times), self.truth)

    def argv(self, stage: str) -> list:
        from workloads import INIT_SEED

        cfg = ["--config", str(self.cfg)]
        if stage.startswith("fit_"):
            method = stage[4:]
            pin = ["--seed", str(INIT_SEED)] if method == "node" else []
            return ["fit", "--method", method] + cfg + pin
        if stage.startswith("predict_"):
            return ["predict", MODEL_FILES[stage[8:]]] + cfg
        if stage == "compare":
            preds = [str(self.dir / f"pred_{m}.snp") for m in MODEL_FILES]
            return ["compare", str(self.truth)] + preds + cfg
        return [stage] + cfg

    def run(self, ledger: Ledger, tracer=None, repeats=None, on_call=None):
        """Run every stage in order, stage s `repeats[s]` times in a row
        (once without `repeats`), calling on_call(stage, seconds) after
        each call; returns {stage: [seconds of each call]}, or None once a
        call fails. Every stage rewrites the same outputs from the same
        inputs, so a repeated call does the same work."""
        import nirom.cli

        times = {}
        for stage in STAGES:
            if tracer is not None:
                tracer.stage = stage
            argv = self.argv(stage)
            times[stage] = []
            for _ in range(repeats[stage] if repeats else 1):
                err = StringIO()
                started = time.perf_counter()
                try:
                    with redirect_stdout(StringIO()), redirect_stderr(err):
                        rc = nirom.cli.main(argv)
                except Exception:
                    rc = None
                    err.write(traceback.format_exc())
                elapsed = time.perf_counter() - started
                times[stage].append(elapsed)
                if not ledger.check(rc == 0, f"stage {' '.join(argv)} exit "
                                             f"{rc}: {err.getvalue().strip()}"):
                    return None
                if on_call is not None:
                    on_call(stage, elapsed)
        return times


def check_outputs(p: Pipeline, ledger: Ledger) -> dict:
    """Load every artifact back, compare the generated snapshots with the
    kind's definition, and bound each method's RMSE. Returns the max RMSE
    per method."""
    import numpy as np
    from nirom import dmd, rbf
    from nirom.node import load_net
    from nirom.pod import load_basis
    from nirom.snapshot import load_snapshots

    w, d = p.w, p.dir
    n, m = w.grid_points, w.n_snapshots
    train_times = w.train_times

    def attempt(what, fn):
        try:
            ok = bool(fn())
        except Exception as exc:
            ok = False
            what = f"{what}: {exc!r}"
        ledger.check(ok, what)

    def snapshots_match():
        snap = load_snapshots(d / "snapshots.snp")
        if snap.data.shape != (n, m) or not np.array_equal(snap.times, train_times):
            return False
        rows = 2048
        return all(
            np.max(np.abs(snap.data[lo:lo + rows]
                          - w.field_rows(p.seed, train_times, lo, min(n, lo + rows))))
            <= 1e-12
            for lo in range(0, n, rows)
        )

    def prediction_ok(method):
        pred = load_snapshots(d / f"pred_{method}.snp")
        return (pred.data.shape == (n, p.predict_times.size)
                and np.allclose(pred.times, p.predict_times, rtol=0, atol=1e-9))

    attempt("snapshots.snp matches the synthetic definition", snapshots_match)
    attempt("basis.pod loads with rank 2",
            lambda: load_basis(d / "basis.pod").modes.shape == (n, 2))
    attempt("latent.snp loads as 2 x M",
            lambda: load_snapshots(d / "latent.snp").data.shape == (2, m))
    attempt("model_rbf.rbf loads", lambda: rbf.load_model(d / MODEL_FILES["rbf"]).dim == 2)
    attempt("model_node.net loads", lambda: load_net(d / MODEL_FILES["node"]).latent_dim == 2)
    attempt("model_dmd.dmd loads", lambda: dmd.load_model(d / MODEL_FILES["dmd"]).rank == 2)
    for method in MODEL_FILES:
        attempt(f"pred_{method}.snp loads on the prediction grid",
                lambda method=method: prediction_ok(method))

    rmse = {}
    try:
        tree = json.loads((d / "metrics.json").read_text())
        for method in MODEL_FILES:
            series = tree[method]["u"]["rmse"]
            rmse[method] = max(series) if len(series) == p.predict_times.size else math.nan
    except (OSError, ValueError, KeyError) as exc:
        ledger.check(False, f"metrics.json: {exc!r}")
        return {}
    for method, value in rmse.items():
        limit = w.tolerance[method]
        ledger.check(value <= limit,
                     f"rmse_{method} = {value:.3e} within {limit:.1e}")
    return rmse


def setup_sample(p: Pipeline, ledger: Ledger):
    """Wall time of a fresh interpreter that imports nirom.cli and loads the
    workload config (the fixed cost every CLI call pays), and the config
    load alone; None when the interpreter failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(p.cfg)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    wall = time.perf_counter() - started
    if not ledger.check(proc.returncode == 0,
                        f"setup interpreter exit {proc.returncode}: "
                        f"{proc.stderr.strip()}"):
        return None
    return wall, json.loads(proc.stdout.splitlines()[-1])["load_s"]


def probe_gradients(p: Pipeline, tracer, ledger: Ledger) -> None:
    """One gradient of the trained net through each route, so both
    rollout_backward and adjoint_step have a per-call time on every
    workload, whichever route its fit stage uses."""
    import numpy as np
    from nirom.node import SolverSpec, grad, load_net
    from nirom.node.training import normalize_times
    from nirom.snapshot import load_snapshots

    tracer.stage = "probe"
    try:
        net = load_net(p.dir / MODEL_FILES["node"])
        latent = load_snapshots(p.dir / "latent.snp")
        tau, _ = normalize_times(latent.times)
        solver = SolverSpec("rk4", step=float(np.min(np.diff(tau))))
        for mode in ("backprop_through_solver", "adjoint"):
            g = grad(net, latent.data[:, 0], tau, latent.data, solver, mode=mode)
            ledger.check(bool(np.all(np.isfinite(g))), f"{mode} probe gradient finite")
    except Exception as exc:
        ledger.check(False, f"gradient probe: {exc!r}")


def layer_metrics(tracer, stage_s: dict, jit: bool) -> dict:
    """Per-layer numbers of one traced pipeline (plus its gradient probe)."""
    pipe = set(STAGES)
    calls = lambda layer, stages=pipe: tracer.total_calls(layer, stages)
    secs = lambda layer, stages=pipe: tracer.total_seconds(layer, stages)
    work = lambda layer, q: tracer.total_work(layer, q, pipe)

    def per_call(layer, scale):
        n = calls(layer, None)
        return scale * secs(layer, None) / n if n else math.nan

    out = {f"cli.{s}_s": stage_s[s] for s in STAGES}
    out.update({
        "snapshot.generate_s": secs("snapshot.generate"),
        "snapshot.save_s": secs("snapshot.save"),
        "snapshot.load_s": secs("snapshot.load"),
        "containers.bytes_written": work("snapshot.save", "bytes")
                                    + work("containers.save", "bytes"),
        "containers.bytes_read": work("snapshot.load", "bytes")
                                 + work("containers.load", "bytes"),
        "snapshot.io_mb_per_s": (work("snapshot.save", "bytes")
                                 + work("snapshot.load", "bytes")) / 1e6
                                / (secs("snapshot.save") + secs("snapshot.load")),
        "pod.thin_svd_calls": calls("pod.thin_svd"),
        "pod.thin_svd_s": secs("pod.thin_svd"),
        "pod.gram_gflops": work("pod.thin_svd", "flop") / 1e9 / secs("pod.thin_svd"),
        "pod.project_s": secs("pod.project"),
        "pod.reconstruct_s": secs("pod.reconstruct"),
        "pod.reconstruct_gb_per_s": work("pod.reconstruct", "bytes") / 1e9
                                    / secs("pod.reconstruct"),
        "dmd.fit_s": secs("dmd.fit"),
        "dmd.forecast_s": secs("dmd.forecast"),
        "dmd.forecast_bytes": work("dmd.forecast", "bytes"),
        "rbf.fit_s": secs("rbf.fit"),
        "rbf.forecast_s": secs("rbf.forecast"),
        "rbf.forecast_steps": work("rbf.forecast", "steps"),
        "rbf.step_us": 1e6 * secs("rbf.forecast") / work("rbf.forecast", "steps"),
        "kernels.rollout_rk_calls": calls("kernels.rollout_rk"),
        "kernels.rollout_rk_ms": 1e3 * secs("kernels.rollout_rk")
                                 / calls("kernels.rollout_rk"),
        "kernels.rollout_backward_ms": per_call("kernels.rollout_backward", 1e3),
        "kernels.adjoint_step_calls": calls("kernels.adjoint_step"),
        "kernels.adjoint_step_us": per_call("kernels.adjoint_step", 1e6),
        "solvers.substeps": work("kernels.rollout_rk", "substeps"),
        "gradients.loss_and_grad_ms": 1e3 * secs("gradients.loss_and_grad")
                                      / calls("gradients.loss_and_grad"),
        "training.epoch_ms": 1e3 * secs("training.train")
                             / work("training.train", "epochs"),
        "metrics.spatial_rmse_s": secs("metrics.spatial_rmse"),
        "metrics.report_emit_s": secs("metrics.report_emit"),
        "metrics.report_rows": work("metrics.report_emit", "rows"),
    })
    if not jit:
        out.update({
            "kernels.nn_forward_calls": calls("kernels.nn_forward"),
            "kernels.nn_forward_us": per_call("kernels.nn_forward", 1e6),
            "kernels.nn_vjp_calls": calls("kernels.nn_vjp"),
            "kernels.nn_vjp_us": per_call("kernels.nn_vjp", 1e6),
        })
    return out


def check_schedule(p: Pipeline, tracer, ledger: Ledger) -> None:
    """Kernel call counts must follow from the solver schedule."""
    from nirom.node.solvers import tableau

    n_stages = tableau("rk4")[1].size
    for (stage, layer), want in p.w.expected_calls(n_stages).items():
        got = tracer.total_calls(layer, {stage})
        ledger.check(got == want, f"{layer} calls in {stage}: {got}, "
                                  f"schedule says {want}")


def end_to_end(stage_s: dict) -> dict:
    """End-to-end times from one time per stage; the chain is their sum."""
    return {
        "pipeline_s": sum(stage_s.values()),
        "decompose_s": stage_s["decompose"],
        "fit_s": sum(v for k, v in stage_s.items() if k.startswith("fit_")),
        "predict_s": sum(v for k, v in stage_s.items() if k.startswith("predict_")),
        "compare_s": stage_s["compare"],
    }


def collect(samples: list) -> dict:
    """{metric: [value of each pipeline]} from a list of per-pipeline dicts."""
    return {k: [s[k] for s in samples] for k in samples[0]}


class SpeedScaler:
    """Timed calls scaled to the reference machine speed (see probe.py).

    Calls are added as they end. Once about PROBE_EVERY_S of them are
    pending, or at `flush`, the probe runs again, and each pending call is
    scaled by REFERENCE_S over the mean of the probes just before and just
    after it, so the scale follows the machine's drift stage by stage. A
    call whose key is in `scalar_keys` is scaled by the scalar probe, any
    other by the full one."""

    def __init__(self, scalar_keys):
        from probe import REFERENCE_S, probe_seconds

        self.reference_s = REFERENCE_S
        self.probe = probe_seconds
        self.kind = lambda key: "scalar" if key in scalar_keys else "full"
        self.probe()  # warm-up
        self.before = self.probe()
        self.pending = []
        self.scaled = {}  # key -> [seconds at the reference speed]
        self.scales = []

    def restart(self):
        """Probe afresh after untimed work, so `before` is next to the
        next call."""
        self.before = self.probe()

    def add(self, key, seconds: float):
        self.pending.append((key, seconds))
        if sum(s for _, s in self.pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        after = self.probe()
        scale = {k: self.reference_s[k] / (0.5 * (self.before[k] + after[k]))
                 for k in after}
        self.before = after
        self.scales.append(scale["full"])
        for key, seconds in self.pending:
            self.scaled.setdefault(key, []).append(
                scale[self.kind(key)] * seconds)
        self.pending = []


def measure(p: Pipeline, seconds: float, traced: bool, ledger: Ledger):
    """Run pipelines for `seconds` after setup and one warm-up pipeline.

    Untraced pipelines give end-to-end samples; with `traced`, every other
    pipeline runs under the tracer, each stage once, and gives per-layer
    samples. Every timed call and setup sample is scaled to the reference
    speed by the probes around it (SpeedScaler). End-to-end times are
    medians over all scaled calls of the run; setup_s is the median of its
    scaled fresh interpreters."""
    from nirom.accel import USE_NUMBA
    from tracing import Tracer

    started = time.perf_counter()
    rmse_runs, layered, load_s = [], [], []

    # warm-up: checked, not timed; it fills the bytecode cache
    if setup_sample(p, ledger) is None or p.run(ledger) is None:
        return None
    rmse_runs.append(check_outputs(p, ledger))
    repeats = {s: p.w.repeats.get(s, 1) for s in STAGES}
    scaler = SpeedScaler(p.w.scalar_stages)
    untraced = 0
    for i in itertools.count():
        pipeline_start = time.perf_counter()
        if traced and i % 2 == 1:
            with Tracer() as tracer:
                times = p.run(ledger, tracer)
                if times is not None:
                    scaler.add("traced_chain",
                               sum(t[0] for t in times.values()))
                    probe_gradients(p, tracer, ledger)
        else:
            tracer = None
            times = p.run(ledger, repeats=repeats, on_call=scaler.add)
            untraced += times is not None
        if times is None:
            return None
        scaler.flush()
        if len(load_s) < SETUP_SAMPLES:
            scaler.restart()
            setup = setup_sample(p, ledger)
            if setup is None:
                return None
            scaler.add("setup", setup[0])
            scaler.flush()
            load_s.append(setup[1])
        # checked outside the timed spans, so it costs run time only
        rmse_runs.append(check_outputs(p, ledger))
        if tracer is not None:
            if not USE_NUMBA:
                check_schedule(p, tracer, ledger)
            once = {s: t[0] for s, t in times.items()}
            layered.append(layer_metrics(tracer, once, USE_NUMBA))

        now = time.perf_counter()
        done = min(untraced, len(layered)) if traced else untraced
        # stop before a pipeline like the last one would overrun the run
        if done >= MIN_PIPELINES and 2 * now - pipeline_start - started > seconds:
            break
        if now - started >= HARD_LIMIT_S:
            break
        scaler.restart()

    ledger.check(all(r == rmse_runs[0] for r in rmse_runs),
                 "every pipeline of the run gives identical RMSEs")
    from workloads import RMSE_FLOOR

    median = statistics.median
    e2e = end_to_end({s: median(scaler.scaled[s]) for s in STAGES})
    if traced:
        samples = collect(layered)
        samples["config.load_s"] = load_s
        samples["trace_overhead"] = [
            median(scaler.scaled["traced_chain"]) / e2e["pipeline_s"]]
    else:
        samples = {k: [v] for k, v in e2e.items()}
        samples["setup_s"] = [median(scaler.scaled["setup"])]
        samples["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        for method, value in rmse_runs[-1].items():
            samples[f"rmse_{method}"] = [max(value, RMSE_FLOOR)]
    counts = {
        "pipelines": untraced + len(layered),
        "setup_samples": len(load_s),
        "probes": len(scaler.scales),
        "full_speed_scale": {"median": median(scaler.scales),
                        "min": min(scaler.scales), "max": max(scaler.scales)},
    }
    return samples, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nirom" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no nirom source tree (src/nirom) "
              "or no BENCHMARK.json; run from a repository checkout",
              file=sys.stderr)
        return 2
    limit_blas_threads(nproc())
    sys.path.insert(0, str(SRC))
    import nirom

    if Path(nirom.__file__).resolve().parent != SRC / "nirom":
        print(f"error: imported nirom from {nirom.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import JIT_HIDDEN
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment(args.workload, args.seed)
    print("environment: " + json.dumps(env))
    print(f"closed loop, 1 client; measuring {args.seconds:g} s; "
          f"trace={args.trace}")

    ledger = Ledger()
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pipeline = Pipeline(WORKLOADS[args.workload], args.seed, work_dir)
        result = measure(pipeline, args.seconds, bool(args.trace), ledger)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if result is None:
        print(json.dumps({"correct": False, "attempted": ledger.attempted,
                          "failed": ledger.failed, "metrics": {}}))
        return 0
    samples, counts = result
    print(f"samples: {json.dumps(counts)}; reported value = median "
          "over pipelines (median, max, n alongside)")
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in samples:
            hidden = (env["backend"] == "numba"
                      and name.rsplit("_", 1)[0] in JIT_HIDDEN)
            reason = ("unavailable: jitted callers bind it at compile time"
                      if hidden else "missing")
            ledger.check(hidden, f"metric {name} {reason}")
            print(f"  {name:32s} {reason}")
            continue
        values = samples[name]
        value = float(statistics.median(values))
        ledger.check(math.isfinite(value), f"metric {name} is finite")
        out[name] = {"value": value, "unit": unit}
        spread = (f"  (median {statistics.median(values):.6g}, "
                  f"max {max(values):.6g}, n={len(values)})"
                  if len(values) > 1 else "")
        print(f"  {name:32s} {value:.6g} {unit}{spread}")
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
