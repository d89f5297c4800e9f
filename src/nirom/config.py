"""Pipeline configuration: one JSON document, one block per stage.

Every block is checked against a closed key set so a typo fails loudly with
its dotted path instead of being silently ignored, and every value is read
through one typed getter (numbers must be finite). A node preset is shorthand
for the node keys it fixes. Numeric invariants of the domain objects
(positive steps, ranks in range) are enforced by the objects themselves,
whose messages start with the field at fault; this module names that field
by its dotted key (_key_error).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .containers import MAX_LABEL_BYTES
from .errors import ConfigError
from .node import LrSchedule, SolverSpec, TrainConfig
from .node.network import ACTIVATIONS
from .node.solvers import FIXED_METHODS
from .snapshot import MAX_FIELD_BYTES, SyntheticSpec, time_grid

SEED_MAX = 2**64 - 1  # NET1 stores the seed as a u64
GRID_POINTS_MAX = 2**32 - 1  # SNP1 stores the grid size as a u32


def _where(path: str, key: str) -> str:
    """Dotted path of a key: 'seed' at the top level, 'pod.rank' below."""
    return f"{path}.{key}" if path else key


def _check_keys(block, path: str, allowed) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"'{path}' must be a JSON object" if path
                          else "the config must be a JSON object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{_where(path, key)}'")


_KINDS = {float: "a finite number", int: "an integer", bool: "true or false",
          str: "a string", list: "a list", dict: "a JSON object"}


def _finite(val) -> bool:
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _get(block: dict, path: str, key: str, kind, default=None):
    """The value of ``key`` in the block at ``path``, checked to be of
    ``kind`` (a type in _KINDS; float means a finite number, returned as a
    float). A missing key gives ``default``, or fails when that is None.
    JSON booleans are never numbers: ``true`` is not an integer here."""
    if key not in block:
        if default is None:
            raise ConfigError(f"missing key '{_where(path, key)}'")
        return default
    val = block[key]
    if kind is float:
        ok = isinstance(val, (int, float)) and _finite(val)
    else:
        ok = isinstance(val, kind)
    if not ok or isinstance(val, bool) != (kind is bool):
        raise ConfigError(f"'{_where(path, key)}' must be {_KINDS[kind]}")
    return float(val) if kind is float else val


def _key_error(path: str, exc: ValueError) -> ConfigError:
    """A domain object's ValueError, whose message starts with the
    parameter at fault, as a ConfigError naming that key of block path."""
    key, rest = str(exc).split(" ", 1)
    return ConfigError(f"'{path}.{key}' {rest}")


@dataclass(frozen=True)
class PodCriterion:
    rank: int | None
    tolerance: float | None


@dataclass(frozen=True)
class RbfBlock:
    shape_factor: float


@dataclass(frozen=True)
class NodeBlock:
    preset: str | None
    hidden: tuple
    activation: str
    scaling: bool
    augment_dim: int
    time_input: bool
    train: TrainConfig
    solver: SolverSpec | None


@dataclass(frozen=True)
class DmdBlock:
    rank: int


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    output_dir: str | None
    input_path: str | None
    synthetic: SyntheticSpec | None
    pod: PodCriterion | None
    rbf: RbfBlock | None
    node: NodeBlock | None
    dmd: DmdBlock | None
    predict: np.ndarray | None  # the prediction times


_INPUT_KEYS = {
    "path", "kind", "grid_points", "t_start", "t_end", "dt",
    "wave_speed", "omega", "component",
}


def _parse_input(block, seed: int):
    _check_keys(block, "input", _INPUT_KEYS)
    if "path" in block:
        extra = sorted(set(block) - {"path"})
        if extra:
            raise ConfigError(
                f"'input.{extra[0]}' cannot be combined with 'input.path'"
            )
        return _get(block, "input", "path", str), None
    try:
        spec = SyntheticSpec(
            kind=_get(block, "input", "kind", str),
            grid_points=_get(block, "input", "grid_points", int),
            t_start=_get(block, "input", "t_start", float, 0.0),
            t_end=_get(block, "input", "t_end", float),
            dt=_get(block, "input", "dt", float),
            wave_speed=_get(block, "input", "wave_speed", float, 1.0),
            omega=_get(block, "input", "omega", float, 1.0),
            component=_get(block, "input", "component", str, "u"),
            seed=seed,
        )
    except ValueError as exc:
        raise _key_error("input", exc) from exc
    n, m = spec.grid_points, spec.times.size
    if n > GRID_POINTS_MAX:
        raise ConfigError(f"'input.grid_points' is {n}, but SNP1 holds at "
                          f"most {GRID_POINTS_MAX} points")
    try:
        size = len(spec.component.encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise ConfigError(
            f"'input.component' is not UTF-8 text ({exc.reason})") from exc
    if size > MAX_LABEL_BYTES:
        raise ConfigError(f"'input.component' is {size} bytes in UTF-8, but "
                          f"SNP1 holds a label of at most {MAX_LABEL_BYTES}")
    need = 8 * n * m + (8 * n * n if spec.kind == "linear_system" else 0)
    if need > MAX_FIELD_BYTES:
        raise ConfigError(
            f"'input.grid_points' is {n}: the {spec.kind} field takes "
            f"{need / 2**30:.3g} GiB, above the limit of "
            f"{MAX_FIELD_BYTES / 2**30:g} GiB")
    return None, spec


def _parse_pod(block) -> PodCriterion:
    _check_keys(block, "pod", {"rank", "tolerance"})
    rank = _get(block, "pod", "rank", int) if "rank" in block else None
    tol = _get(block, "pod", "tolerance", float) if "tolerance" in block else None
    if (rank is None) == (tol is None):
        raise ConfigError("'pod' needs exactly one of 'rank' or 'tolerance'")
    if rank is not None and rank < 1:
        raise ConfigError("'pod.rank' must be at least 1")
    if tol is not None and not 0.0 < tol < 1.0:
        raise ConfigError("'pod.tolerance' must be in (0, 1)")
    return PodCriterion(rank, tol)


def _parse_rbf(block) -> RbfBlock:
    _check_keys(block, "rbf", {"shape_factor"})
    c = _get(block, "rbf", "shape_factor", float)
    if c <= 0:
        raise ConfigError("'rbf.shape_factor' must be positive")
    return RbfBlock(c)


_SOLVER_OPTIONS = {"step": float, "rtol": float, "atol": float,
                   "max_steps": int}
#: the options a solver method never reads
_UNREAD_OPTIONS = {"dopri5": ("step",),
                   **dict.fromkeys(FIXED_METHODS, ("rtol", "atol"))}


def _parse_solver(block) -> SolverSpec:
    _check_keys(block, "node.solver", {"method", *_SOLVER_OPTIONS})
    method = _get(block, "node.solver", "method", str)
    for key in _UNREAD_OPTIONS.get(method, ()):
        if key in block:
            raise ConfigError(
                f"'node.solver.{key}' is not read by method {method!r}")
    options = {key: _get(block, "node.solver", key, kind)
               for key, kind in _SOLVER_OPTIONS.items() if key in block}
    try:
        return SolverSpec(method, **options)
    except ValueError as exc:
        raise _key_error("node.solver", exc) from exc


def _parse_schedule(block) -> LrSchedule:
    _check_keys(block, "node.schedule", {"kind", "decay_steps", "decay_rate"})
    try:
        return LrSchedule(
            _get(block, "node.schedule", "kind", str, "staircase"),
            _get(block, "node.schedule", "decay_steps", int),
            _get(block, "node.schedule", "decay_rate", float),
        )
    except ValueError as exc:
        raise _key_error("node.schedule", exc) from exc


_NODE_KEYS = {
    "preset", "hidden", "activation", "scaling", "augmented", "time_input",
    "epochs", "learning_rate", "momentum", "schedule", "grad_mode", "solver",
}


#: The node keys each tuned preset stands for, built from its row: hidden
#: layers, width, activation, staircase decay steps and rate, input scaling,
#: state augmentation. Every preset trains for 50000 epochs at learning rate
#: 1e-3 with momentum 0.9. All its keys but epochs are fixed: a block naming
#: a preset may not set them itself.
PRESETS = {
    name: {"hidden": [width] * n_hidden, "activation": activation,
           "scaling": scaling, "augmented": augmented,
           "learning_rate": 1e-3, "momentum": 0.9,
           "schedule": {"kind": "staircase", "decay_steps": decay_steps,
                        "decay_rate": decay_rate},
           "epochs": 50000}
    for name, (n_hidden, width, activation, decay_steps, decay_rate, scaling,
               augmented) in {
        "NODE1": (1, 256, "elu", 10000, 0.3, False, False),
        "NODE2": (1, 256, "tanh", 5000, 0.7, True, False),
        "NODE3": (1, 512, "elu", 5000, 0.5, False, False),
        "NODE4": (1, 256, "tanh", 10000, 0.25, True, True),
        "NODE5": (4, 64, "tanh", 5000, 0.5, True, False),
        "NODE6": (1, 256, "elu", 10000, 0.1, False, False),
        "NODE7": (2, 128, "elu", 5000, 0.5, False, False),
        "NODE8": (1, 512, "tanh", 5000, 0.5, True, True),
    }.items()
}


def _parse_node(block) -> NodeBlock:
    _check_keys(block, "node", _NODE_KEYS)
    preset = None
    if "preset" in block:
        preset = _get(block, "node", "preset", str)
        if preset not in PRESETS:
            raise ConfigError(
                f"'node.preset' must be one of NODE1..NODE8, got {preset!r}"
            )
        clash = sorted((PRESETS[preset].keys() - {"epochs"}) & block.keys())
        if clash:
            raise ConfigError(
                f"'node.{clash[0]}' conflicts with 'node.preset'"
            )
        # a new block: the table's own dicts are never written
        block = {**PRESETS[preset], **block}

    hidden = _get(block, "node", "hidden", list)
    if not hidden or any(isinstance(w, bool) or not isinstance(w, int) or w < 1
                         for w in hidden):
        raise ConfigError("'node.hidden' must be a list of positive integers")
    activation = _get(block, "node", "activation", str)
    if activation not in ACTIVATIONS:
        raise ConfigError(
            f"'node.activation' must be one of {sorted(ACTIVATIONS)}"
        )
    lr = _get(block, "node", "learning_rate", float, 1e-3)
    if not lr > 0:  # before the schedule, which decays it
        raise ConfigError("'node.learning_rate' must be positive")
    schedule = None
    if "schedule" in block:
        schedule = _parse_schedule(block["schedule"])
    try:
        train = TrainConfig(
            epochs=_get(block, "node", "epochs", int),
            learning_rate=lr,
            momentum=_get(block, "node", "momentum", float, 0.9),
            schedule=schedule,
            grad_mode=_get(block, "node", "grad_mode", str,
                           "backprop_through_solver"),
        )
    except ValueError as exc:
        raise _key_error("node", exc) from exc
    solver = _parse_solver(block["solver"]) if "solver" in block else None
    return NodeBlock(
        preset=preset, hidden=tuple(hidden), activation=activation,
        scaling=_get(block, "node", "scaling", bool, False),
        augment_dim=1 if _get(block, "node", "augmented", bool, False) else 0,
        time_input=_get(block, "node", "time_input", bool, True),
        train=train,
        solver=solver,
    )


def _parse_dmd(block) -> DmdBlock:
    _check_keys(block, "dmd", {"rank"})
    rank = _get(block, "dmd", "rank", int)
    if rank < 1:
        raise ConfigError("'dmd.rank' must be at least 1")
    return DmdBlock(rank)


def _parse_predict(block) -> np.ndarray:
    _check_keys(block, "predict", {"t_start", "t_end", "dt"})
    try:
        return time_grid(*(_get(block, "predict", key, float)
                           for key in ("t_start", "t_end", "dt")))
    except ValueError as exc:
        raise _key_error("predict", exc) from exc


_TOP_KEYS = {"seed", "output_dir", "input", "pod", "rbf", "node", "dmd",
             "predict"}


def parse_config(doc, seed_override: int | None = None) -> PipelineConfig:
    _check_keys(doc, "", _TOP_KEYS)
    seed = _get(doc, "", "seed", int, 0)
    if seed_override is not None:
        seed = seed_override
    if not 0 <= seed <= SEED_MAX:
        raise ConfigError(
            f"seed {seed} out of range: 'seed' and --seed must lie in "
            "[0, 2**64 - 1]"
        )
    input_path, synthetic = _parse_input(_get(doc, "", "input", dict), seed)
    cfg = PipelineConfig(
        seed=seed,
        output_dir=_get(doc, "", "output_dir", str, "") or None,
        input_path=input_path,
        synthetic=synthetic,
        pod=_parse_pod(doc["pod"]) if "pod" in doc else None,
        rbf=_parse_rbf(doc["rbf"]) if "rbf" in doc else None,
        node=_parse_node(doc["node"]) if "node" in doc else None,
        dmd=_parse_dmd(doc["dmd"]) if "dmd" in doc else None,
        predict=_parse_predict(doc["predict"]) if "predict" in doc else None,
    )
    if cfg.rbf is None and cfg.node is None and cfg.dmd is None:
        raise ConfigError(
            "config needs at least one method block ('rbf', 'node', or 'dmd')"
        )
    return cfg


def load_config(path, seed_override: int | None = None) -> PipelineConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(doc, seed_override)
