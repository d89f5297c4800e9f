"""Pipeline configuration: one JSON document, one block per stage.

Every block is checked against a closed key set so a typo fails loudly with
its dotted path instead of being silently ignored. Numeric invariants of the
domain objects (positive steps, ranks in range) are enforced by the objects
themselves; this module wraps those failures with the block path.
"""

import json
from dataclasses import dataclass

from .errors import ConfigError
from .node import PRESETS, LrSchedule, SolverSpec, TrainConfig
from .node.network import ACTIVATIONS
from .snapshot import SyntheticSpec


def _check_keys(block, path: str, allowed) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"'{path}' must be a JSON object")
    for key in block:
        where = f"{path}.{key}" if path else key
        if key not in allowed:
            raise ConfigError(f"unknown key '{where}'")


def _need(block: dict, path: str, key: str):
    if key not in block:
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"missing key '{where}'")
    return block[key]


def _number(block, path, key, default=None):
    if key not in block:
        if default is None:
            _need(block, path, key)
        return float(default)
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{path}.{key}' must be a number")
    return float(val)


def _integer(block, path, key, default=None):
    if key not in block:
        if default is None:
            _need(block, path, key)
        return default
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"'{path}.{key}' must be an integer")
    return val


def _boolean(block, path, key, default):
    val = block.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(f"'{path}.{key}' must be true or false")
    return val


def _string(block, path, key, default=None):
    if key not in block:
        if default is None:
            _need(block, path, key)
        return default
    val = block[key]
    if not isinstance(val, str):
        raise ConfigError(f"'{path}.{key}' must be a string")
    return val


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
class PredictBlock:
    t_start: float
    t_end: float
    dt: float


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
    predict: PredictBlock | None


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
        return _string(block, "input", "path"), None
    spec_kwargs = dict(
        kind=_string(block, "input", "kind"),
        grid_points=_integer(block, "input", "grid_points"),
        t_start=_number(block, "input", "t_start", 0.0),
        t_end=_number(block, "input", "t_end"),
        dt=_number(block, "input", "dt"),
        wave_speed=_number(block, "input", "wave_speed", 1.0),
        omega=_number(block, "input", "omega", 1.0),
        component=_string(block, "input", "component", "u"),
        seed=seed,
    )
    try:
        return None, SyntheticSpec(**spec_kwargs)
    except ValueError as exc:
        raise ConfigError(f"input: {exc}") from exc


def _parse_pod(block) -> PodCriterion:
    _check_keys(block, "pod", {"rank", "tolerance"})
    rank = _integer(block, "pod", "rank", 0) if "rank" in block else None
    tol = _number(block, "pod", "tolerance", 0.0) if "tolerance" in block else None
    if (rank is None) == (tol is None):
        raise ConfigError("'pod' needs exactly one of 'rank' or 'tolerance'")
    if rank is not None and rank < 1:
        raise ConfigError("'pod.rank' must be at least 1")
    if tol is not None and not 0.0 < tol < 1.0:
        raise ConfigError("'pod.tolerance' must be in (0, 1)")
    return PodCriterion(rank, tol)


def _parse_rbf(block) -> RbfBlock:
    _check_keys(block, "rbf", {"shape_factor"})
    c = _number(block, "rbf", "shape_factor")
    if c <= 0:
        raise ConfigError("'rbf.shape_factor' must be positive")
    return RbfBlock(c)


def _parse_solver(block) -> SolverSpec:
    _check_keys(block, "node.solver", {"method", "step", "rtol", "atol",
                                       "max_steps"})
    kwargs = {"method": _string(block, "node.solver", "method")}
    if "step" in block:
        kwargs["step"] = _number(block, "node.solver", "step")
    if "rtol" in block:
        kwargs["rtol"] = _number(block, "node.solver", "rtol")
    if "atol" in block:
        kwargs["atol"] = _number(block, "node.solver", "atol")
    if "max_steps" in block:
        kwargs["max_steps"] = _integer(block, "node.solver", "max_steps")
    try:
        return SolverSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"node.solver: {exc}") from exc


def _parse_schedule(block, base_lr: float) -> LrSchedule:
    _check_keys(block, "node.schedule", {"kind", "decay_steps", "decay_rate"})
    try:
        return LrSchedule(
            _string(block, "node.schedule", "kind", "staircase"),
            base_lr,
            _integer(block, "node.schedule", "decay_steps"),
            _number(block, "node.schedule", "decay_rate"),
        )
    except ValueError as exc:
        raise ConfigError(f"node.schedule: {exc}") from exc


_NODE_KEYS = {
    "preset", "hidden", "activation", "scaling", "augmented", "time_input",
    "epochs", "learning_rate", "momentum", "schedule", "grad_mode", "solver",
}
_PRESET_ONLY_CONFLICTS = {"hidden", "activation", "scaling", "augmented",
                          "learning_rate", "momentum", "schedule"}


def _parse_node(block) -> NodeBlock:
    _check_keys(block, "node", _NODE_KEYS)
    solver = _parse_solver(block["solver"]) if "solver" in block else None
    time_input = _boolean(block, "node", "time_input", True)
    grad_mode = _string(block, "node", "grad_mode", "backprop_through_solver")

    if "preset" in block:
        name = _string(block, "node", "preset")
        if name not in PRESETS:
            raise ConfigError(
                f"'node.preset' must be one of NODE1..NODE8, got {name!r}"
            )
        clash = sorted(_PRESET_ONLY_CONFLICTS & set(block))
        if clash:
            raise ConfigError(
                f"'node.{clash[0]}' conflicts with 'node.preset'"
            )
        p = PRESETS[name]
        epochs = _integer(block, "node", "epochs", p.epochs)
        schedule = LrSchedule("staircase", p.learning_rate, p.decay_steps,
                              p.decay_rate)
        try:
            train = TrainConfig(
                epochs=epochs, learning_rate=p.learning_rate,
                momentum=p.momentum, schedule=schedule, grad_mode=grad_mode,
            )
        except ValueError as exc:
            raise ConfigError(f"node: {exc}") from exc
        return NodeBlock(
            preset=name, hidden=(p.width,) * p.n_hidden,
            activation=p.activation, scaling=p.scaling,
            augment_dim=1 if p.augmented else 0, time_input=time_input,
            train=train, solver=solver,
        )

    hidden = _need(block, "node", "hidden")
    if (not isinstance(hidden, list) or not hidden
            or any(isinstance(w, bool) or not isinstance(w, int) or w < 1
                   for w in hidden)):
        raise ConfigError("'node.hidden' must be a list of positive integers")
    activation = _string(block, "node", "activation")
    if activation not in ACTIVATIONS:
        raise ConfigError(
            f"'node.activation' must be one of {sorted(ACTIVATIONS)}"
        )
    lr = _number(block, "node", "learning_rate", 1e-3)
    schedule = None
    if "schedule" in block:
        schedule = _parse_schedule(block["schedule"], lr)
    try:
        train = TrainConfig(
            epochs=_integer(block, "node", "epochs"),
            learning_rate=lr,
            momentum=_number(block, "node", "momentum", 0.9),
            schedule=schedule,
            grad_mode=grad_mode,
        )
    except ValueError as exc:
        raise ConfigError(f"node: {exc}") from exc
    return NodeBlock(
        preset=None, hidden=tuple(hidden), activation=activation,
        scaling=_boolean(block, "node", "scaling", False),
        augment_dim=1 if _boolean(block, "node", "augmented", False) else 0,
        time_input=time_input, train=train, solver=solver,
    )


def _parse_dmd(block) -> DmdBlock:
    _check_keys(block, "dmd", {"rank"})
    rank = _integer(block, "dmd", "rank")
    if rank < 1:
        raise ConfigError("'dmd.rank' must be at least 1")
    return DmdBlock(rank)


def _parse_predict(block) -> PredictBlock:
    _check_keys(block, "predict", {"t_start", "t_end", "dt"})
    p = PredictBlock(
        _number(block, "predict", "t_start"),
        _number(block, "predict", "t_end"),
        _number(block, "predict", "dt"),
    )
    if p.dt <= 0:
        raise ConfigError("'predict.dt' must be positive")
    if p.t_end <= p.t_start:
        raise ConfigError("'predict.t_end' must exceed 'predict.t_start'")
    if p.dt > p.t_end - p.t_start:
        raise ConfigError(
            "'predict.dt' must not exceed 't_end - t_start': the grid needs "
            "at least two times"
        )
    return p


_TOP_KEYS = {"seed", "output_dir", "input", "pod", "rbf", "node", "dmd",
             "predict"}


def parse_config(doc, seed_override: int | None = None) -> PipelineConfig:
    _check_keys(doc, "", _TOP_KEYS)
    seed = _integer(doc, "", "seed", 0)
    if seed_override is not None:
        seed = seed_override
    input_path, synthetic = _parse_input(_need(doc, "", "input"), seed)
    cfg = PipelineConfig(
        seed=seed,
        output_dir=_string(doc, "", "output_dir", "") or None,
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(doc, seed_override)
