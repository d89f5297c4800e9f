"""Config parsing: closed key sets, dotted error paths, block validation."""

import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from nirom.config import PRESETS, load_config, parse_config
from nirom.errors import ConfigError
from nirom.node.solvers import MAX_STEPS
from nirom.snapshot import MAX_FIELD_BYTES, MAX_GRID_TIMES, time_grid
from reference import PRESET_ROWS


def base_doc(**extra):
    doc = {
        "input": {
            "kind": "traveling_wave",
            "grid_points": 64,
            "t_end": 1.98,
            "dt": 0.02,
        },
        "dmd": {"rank": 2},
    }
    doc.update(extra)
    return doc


def test_minimal_config_parses():
    cfg = parse_config(base_doc())
    assert cfg.seed == 0
    assert cfg.input_path is None
    assert cfg.synthetic.kind == "traveling_wave"
    assert cfg.synthetic.grid_points == 64
    assert cfg.synthetic.t_start == 0.0
    assert cfg.dmd.rank == 2
    assert cfg.pod is None and cfg.rbf is None and cfg.node is None


def test_seed_override_wins():
    cfg = parse_config(base_doc(seed=5), seed_override=9)
    assert cfg.seed == 9
    assert cfg.synthetic.seed == 9


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_range_rejected(seed):
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config(base_doc(seed=seed))
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config(base_doc(), seed_override=seed)


def test_seed_range_ends_accepted():
    assert parse_config(base_doc(seed=2**64 - 1)).seed == 2**64 - 1
    assert parse_config(base_doc(seed=5), seed_override=0).seed == 0


def test_top_level_type_errors_name_the_key_plainly():
    with pytest.raises(ConfigError, match="^'seed' must be an integer"):
        parse_config(base_doc(seed=1.5))
    with pytest.raises(ConfigError, match="^the config must be a JSON object"):
        parse_config([base_doc()])


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key 'outputs'"):
        parse_config(base_doc(outputs="x"))


def test_unknown_nested_key_reports_dotted_path():
    doc = base_doc(pod={"rnak": 3})
    with pytest.raises(ConfigError, match="unknown key 'pod.rnak'"):
        parse_config(doc)


def test_missing_input_block():
    with pytest.raises(ConfigError, match="missing key 'input'"):
        parse_config({"dmd": {"rank": 2}})


def test_missing_input_kind_names_path():
    doc = base_doc()
    del doc["input"]["kind"]
    with pytest.raises(ConfigError, match="input.kind"):
        parse_config(doc)


def test_input_path_excludes_synthetic_keys():
    doc = base_doc()
    doc["input"] = {"path": "snapshots.snp", "dt": 0.1}
    with pytest.raises(ConfigError, match="cannot be combined with 'input.path'"):
        parse_config(doc)


def test_input_path_accepted():
    doc = base_doc()
    doc["input"] = {"path": "data/run.snp"}
    cfg = parse_config(doc)
    assert cfg.input_path == "data/run.snp"
    assert cfg.synthetic is None


def test_bad_synthetic_kind_wrapped():
    doc = base_doc()
    doc["input"]["kind"] = "mystery"
    with pytest.raises(ConfigError, match="input"):
        parse_config(doc)


def test_bad_synthetic_parameters_name_their_key():
    doc = base_doc()
    doc["input"]["kind"] = "mystery"
    with pytest.raises(ConfigError, match="^'input.kind' must be one of .*"
                                          "got 'mystery'$"):
        parse_config(doc)
    doc = base_doc()
    doc["input"]["grid_points"] = 1
    with pytest.raises(ConfigError, match="^'input.grid_points' must be >= 2"):
        parse_config(doc)


def test_needs_a_method_block():
    doc = base_doc()
    del doc["dmd"]
    doc["pod"] = {"rank": 2}
    with pytest.raises(ConfigError, match="at least one method block"):
        parse_config(doc)


# pod ------------------------------------------------------------------


def test_pod_rank_and_tolerance_are_exclusive():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(base_doc(pod={"rank": 2, "tolerance": 1e-6}))
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(base_doc(pod={}))


def test_pod_rank_zero_rejected():
    with pytest.raises(ConfigError, match="'pod.rank' must be at least 1"):
        parse_config(base_doc(pod={"rank": 0}))


def test_pod_tolerance_range():
    with pytest.raises(ConfigError, match="pod.tolerance"):
        parse_config(base_doc(pod={"tolerance": 1.5}))
    cfg = parse_config(base_doc(pod={"tolerance": 1e-10}))
    assert cfg.pod.tolerance == 1e-10
    assert cfg.pod.rank is None


def test_pod_rank_must_be_integer():
    with pytest.raises(ConfigError, match="'pod.rank' must be an integer"):
        parse_config(base_doc(pod={"rank": 2.5}))


# rbf ------------------------------------------------------------------


def test_rbf_shape_factor():
    cfg = parse_config(base_doc(rbf={"shape_factor": 0.05}))
    assert cfg.rbf.shape_factor == 0.05


def test_rbf_shape_factor_positive():
    with pytest.raises(ConfigError, match="shape_factor"):
        parse_config(base_doc(rbf={"shape_factor": 0.0}))


# node -----------------------------------------------------------------


def test_node_preset_block():
    cfg = parse_config(base_doc(node={"preset": "NODE2", "epochs": 10}))
    nb = cfg.node
    assert nb.preset == "NODE2"
    assert nb.hidden == (256,)
    assert nb.activation == "tanh"
    assert nb.scaling is True
    assert nb.augment_dim == 0
    assert nb.train.epochs == 10
    assert nb.train.schedule.kind == "staircase"
    assert nb.train.schedule.decay_steps == 5000
    assert nb.train.schedule.decay_rate == 0.7


def test_node_unknown_preset():
    with pytest.raises(ConfigError, match="NODE1..NODE8"):
        parse_config(base_doc(node={"preset": "NODE99"}))


def test_node_preset_conflicts_with_architecture_keys():
    doc = base_doc(node={"preset": "NODE1", "hidden": [4]})
    with pytest.raises(ConfigError, match="conflicts with 'node.preset'"):
        parse_config(doc)
    doc = base_doc(node={"preset": "NODE1", "learning_rate": 0.5})
    with pytest.raises(ConfigError, match="conflicts with 'node.preset'"):
        parse_config(doc)


def _spelled_out(name: str) -> dict:
    n_hidden, width, act, steps, rate, scaling, augmented = PRESET_ROWS[name]
    return {
        "hidden": [width] * n_hidden, "activation": act,
        "scaling": scaling, "augmented": augmented,
        "learning_rate": 1e-3, "momentum": 0.9,
        "schedule": {"kind": "staircase", "decay_steps": steps,
                     "decay_rate": rate},
        "epochs": 50000,
    }


@pytest.mark.parametrize("name", sorted(PRESET_ROWS))
def test_node_preset_is_its_explicit_block(name):
    extra = {"time_input": False, "grad_mode": "adjoint",
             "solver": {"method": "midpoint", "step": 0.01}}
    for accompany in ({}, extra):
        preset = parse_config(base_doc(node={"preset": name, **accompany}))
        explicit = parse_config(base_doc(
            node={**_spelled_out(name), **accompany}))
        assert preset.node.preset == name
        assert dataclasses.replace(preset.node, preset=None) == explicit.node


def test_node_preset_overrides_leave_the_table_unchanged():
    table = copy.deepcopy(PRESETS)
    cfg = parse_config(base_doc(node={"preset": "NODE7", "epochs": 3}))
    assert cfg.node.train.epochs == 3
    assert PRESETS == table


def test_node_explicit_block_defaults():
    cfg = parse_config(base_doc(node={
        "hidden": [32, 32], "activation": "elu", "epochs": 100,
    }))
    nb = cfg.node
    assert nb.preset is None
    assert nb.hidden == (32, 32)
    assert nb.activation == "elu"
    assert nb.scaling is False
    assert nb.augment_dim == 0
    assert nb.time_input is True
    assert nb.train.learning_rate == 1e-3
    assert nb.train.momentum == 0.9
    assert nb.train.schedule is None
    assert nb.solver is None


def test_node_explicit_requires_hidden():
    with pytest.raises(ConfigError, match="node.hidden"):
        parse_config(base_doc(node={"activation": "tanh", "epochs": 1}))


def test_node_hidden_must_be_positive_ints():
    for bad in ([], [0], [4, -1], ["8"], [True]):
        with pytest.raises(ConfigError, match="node.hidden"):
            parse_config(base_doc(node={
                "hidden": bad, "activation": "tanh", "epochs": 1,
            }))


def test_node_unknown_activation():
    with pytest.raises(ConfigError, match="node.activation"):
        parse_config(base_doc(node={
            "hidden": [4], "activation": "softplus", "epochs": 1,
        }))


def test_node_requires_epochs():
    with pytest.raises(ConfigError, match="node.epochs"):
        parse_config(base_doc(node={"hidden": [4], "activation": "tanh"}))


def test_node_schedule_and_flags():
    cfg = parse_config(base_doc(node={
        "hidden": [8], "activation": "tanh", "epochs": 50,
        "learning_rate": 0.01, "scaling": True, "augmented": True,
        "schedule": {"kind": "exponential", "decay_steps": 10,
                     "decay_rate": 0.5},
    }))
    nb = cfg.node
    assert nb.scaling is True
    assert nb.augment_dim == 1
    sched = nb.train.schedule
    assert sched.kind == "exponential"
    assert nb.train.learning_rate == 0.01
    assert sched.decay_steps == 10


@pytest.mark.parametrize("schedule", [None, {"decay_steps": 10,
                                              "decay_rate": 0.5}])
def test_node_bad_learning_rate_names_the_key(schedule):
    node = {"hidden": [4], "activation": "tanh", "epochs": 1,
            "learning_rate": -1.0}
    if schedule is not None:
        node["schedule"] = schedule
    with pytest.raises(ConfigError,
                       match="^'node.learning_rate' must be positive"):
        parse_config(base_doc(node=node))


def test_node_bad_schedule_kind_wrapped():
    with pytest.raises(ConfigError, match="node.schedule"):
        parse_config(base_doc(node={
            "hidden": [8], "activation": "tanh", "epochs": 1,
            "schedule": {"kind": "cosine", "decay_steps": 10,
                         "decay_rate": 0.5},
        }))


def test_node_solver_block():
    cfg = parse_config(base_doc(node={
        "hidden": [8], "activation": "tanh", "epochs": 1,
        "solver": {"method": "midpoint", "step": 0.05},
    }))
    assert cfg.node.solver.method == "midpoint"
    assert cfg.node.solver.step == 0.05


def test_node_bad_solver_wrapped():
    with pytest.raises(ConfigError, match="node.solver"):
        parse_config(base_doc(node={
            "hidden": [8], "activation": "tanh", "epochs": 1,
            "solver": {"method": "leapfrog"},
        }))


def test_node_max_steps_bounded_at_load():
    # a step budget past MAX_STEPS is refused before any schedule is
    # counted or built: the step below would need 10^13 substeps
    with pytest.raises(ConfigError, match=r"'node\.solver\.max_steps' must be "
                                          rf"in \[1, {MAX_STEPS}\], got {10**17}"):
        parse_config(base_doc(node={
            "hidden": [8], "activation": "tanh", "epochs": 1,
            "solver": {"method": "rk4", "step": 1e-13, "max_steps": 10**17},
        }))


@pytest.mark.parametrize("block, key, value", [
    ("solver", "method", "leapfrog"),
    ("solver", "step", 0.0),
    ("solver", "rtol", 0.0),
    ("solver", "atol", 0.0),
    ("solver", "max_steps", 0),
    ("schedule", "kind", "cosine"),
    ("schedule", "decay_steps", 0),
    ("schedule", "decay_rate", 1.5),
    (None, "epochs", -1),
    (None, "learning_rate", -1.0),
    (None, "momentum", 1.0),
    (None, "grad_mode", "forward"),
])
def test_node_domain_errors_name_their_dotted_key(block, key, value):
    node = {"hidden": [8], "activation": "tanh", "epochs": 1}
    solver = {"method": "rk4", "step": 0.1}
    if key in ("rtol", "atol"):
        solver = {"method": "dopri5"}
    schedule = {"decay_steps": 10, "decay_rate": 0.5}
    sub = {"solver": solver, "schedule": schedule}.get(block, node)
    sub[key] = value
    if block is not None:
        node[block] = sub
    where = f"node.{block}.{key}" if block else f"node.{key}"
    with pytest.raises(ConfigError) as refused:
        parse_config(base_doc(node=node))
    assert str(refused.value).startswith(f"'{where}' ")


def test_node_grad_mode_passthrough():
    cfg = parse_config(base_doc(node={
        "hidden": [8], "activation": "tanh", "epochs": 1,
        "grad_mode": "adjoint",
    }))
    assert cfg.node.train.grad_mode == "adjoint"


@pytest.mark.parametrize("solver,key", [
    ({"method": "dopri5", "step": 0.5}, "step"),
    ({"method": "rk4", "step": 0.1, "rtol": 1e-4}, "rtol"),
    ({"method": "euler", "step": 0.1, "atol": 1e-6}, "atol"),
    ({"method": "midpoint", "step": 0.1, "rtol": 1e-4, "atol": 1e-6}, "rtol"),
])
def test_node_solver_options_the_method_never_reads_rejected(solver, key):
    with pytest.raises(ConfigError,
                       match=rf"^'node\.solver\.{key}' is not read by method "
                             f"'{solver['method']}'"):
        parse_config(base_doc(node={
            "hidden": [8], "activation": "tanh", "epochs": 1,
            "solver": solver,
        }))


def test_node_solver_options_each_method_reads_load():
    for solver in ({"method": "dopri5", "rtol": 1e-4, "atol": 1e-6,
                    "max_steps": 50},
                   {"method": "rk4", "step": 0.1, "max_steps": 50}):
        cfg = parse_config(base_doc(node={
            "hidden": [8], "activation": "tanh", "epochs": 1,
            "solver": solver,
        }))
        assert cfg.node.solver.max_steps == 50


def test_node_adjoint_with_dopri5_loads():
    # a dopri5 gradient recomputes each accepted step in either mode
    for mode in ("backprop_through_solver", "adjoint"):
        cfg = parse_config(base_doc(node={
            "hidden": [8], "activation": "tanh", "epochs": 1,
            "grad_mode": mode, "solver": {"method": "dopri5"},
        }))
        assert cfg.node.train.grad_mode == mode
        assert cfg.node.solver.method == "dopri5"


# dmd / predict ---------------------------------------------------------


def test_dmd_rank_validation():
    with pytest.raises(ConfigError, match="dmd.rank"):
        parse_config(base_doc(dmd={"rank": 0}))


def test_predict_block():
    cfg = parse_config(base_doc(predict={
        "t_start": 0.5, "t_end": 1.0, "dt": 0.005,
    }))
    assert np.array_equal(cfg.predict, time_grid(0.5, 1.0, 0.005))
    assert cfg.predict.size == 101
    assert parse_config(base_doc()).predict is None


@pytest.mark.parametrize("block", ["input", "predict"])
@pytest.mark.parametrize("grid,message", [
    ({"t_start": 0.0, "t_end": 1.0, "dt": 0.0}, "'{}.dt' must be positive"),
    ({"t_start": 1.0, "t_end": 1.0, "dt": 0.1}, "'{}.t_end' must exceed"),
    ({"t_start": 1.0, "t_end": 0.5, "dt": 0.1}, "'{}.t_end' must exceed"),
    # one-point grids: dt beyond the span, and the span of an input run
    ({"t_start": 0.0, "t_end": 1.0, "dt": 2.0}, "'{}.dt' must not exceed"),
    ({"t_start": 0.0, "t_end": 0.005, "dt": 0.01}, "'{}.dt' must not exceed"),
], ids=["zero-dt", "empty-span", "reversed-span", "one-point",
        "one-point-short-span"])
def test_predict_validation(block, grid, message):
    doc = base_doc(predict={"t_start": 0.0, "t_end": 1.0, "dt": 0.1})
    doc[block].update(grid)
    match = "^" + re.escape(message.format(block))
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)


@pytest.mark.parametrize("block", ["input", "predict"])
def test_grid_size_limit_names_dt(block):
    def doc(t_end, dt, t_start=0.0):
        d = base_doc(predict={"t_start": 0.0, "t_end": 1.0, "dt": 0.1})
        d[block].update(t_start=t_start, t_end=t_end, dt=dt)
        return d

    # a grid of exactly MAX_GRID_TIMES times is the largest accepted
    parse_config(doc(float(MAX_GRID_TIMES - 1), 1.0))
    for args in [(float(MAX_GRID_TIMES), 1.0),  # one time too many
                 (1e300, 1e-300),  # the count overflows to inf
                 (1e8 + 1e-6, 1e-7, 1e8)]:  # steps within the rounding at 1e8
        with pytest.raises(ConfigError, match=f"'{block}.dt' is too fine"):
            parse_config(doc(*args))


@pytest.mark.parametrize("kind", ["traveling_wave", "linear_system"])
def test_field_size_limit_names_grid_points(kind):
    def doc(n, m):
        d = base_doc()
        d["input"].update(kind=kind, grid_points=n, t_end=m - 1.0, dt=1.0)
        return d

    # the largest field accepted takes exactly MAX_FIELD_BYTES
    if kind == "traveling_wave":
        n, m = MAX_FIELD_BYTES // 64, 8
    else:  # 8 N M + 8 N^2 with N = 2^14, M = 2^14
        n = m = 1 << 14
    assert 8 * n * m + (8 * n * n if kind == "linear_system" else 0) == (
        MAX_FIELD_BYTES)
    parse_config(doc(n, m))
    with pytest.raises(ConfigError, match=f"'input.grid_points' is {n + 1}"):
        parse_config(doc(n + 1, m))


@pytest.mark.parametrize("component,message", [
    ("é" * 32768, "is 65536 bytes in UTF-8"),
    ("\ud800", "is not UTF-8 text"),  # a lone surrogate JSON can spell
], ids=["u16", "surrogate"])
def test_component_label_snp1_cannot_store_names_its_key(component, message):
    # SNP1 stores the label with a u16 byte count: 65535 bytes still fit
    doc = base_doc()
    doc["input"]["component"] = "é" * 32767 + "a"
    parse_config(doc)
    doc["input"]["component"] = component
    with pytest.raises(ConfigError, match=f"^'input.component' {message}"):
        parse_config(doc)


# files ----------------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_doc(seed=3)))
    cfg = load_config(path)
    assert cfg.seed == 3
    assert cfg.dmd.rank == 2


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


@pytest.mark.parametrize("block,key,literal", [
    ("input", "t_end", "Infinity"),
    ("input", "wave_speed", "NaN"),
    pytest.param("input", "dt", "1" + "0" * 400,  # beyond the float range
                 id="input-dt-huge-integer"),
    ("rbf", "shape_factor", "NaN"),
    ("pod", "tolerance", "1e999"),  # json reads an overflowing literal as inf
    ("predict", "t_start", "-Infinity"),
    ("predict", "t_end", "Infinity"),
    ("node", "learning_rate", "NaN"),
])
def test_non_finite_numbers_rejected(tmp_path, block, key, literal):
    doc = base_doc(
        pod={"tolerance": 1e-6}, rbf={"shape_factor": 0.05},
        node={"hidden": [4], "activation": "tanh", "epochs": 1},
        predict={"t_start": 0.0, "t_end": 1.0, "dt": 0.1},
    )
    doc[block][key] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    with pytest.raises(ConfigError,
                       match=f"'{block}.{key}' must be a finite number"):
        load_config(path)
