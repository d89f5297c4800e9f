"""Config parsing: closed key sets, dotted error paths, block validation."""

import dataclasses
import json

import pytest

from nirom.config import load_config, parse_config
from nirom.errors import ConfigError
from nirom.node import PRESETS
from nirom.snapshot import MAX_GRID_TIMES


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
    p = PRESETS[name]
    return {
        "hidden": [p.width] * p.n_hidden, "activation": p.activation,
        "scaling": p.scaling, "augmented": p.augmented,
        "learning_rate": p.learning_rate, "momentum": p.momentum,
        "schedule": {"kind": "staircase", "decay_steps": p.decay_steps,
                     "decay_rate": p.decay_rate},
        "epochs": 50000,
    }


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_node_preset_is_its_explicit_block(name):
    extra = {"time_input": False, "grad_mode": "adjoint",
             "solver": {"method": "midpoint", "step": 0.01}}
    for accompany in ({}, extra):
        preset = parse_config(base_doc(node={"preset": name, **accompany}))
        explicit = parse_config(base_doc(
            node={**_spelled_out(name), **accompany}))
        assert preset.node.preset == name
        assert dataclasses.replace(preset.node, preset=None) == explicit.node


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
    assert sched.base_lr == 0.01
    assert sched.decay_steps == 10


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


def test_node_grad_mode_passthrough():
    cfg = parse_config(base_doc(node={
        "hidden": [8], "activation": "tanh", "epochs": 1,
        "grad_mode": "adjoint",
    }))
    assert cfg.node.train.grad_mode == "adjoint"


# dmd / predict ---------------------------------------------------------


def test_dmd_rank_validation():
    with pytest.raises(ConfigError, match="dmd.rank"):
        parse_config(base_doc(dmd={"rank": 0}))


def test_predict_block():
    cfg = parse_config(base_doc(predict={
        "t_start": 0.0, "t_end": 1.0, "dt": 0.005,
    }))
    assert cfg.predict.dt == 0.005


def test_predict_validation():
    with pytest.raises(ConfigError, match="predict.dt"):
        parse_config(base_doc(predict={"t_start": 0, "t_end": 1, "dt": 0}))
    with pytest.raises(ConfigError, match="predict.t_end"):
        parse_config(base_doc(predict={"t_start": 1, "t_end": 1, "dt": 0.1}))
    with pytest.raises(ConfigError, match="predict.dt"):  # one-point grid
        parse_config(base_doc(predict={"t_start": 0, "t_end": 1, "dt": 2}))


@pytest.mark.parametrize("block", ["input", "predict"])
def test_grid_size_limit_names_dt(block):
    def doc(t_end, dt):
        d = base_doc(predict={"t_start": 0.0, "t_end": 1.0, "dt": 0.1})
        d[block].update(t_end=t_end, dt=dt)
        return d

    # a grid of exactly MAX_GRID_TIMES times is the largest accepted
    parse_config(doc(float(MAX_GRID_TIMES - 1), 1.0))
    for t_end, dt in [(float(MAX_GRID_TIMES), 1.0),  # one time too many
                      (1e300, 1e-300)]:  # the count overflows to inf
        with pytest.raises(ConfigError, match=f"'{block}.dt' is too fine"):
            parse_config(doc(t_end, dt))


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
