"""Network container, scaling maps, presets, and the NET1 round trip.

The 1x2 tanh evaluation constants are frozen from a scalar forward pass done
by hand: x=[0.4, 0.8], W0 rows (0.3,-0.2) and (0.1,0.4), b0=(0.05,-0.1),
W1=(0.7,-0.5), b1=0.2; the scaled variant maps z through (z-0.5)/2 and
multiplies the output by 2.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nirom.config import PRESETS
from nirom.errors import FormatError, NumericalError
from nirom.node import (
    ACTIVATIONS,
    DynamicsNet,
    ScaleMap,
    TimeMap,
    build_net,
    load_net,
    save_net,
    scale_fit,
)
from nirom.node.network import layer_views, param_count
from nirom.pod import LatentTrajectory
from reference import PRESET_ROWS, net_eval

HAND_TANH_PLAIN = 0.07985200036280397
HAND_TANH_SCALED = 0.5947294270298413


def hand_tanh_net(scale: ScaleMap | None = None) -> DynamicsNet:
    params = np.array([0.3, -0.2, 0.1, 0.4, 0.05, -0.1, 0.7, -0.5, 0.2])
    return DynamicsNet((2, 2, 1), ("tanh", "linear"), params, scale=scale)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_param_count():
    assert param_count([3, 8, 2]) == 8 * 3 + 8 + 2 * 8 + 2


def test_rejects_activation_count_mismatch():
    with pytest.raises(ValueError, match="activations"):
        DynamicsNet((2, 2, 1), ("tanh",), np.zeros(9))


def test_rejects_unknown_activation():
    with pytest.raises(ValueError, match="activation"):
        DynamicsNet((2, 2, 1), ("tanh", "softmax"), np.zeros(9))


def test_rejects_nonlinear_output_layer():
    with pytest.raises(ValueError, match="output layer must be linear"):
        DynamicsNet((2, 2, 1), ("tanh", "tanh"), np.zeros(9))


def test_rejects_output_size_mismatch():
    # with a time feature the output must be one smaller than the input
    with pytest.raises(ValueError, match="output"):
        DynamicsNet((2, 2, 2), ("tanh", "linear"), np.zeros(14))


def test_rejects_wrong_param_length():
    with pytest.raises(ValueError, match="length"):
        DynamicsNet((2, 2, 1), ("tanh", "linear"), np.zeros(10))


def test_rejects_oversized_augment_dim():
    # augmentation may not swallow the whole state
    with pytest.raises(ValueError, match="augment"):
        DynamicsNet((3, 2), ("linear",), np.zeros(8), augment_dim=2)


def test_autonomous_net_sizes():
    net = build_net(2, [8], "elu", time_input=False)
    assert net.sizes == (2, 8, 2)
    assert net.latent_dim == 2
    assert net.state_dim == 2


def test_augmented_net_dimensions():
    net = build_net(2, [8], "tanh", augment_dim=1)
    assert net.sizes == (4, 8, 3)
    assert net.state_dim == 3
    assert net.latent_dim == 2


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_biases_zero_weights_bounded():
    net = build_net(2, [8], "tanh", seed=5)
    layers = layer_views(net.params, net.sizes)
    for l, (fan_out, fan_in) in enumerate([(8, 3), (2, 8)]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w, b = layers[l]
        assert w.shape == (fan_out, fan_in) and b.shape == (fan_out,)
        assert np.all(np.abs(w) <= limit)
        assert np.any(w != 0.0)
        assert np.all(b == 0.0)


def test_init_deterministic_under_seed():
    a = build_net(2, [8], "elu", seed=42)
    b = build_net(2, [8], "elu", seed=42)
    assert a.params.tobytes() == b.params.tobytes()
    c = build_net(2, [8], "elu", seed=43)
    assert not np.array_equal(a.params, c.params)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_zero_weights_gives_zero():
    net = build_net(3, [8], "relu", seed=0)
    net = net.with_params(np.zeros_like(net.params))
    out = net_eval(net, 0.7, np.array([1.0, -2.0, 3.0]))
    assert np.all(out == 0.0)


def test_eval_single_linear_layer():
    # sizes (2, 2) without time: f(z) = W z + b
    w = np.array([[1.0, 2.0], [-3.0, 0.5]])
    b = np.array([0.25, -1.0])
    net = DynamicsNet(
        (2, 2), ("linear",), np.concatenate([w.ravel(), b]), time_input=False
    )
    z = np.array([2.0, -1.0])
    assert np.allclose(net_eval(net, 0.0, z), w @ z + b, rtol=0, atol=0)


def test_eval_hand_tanh_oracle():
    net = hand_tanh_net()
    out = net_eval(net, 0.4, np.array([0.8]))
    assert out[0] == pytest.approx(HAND_TANH_PLAIN, rel=1e-14)


def test_eval_hand_tanh_oracle_with_scaling():
    net = hand_tanh_net(scale=ScaleMap(np.array([0.5]), np.array([2.0])))
    out = net_eval(net, 0.4, np.array([0.8]))
    assert out[0] == pytest.approx(HAND_TANH_SCALED, rel=1e-14)


def test_eval_rejects_non_finite_input():
    net = build_net(2, [4], "tanh", seed=1)
    with pytest.raises(NumericalError):
        net_eval(net, 0.0, np.array([np.nan, 1.0]))
    with pytest.raises(NumericalError):
        net_eval(net, np.inf, np.array([1.0, 1.0]))


def test_eval_rejects_wrong_shape():
    net = build_net(2, [4], "tanh", seed=1)
    with pytest.raises(ValueError):
        net_eval(net, 0.0, np.array([1.0, 2.0, 3.0]))


def test_activation_ids_cover_all_names():
    assert set(ACTIVATIONS) == {"linear", "relu", "elu", "tanh"}


# ---------------------------------------------------------------------------
# scaling maps
# ---------------------------------------------------------------------------


def traj_of(rows) -> LatentTrajectory:
    coeffs = np.asarray(rows, dtype=float)
    return LatentTrajectory(coeffs, np.arange(coeffs.shape[1], dtype=float))


def test_scale_range_zero_two_is_shift():
    traj = traj_of([[0.0, 1.0, 2.0]])
    smap = scale_fit(traj)
    assert smap.mid[0] == 1.0 and smap.half[0] == 1.0


def test_scale_exact_unit_range_is_identity():
    traj = traj_of([[-1.0, 0.3, 1.0]])
    smap = scale_fit(traj)
    assert smap.mid[0] == 0.0 and smap.half[0] == 1.0


def test_scale_midpoint_of_three_seven_maps_to_zero():
    traj = traj_of([[3.0, 5.0, 7.0]])
    smap = scale_fit(traj)
    assert smap.mid[0] == 5.0 and smap.half[0] == 2.0


def test_scale_zero_range_raises():
    traj = traj_of([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    with pytest.raises(NumericalError, match="component 0"):
        scale_fit(traj)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
)
def test_scale_roundtrip_identity(m, cols, seed):
    # the fitted (mid, half) give back each component's range [min, max]
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(scale=10.0, size=(m, cols))
    coeffs[:, -1] = coeffs[:, 0] + 1.0  # guarantee nonzero range
    smap = scale_fit(traj_of(coeffs))
    assert np.all(smap.half > 0)
    assert np.allclose(smap.mid - smap.half, coeffs.min(axis=1), rtol=1e-12, atol=1e-12)
    assert np.allclose(smap.mid + smap.half, coeffs.max(axis=1), rtol=1e-12, atol=1e-12)


def test_time_map_roundtrip():
    tmap = TimeMap(2.0, 6.0)
    t = np.array([2.0, 4.0, 6.0])
    assert np.allclose(tmap.to_unit(t), [0.0, 0.5, 1.0], rtol=0, atol=0)


def test_time_map_rejects_empty_window():
    with pytest.raises(ValueError):
        TimeMap(1.0, 1.0)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PRESET_ROWS))
def test_preset_table(name):
    n_hidden, width, act, steps, rate, scaling, augmented = PRESET_ROWS[name]
    p = PRESETS[name]
    assert (p["hidden"], p["activation"]) == ([width] * n_hidden, act)
    assert p["schedule"] == {"kind": "staircase", "decay_steps": steps,
                             "decay_rate": rate}
    assert (p["scaling"], p["augmented"]) == (scaling, augmented)
    assert p["epochs"] == 50000
    assert p["learning_rate"] == 1e-3
    assert p["momentum"] == 0.9


# ---------------------------------------------------------------------------
# NET1 container
# ---------------------------------------------------------------------------


def test_net_roundtrip_bare(tmp_path):
    net = build_net(2, [8], "elu", seed=9, name="demo")
    path = tmp_path / "model.net"
    save_net(net, path)
    back = load_net(path)
    assert back.sizes == net.sizes
    assert back.activations == net.activations
    assert back.params.tobytes() == net.params.tobytes()
    assert back.augment_dim == 0
    assert back.time_input is True
    assert back.scale is None
    assert back.time_map is None
    assert back.seed == 9
    assert back.name == "demo"


def test_net_roundtrip_full(tmp_path):
    smap = ScaleMap(np.array([0.5, -0.25]), np.array([2.0, 0.75]))
    net = build_net(
        2, [4, 4], "tanh", augment_dim=1, seed=3, time_input=False, scale=smap
    )
    net = replace(net, time_map=TimeMap(1.5, 9.0))
    path = tmp_path / "model.net"
    save_net(net, path)
    back = load_net(path)
    assert back.params.tobytes() == net.params.tobytes()
    assert back.augment_dim == 1
    assert back.time_input is False
    assert np.array_equal(back.scale.mid, smap.mid)
    assert np.array_equal(back.scale.half, smap.half)
    assert back.time_map.t_lo == 1.5 and back.time_map.t_hi == 9.0


def test_net_roundtrip_preserves_eval(tmp_path):
    net = build_net(3, [16], "relu", seed=11)
    path = tmp_path / "model.net"
    save_net(net, path)
    back = load_net(path)
    z = np.array([0.3, -0.9, 1.7])
    assert np.array_equal(net_eval(net, 0.2, z), net_eval(back, 0.2, z))


def test_net_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.net"
    path.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(FormatError, match="magic"):
        load_net(path)


def test_net_load_rejects_truncation(tmp_path):
    net = build_net(2, [4], "tanh", seed=0)
    path = tmp_path / "model.net"
    save_net(net, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_net(path)


def test_net_load_rejects_trailing_bytes(tmp_path):
    net = build_net(2, [4], "tanh", seed=0)
    path = tmp_path / "model.net"
    save_net(net, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_net(path)
