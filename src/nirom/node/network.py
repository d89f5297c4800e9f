"""Network container, initialization, presets, scaling maps, and the NET1
container format."""

from dataclasses import dataclass, field, replace

import numpy as np

from .. import containers as io
from ..errors import NumericalError, ScalingError
from ..pod import LatentTrajectory
from . import kernels

NET_MAGIC = b"NET1"

ACTIVATIONS = {"linear": 0, "relu": 1, "elu": 2, "tanh": 3}
ACTIVATION_NAMES = {v: k for k, v in ACTIVATIONS.items()}


@dataclass(frozen=True)
class ScaleMap:
    """Per-component affine map sending [lo_i, hi_i] onto [-1, 1]."""

    mid: np.ndarray
    half: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mid", np.asarray(self.mid, dtype=np.float64))
        object.__setattr__(self, "half", np.asarray(self.half, dtype=np.float64))
        if self.mid.shape != self.half.shape or self.mid.ndim != 1:
            raise ValueError("mid and half must be vectors of equal length")
        if np.any(self.half <= 0):
            raise ScalingError("scaling map must have nonzero component ranges")

    @property
    def dim(self) -> int:
        return self.mid.size


@dataclass(frozen=True)
class TimeMap:
    """Affine map from the physical window [t_lo, t_hi] onto [0, 1]."""

    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not self.t_hi > self.t_lo:
            raise ValueError("time window must have positive length")

    def to_unit(self, t: np.ndarray) -> np.ndarray:
        return (np.asarray(t, dtype=np.float64) - self.t_lo) / (self.t_hi - self.t_lo)

    def from_unit(self, tau: np.ndarray) -> np.ndarray:
        return self.t_lo + np.asarray(tau, dtype=np.float64) * (self.t_hi - self.t_lo)


def scale_fit(traj: LatentTrajectory) -> ScaleMap:
    lo = traj.coeffs.min(axis=1)
    hi = traj.coeffs.max(axis=1)
    if np.any(hi - lo == 0):
        i = int(np.argmax(hi - lo == 0))
        raise ScalingError(f"component {i} has zero range and cannot be scaled")
    return ScaleMap((hi + lo) / 2.0, (hi - lo) / 2.0)


@dataclass(frozen=True)
class DynamicsNet:
    """MLP right-hand side for the latent ODE.

    sizes runs input -> hidden... -> output; the input is the state (plus a
    leading time feature when time_input) and the output is the state
    derivative, so sizes[-1] == sizes[0] - time_input. Parameters are one
    flat vector packed W0, b0, W1, b1, ... row-major.
    """

    sizes: tuple
    activations: tuple
    params: np.ndarray
    augment_dim: int = 0
    time_input: bool = True
    scale: ScaleMap | None = None
    time_map: TimeMap | None = None
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "activations", tuple(self.activations))
        object.__setattr__(self, "params", np.asarray(self.params, dtype=np.float64))
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise ValueError("need at least input and output layer sizes >= 1")
        if len(self.activations) != len(self.sizes) - 1:
            raise ValueError(
                f"expected {len(self.sizes) - 1} activations, got "
                f"{len(self.activations)}"
            )
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        if self.sizes[-1] != self.sizes[0] - (1 if self.time_input else 0):
            raise ValueError(
                "output size must equal the state part of the input "
                f"(sizes {self.sizes}, time_input={self.time_input})"
            )
        if not 0 <= self.augment_dim < self.sizes[-1]:
            raise ValueError("augment_dim must be smaller than the state size")
        if self.params.shape != (param_count(self.sizes),):
            raise ValueError(
                f"parameter vector must have length {param_count(self.sizes)}"
            )
        if self.scale is not None and self.scale.dim != self.latent_dim:
            raise ValueError("scaling map must cover the latent components")

    @property
    def state_dim(self) -> int:
        return self.sizes[-1]

    @property
    def latent_dim(self) -> int:
        return self.sizes[-1] - self.augment_dim

    def with_params(self, params: np.ndarray) -> "DynamicsNet":
        return replace(self, params=params)


def param_count(sizes) -> int:
    return sum(sizes[l + 1] * (sizes[l] + 1) for l in range(len(sizes) - 1))


def pack_meta(net: DynamicsNet):
    """Flat-array views of the architecture for the kernels."""
    sizes = np.asarray(net.sizes, dtype=np.int64)
    acts = np.asarray([ACTIVATIONS[a] for a in net.activations], dtype=np.int64)
    w_off = np.empty(len(net.sizes) - 1, dtype=np.int64)
    b_off = np.empty(len(net.sizes) - 1, dtype=np.int64)
    pos = 0
    for l in range(len(net.sizes) - 1):
        w_off[l] = pos
        pos += net.sizes[l + 1] * net.sizes[l]
        b_off[l] = pos
        pos += net.sizes[l + 1]
    c_off = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    mid = np.zeros(net.state_dim)
    half = np.ones(net.state_dim)
    if net.scale is not None:
        mid[: net.latent_dim] = net.scale.mid
        half[: net.latent_dim] = net.scale.half
    tin = np.int64(1 if net.time_input else 0)
    return sizes, acts, w_off, b_off, c_off, mid, half, tin


def net_init(
    sizes,
    activations,
    augment_dim: int = 0,
    seed: int = 0,
    time_input: bool = True,
    scale: ScaleMap | None = None,
    name: str = "",
) -> DynamicsNet:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases,
    drawn layer by layer from a single seeded generator."""
    rng = np.random.default_rng(seed)
    chunks = []
    for l in range(len(sizes) - 1):
        fan_in, fan_out = sizes[l], sizes[l + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_out * fan_in))
        chunks.append(np.zeros(fan_out))
    return DynamicsNet(
        tuple(sizes),
        tuple(activations),
        np.concatenate(chunks),
        augment_dim=augment_dim,
        time_input=time_input,
        scale=scale,
        time_map=None,
        seed=seed,
        name=name,
    )


def build_net(
    latent_dim: int,
    hidden: list,
    activation: str,
    augment_dim: int = 0,
    seed: int = 0,
    time_input: bool = True,
    scale: ScaleMap | None = None,
    name: str = "",
) -> DynamicsNet:
    """Convenience constructor: hidden widths + one activation, linear output."""
    state = latent_dim + augment_dim
    sizes = [state + (1 if time_input else 0), *hidden, state]
    activations = [activation] * len(hidden) + ["linear"]
    return net_init(
        sizes, activations, augment_dim=augment_dim, seed=seed,
        time_input=time_input, scale=scale, name=name,
    )


def net_eval(net: DynamicsNet, t: float, z: np.ndarray) -> np.ndarray:
    """Single right-hand side evaluation net(t, z)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (net.state_dim,):
        raise ValueError(f"state must have shape ({net.state_dim},), got {z.shape}")
    if not (np.isfinite(t) and np.all(np.isfinite(z))):
        raise NumericalError("non-finite input to the dynamics net")
    sizes, acts, w_off, b_off, c_off, mid, half, tin = pack_meta(net)
    cache = np.empty(int(c_off[-1]))
    return kernels.nn_forward(
        net.params, sizes, acts, w_off, b_off, c_off, mid, half, tin,
        float(t), z, cache,
    )


# ---------------------------------------------------------------------------
# Table of tuned configurations: (hidden layers, width, activation,
# staircase decay steps, decay rate, input scaling, state augmentation).
# Training for every entry: 50000 epochs, rk4, RMSProp at 1e-3 with
# momentum 0.9.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodePreset:
    n_hidden: int
    width: int
    activation: str
    decay_steps: int
    decay_rate: float
    scaling: bool
    augmented: bool
    epochs: int = 50000
    solver: str = "rk4"
    learning_rate: float = 1e-3
    momentum: float = 0.9


PRESETS = {
    "NODE1": NodePreset(1, 256, "elu", 10000, 0.3, False, False),
    "NODE2": NodePreset(1, 256, "tanh", 5000, 0.7, True, False),
    "NODE3": NodePreset(1, 512, "elu", 5000, 0.5, False, False),
    "NODE4": NodePreset(1, 256, "tanh", 10000, 0.25, True, True),
    "NODE5": NodePreset(4, 64, "tanh", 5000, 0.5, True, False),
    "NODE6": NodePreset(1, 256, "elu", 10000, 0.1, False, False),
    "NODE7": NodePreset(2, 128, "elu", 5000, 0.5, False, False),
    "NODE8": NodePreset(1, 512, "tanh", 5000, 0.5, True, True),
}


def preset_net(
    name: str,
    latent_dim: int,
    seed: int = 0,
    scale: ScaleMap | None = None,
    time_input: bool = True,
) -> DynamicsNet:
    """Instantiate a preset architecture for a given latent dimension.

    Presets flagged for scaling expect a fitted ScaleMap; augmentation adds
    one extra state dimension. The caller fits the map on the training
    trajectory.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected NODE1..NODE8")
    p = PRESETS[name]
    if p.scaling and scale is None:
        raise ValueError(f"preset {name} requires a fitted scaling map")
    if not p.scaling:
        scale = None
    return build_net(
        latent_dim,
        [p.width] * p.n_hidden,
        p.activation,
        augment_dim=1 if p.augmented else 0,
        seed=seed,
        time_input=time_input,
        scale=scale,
        name=name,
    )


# ---------------------------------------------------------------------------
# NET1 container: magic, u32 version=1, u32 layer count, u32 sizes,
# u16 activation ids, u32 augment_dim, u16 time_input, u16 has_scale
# [+ mid, half vectors], u16 has_time_map [+ t_lo, t_hi], u64 seed,
# u16 name label, u64 parameter count + f64 parameter vector.
# ---------------------------------------------------------------------------


def save_net(net: DynamicsNet, path) -> None:
    with io.writing(path, NET_MAGIC) as f:
        io.write_u32(f, len(net.sizes))
        for s in net.sizes:
            io.write_u32(f, s)
        for a in net.activations:
            io.write_u16(f, ACTIVATIONS[a])
        io.write_u32(f, net.augment_dim)
        io.write_u16(f, 1 if net.time_input else 0)
        io.write_u16(f, 0 if net.scale is None else 1)
        if net.scale is not None:
            io.write_f64_vector(f, net.scale.mid)
            io.write_f64_vector(f, net.scale.half)
        io.write_u16(f, 0 if net.time_map is None else 1)
        if net.time_map is not None:
            io.write_f64(f, net.time_map.t_lo)
            io.write_f64(f, net.time_map.t_hi)
        io.write_u64(f, net.seed)
        io.write_label(f, net.name)
        io.write_u64(f, net.params.size)
        io.write_f64_vector(f, net.params)


def load_net(path) -> DynamicsNet:
    with io.reading(path, NET_MAGIC) as f:
        n_sizes = io.read_u32(f)
        if n_sizes < 2:
            raise io.FormatError(f"need at least two layer sizes, got {n_sizes}")
        sizes = tuple(io.read_u32(f) for _ in range(n_sizes))
        act_ids = [io.read_u16(f) for _ in range(n_sizes - 1)]
        for a in act_ids:
            if a not in ACTIVATION_NAMES:
                raise io.FormatError(f"unknown activation id {a}")
        activations = tuple(ACTIVATION_NAMES[a] for a in act_ids)
        augment_dim = io.read_u32(f)
        time_input = io.read_u16(f) == 1
        scale = None
        if io.read_u16(f) == 1:
            dim = sizes[-1] - augment_dim
            mid = io.read_f64_vector(f, dim)
            half = io.read_f64_vector(f, dim)
            scale = ScaleMap(mid, half)
        time_map = None
        if io.read_u16(f) == 1:
            time_map = TimeMap(io.read_f64(f), io.read_f64(f))
        seed = io.read_u64(f)
        name = io.read_label(f)
        n_params = io.read_u64(f)
        params = io.read_f64_vector(f, n_params)
        return DynamicsNet(
            sizes, activations, params,
            augment_dim=augment_dim, time_input=time_input,
            scale=scale, time_map=time_map, seed=seed, name=name,
        )
