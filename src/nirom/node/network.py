"""Network container, initialization, scaling maps, and the NET1 container
format."""

from dataclasses import dataclass, replace

import numpy as np

from .. import containers as io
from ..errors import NumericalError
from ..pod import LatentTrajectory
from . import kernels

NET_MAGIC = b"NET1"

ACTIVATIONS = {"linear": kernels.ACT_LINEAR, "relu": kernels.ACT_RELU,
               "elu": kernels.ACT_ELU, "tanh": kernels.ACT_TANH}
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
        if not np.all(np.isfinite(self.mid) & np.isfinite(self.half)
                      & (self.half > 0)):
            raise NumericalError(
                "scaling map must have finite centres and finite nonzero "
                "component ranges"
            )

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

    def from_unit(self, tau):
        return self.t_lo + tau * (self.t_hi - self.t_lo)


def scale_fit(traj: LatentTrajectory) -> ScaleMap:
    lo = traj.coeffs.min(axis=1)
    hi = traj.coeffs.max(axis=1)
    if np.any(hi - lo == 0):
        i = int(np.argmax(hi - lo == 0))
        raise NumericalError(f"component {i} has zero range and cannot be scaled")
    return ScaleMap((hi + lo) / 2.0, (hi - lo) / 2.0)


@dataclass(frozen=True)
class DynamicsNet:
    """MLP right-hand side for the latent ODE.

    sizes runs input -> hidden... -> output; the input is the state (plus a
    leading time feature when time_input) and the output is the state
    derivative, so sizes[-1] == sizes[0] - time_input. The output layer is
    linear. Parameters are one flat vector packed W0, b0, W1, b1, ...
    row-major.
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
        # the kernels take no derivative of the net output
        if self.activations[-1] != "linear":
            raise ValueError(
                f"the output layer must be linear, got {self.activations[-1]!r}")
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


def layer_views(vec: np.ndarray, sizes) -> tuple:
    """Per-layer (W_l, b_l) views into a flat vector packed like the
    parameters of a net with these layer sizes; writing through a view
    writes the vector."""
    views = []
    pos = 0
    for l in range(len(sizes) - 1):
        rows, cols = sizes[l + 1], sizes[l]
        w = vec[pos: pos + rows * cols].reshape(rows, cols)
        pos += rows * cols
        views.append((w, vec[pos: pos + rows]))
        pos += rows
    return tuple(views)


def fold_biases(vec: np.ndarray, sizes, out=None) -> tuple:
    """Per-layer augmented weights [W_l | b_l] of a flat vector packed like
    the parameters of a net with these layer sizes, written into `out`
    (arrays of those shapes) or into new arrays."""
    views = layer_views(vec, sizes)
    if out is None:
        out = tuple(np.empty((w.shape[0], w.shape[1] + 1)) for w, _ in views)
    for (w, b), wa in zip(views, out):
        wa[:, :-1] = w
        wa[:, -1] = b
    return out


def unfold_biases(aug, vec: np.ndarray, sizes) -> np.ndarray:
    """Write per-layer augmented arrays [W_l | b_l] into the flat vector
    `vec`, packed like the parameters; returns vec."""
    for (w, b), wa in zip(layer_views(vec, sizes), aug):
        w[...] = wa[:, :-1]
        b[...] = wa[:, -1]
    return vec


def kernel_args(net: DynamicsNet, params: np.ndarray) -> tuple:
    """The leading net arguments of the kernels (see kernels): per-layer
    augmented weights filled from `params` (refill them with fold_biases),
    activation ids, the scale vectors padded over the augmented components
    (None, None without a map), and the time-input flag."""
    acts = tuple(ACTIVATIONS[a] for a in net.activations)
    mid = half = None
    if net.scale is not None:
        mid = np.zeros(net.state_dim)
        half = np.ones(net.state_dim)
        mid[: net.latent_dim] = net.scale.mid
        half[: net.latent_dim] = net.scale.half
    return fold_biases(params, net.sizes), acts, mid, half, net.time_input


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
    """A net of the given hidden widths, each with one activation, and the
    linear output layer that every DynamicsNet ends in: Glorot-uniform
    weights (limit sqrt(6/(fan_in+fan_out))), zero biases, drawn layer by
    layer from a single seeded generator. A net whose parameters would take
    more than kernels.MAX_NET_BYTES is refused before the first draw."""
    state = latent_dim + augment_dim
    sizes = (state + (1 if time_input else 0), *hidden, state)
    need = 8 * param_count(sizes)
    if need > kernels.MAX_NET_BYTES:
        raise ValueError(
            f"a net of layer sizes {sizes} would take "
            f"{need / 2**30:.3g} GiB of parameters, above the limit of "
            f"{kernels.MAX_NET_BYTES / 2**30:g} GiB")
    rng = np.random.default_rng(seed)
    chunks = []
    for l in range(len(sizes) - 1):
        fan_in, fan_out = sizes[l], sizes[l + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_out * fan_in))
        chunks.append(np.zeros(fan_out))
    return DynamicsNet(
        sizes,
        (activation,) * len(hidden) + ("linear",),
        np.concatenate(chunks),
        augment_dim=augment_dim,
        time_input=time_input,
        scale=scale,
        time_map=None,
        seed=seed,
        name=name,
    )


# ---------------------------------------------------------------------------
# NET1 container: magic, u32 version=1, "I" layer count L, "{L}I" sizes,
# "{L-1}H" activation ids, "IHH" augment_dim, time_input, has_scale [+ mid,
# half vectors], "H" has_time_map [+ "dd" t_lo, t_hi], "Q" seed, name
# label, "Q" parameter count + f64 parameter vector.
# ---------------------------------------------------------------------------


def save_net(net: DynamicsNet, path) -> None:
    with io.writing(path, NET_MAGIC) as f:
        layers = len(net.sizes)
        io.write_fields(f, "I", layers)
        io.write_fields(f, f"{layers}I", *net.sizes)
        io.write_fields(f, f"{layers - 1}H",
                        *(ACTIVATIONS[a] for a in net.activations))
        io.write_fields(f, "IHH", net.augment_dim, 1 if net.time_input else 0,
                        0 if net.scale is None else 1)
        if net.scale is not None:
            io.write_array(f, net.scale.mid, "<f8")
            io.write_array(f, net.scale.half, "<f8")
        io.write_fields(f, "H", 0 if net.time_map is None else 1)
        if net.time_map is not None:
            io.write_fields(f, "dd", net.time_map.t_lo, net.time_map.t_hi)
        io.write_fields(f, "Q", net.seed)
        io.write_label(f, net.name)
        io.write_fields(f, "Q", net.params.size)
        io.write_array(f, net.params, "<f8")


def load_net(path) -> DynamicsNet:
    with io.reading(path, NET_MAGIC) as f:
        (layers,) = io.read_fields(f, "I")
        if layers < 2:
            raise io.FormatError(f"need at least two layer sizes, got {layers}")
        sizes = io.read_fields(f, f"{layers}I")
        act_ids = io.read_fields(f, f"{layers - 1}H")
        for a in act_ids:
            if a not in ACTIVATION_NAMES:
                raise io.FormatError(f"unknown activation id {a}")
        activations = tuple(ACTIVATION_NAMES[a] for a in act_ids)
        augment_dim, time_input, has_scale = io.read_fields(f, "IHH")
        scale = None
        if has_scale == 1:
            dim = sizes[-1] - augment_dim
            mid = io.read_array(f, (dim,), "<f8")
            half = io.read_array(f, (dim,), "<f8")
            scale = ScaleMap(mid, half)
        time_map = None
        (has_time_map,) = io.read_fields(f, "H")
        if has_time_map == 1:
            time_map = TimeMap(*io.read_fields(f, "dd"))
        (seed,) = io.read_fields(f, "Q")
        name = io.read_label(f)
        (n_params,) = io.read_fields(f, "Q")
        params = io.read_array(f, (n_params,), "<f8")
        return DynamicsNet(
            sizes, activations, params,
            augment_dim=augment_dim, time_input=time_input == 1,
            scale=scale, time_map=time_map, seed=seed, name=name,
        )
