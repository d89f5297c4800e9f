"""Plain reference evaluations the optimized code is tested against: the
dynamics net layer by layer from its flat parameters, the RBF field with
one fresh array per operation, each synthetic field built whole from its
definition, and numpy's own row-major matrix product."""

import numpy as np

from nirom.errors import NumericalError
from nirom.node import kernels
from nirom.node.network import DynamicsNet, kernel_args, layer_views
from nirom.rbf import RbfModel
from nirom.snapshot import SyntheticSpec, orthonormal_lift

#: the tuned node presets, stated apart from nirom.config.PRESETS: name ->
#: (hidden layers, width, activation, staircase decay steps, decay rate,
#: input scaling, state augmentation); every preset trains for 50000 epochs
#: of RMSProp at learning rate 1e-3 with momentum 0.9
PRESET_ROWS = {
    "NODE1": (1, 256, "elu", 10000, 0.3, False, False),
    "NODE2": (1, 256, "tanh", 5000, 0.7, True, False),
    "NODE3": (1, 512, "elu", 5000, 0.5, False, False),
    "NODE4": (1, 256, "tanh", 10000, 0.25, True, True),
    "NODE5": (4, 64, "tanh", 5000, 0.5, True, False),
    "NODE6": (1, 256, "elu", 10000, 0.1, False, False),
    "NODE7": (2, 128, "elu", 5000, 0.5, False, False),
    "NODE8": (1, 512, "tanh", 5000, 0.5, True, True),
}


def net_eval(net: DynamicsNet, t: float, z: np.ndarray) -> np.ndarray:
    """Single right-hand side evaluation net(t, z), layer by layer from the
    flat parameters (W_l x + b_l) without the kernels' buffers."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (net.state_dim,):
        raise ValueError(f"state must have shape ({net.state_dim},), got {z.shape}")
    if not (np.isfinite(t) and np.all(np.isfinite(z))):
        raise NumericalError("non-finite input to the dynamics net")
    _, acts, mid, half, tin = kernel_args(net, net.params)
    x = z if mid is None else (z - mid) / half
    if tin:
        x = np.concatenate([[float(t)], x])
    for (w, b), kind in zip(layer_views(net.params, net.sizes), acts):
        x = w @ x + b
        kernels._act(x, kind)
    return x if half is None else half * x


def rbf_field(centers, coeffs, c, z):
    """sum_k coeffs[:, k] * exp(-c * ||z - centers[:, k]||)."""
    d = centers - z.reshape(z.shape[0], 1)
    w = np.exp(-c * np.sqrt(np.sum(d * d, axis=0)))
    return np.dot(coeffs, w)


def eval_dynamics(model: RbfModel, z: np.ndarray) -> np.ndarray:
    """Interpolated latent time derivative at state z."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.dim,):
        raise ValueError(f"state must have shape ({model.dim},), got {z.shape}")
    return rbf_field(model.centers, model.coefficients,
                     float(model.shape_factor), z)


def synthetic_field(spec: SyntheticSpec) -> np.ndarray:
    """The spec's field from the definition of its kind (SyntheticSpec),
    built whole: linear_system one map application per column."""
    n, times = spec.grid_points, spec.times
    if spec.kind == "traveling_wave":
        x = 2.0 * np.pi * np.arange(n) / n
        return np.sin(x[:, None] - spec.wave_speed * times[None, :])
    if spec.kind == "harmonic_latent":
        wt = spec.omega * times
        return orthonormal_lift(n, 2, spec.seed) @ np.vstack(
            [np.cos(wt), np.sin(wt)])
    rng = np.random.default_rng(spec.seed)
    a = rng.standard_normal((n, n))
    a /= np.max(np.abs(np.linalg.eigvals(a)))
    v = rng.standard_normal(n)
    field = np.empty((n, times.size), order="F")
    field[:, 0] = v / np.linalg.norm(v)
    for k in range(1, times.size):
        field[:, k] = a @ field[:, k - 1]
    return field


def row_major_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as numpy writes it: row-major, whatever a's layout
    (snapshot.matmul_like writes a's layout)."""
    return a @ b
