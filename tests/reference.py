"""Plain reference evaluations the optimized code is tested against: the
dynamics net layer by layer from its flat parameters, and the RBF field
with one fresh array per operation."""

import numpy as np

from nirom.errors import NumericalError
from nirom.node import kernels
from nirom.node.network import DynamicsNet, kernel_args, layer_views
from nirom.rbf import RbfModel


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
