"""The exact bytes of SNP1, POD1, RBF1, DMD1 and NET1: a reference writer
per format packs each field of the module's layout comment with
``struct.pack`` and ``tobytes``, and ``save_*`` must write the same bytes.
A round trip cannot see a layout change made in both save and load; this
test can."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from nirom import dmd, rbf
from nirom.node import ScaleMap, TimeMap, build_net, save_net
from nirom.pod import save_basis, thin_svd, truncate
from nirom.snapshot import SnapshotSet, center, save_snapshots

_RNG = np.random.default_rng(11)


def _frame(magic: bytes) -> bytes:
    return magic + struct.pack("<I", 1)


def _label(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<H", len(data)) + data


def _f64(a) -> bytes:
    """Column-major f64, little-endian."""
    return np.asarray(a, dtype="<f8").tobytes(order="F")


def _c128(a) -> bytes:
    """Interleaved (re, im) f64 pairs, column-major, little-endian."""
    return np.asarray(a, dtype="<c16").tobytes(order="F")


def snp1_bytes(s: SnapshotSet) -> bytes:
    n, m = s.data.shape
    return (_frame(b"SNP1") + struct.pack("<II", n, m) + _label(s.component)
            + _f64(s.times) + _f64(s.data))


def pod1_bytes(b) -> bytes:
    tol = np.nan if b.tolerance_used is None else b.tolerance_used
    return (_frame(b"POD1") + struct.pack("<II", *b.modes.shape)
            + _label(b.component) + struct.pack("<d", tol)
            + _f64(b.mean) + _f64(b.singular) + _f64(b.modes))


def rbf1_bytes(model) -> bytes:
    m, mc = model.centers.shape
    return (_frame(b"RBF1") + struct.pack("<IIdH", m, mc, model.shape_factor, 0)
            + _f64(model.centers) + _f64(model.coefficients))


def dmd1_bytes(model) -> bytes:
    n, r = model.modes.shape
    return (_frame(b"DMD1") + struct.pack("<IIdd", n, r, model.dt, model.t0)
            + _label(model.component) + _c128(model.modes)
            + _c128(model.eigenvalues) + _c128(model.amplitudes))


_ACT_IDS = {"linear": 0, "relu": 1, "elu": 2, "tanh": 3}


def net1_bytes(net) -> bytes:
    out = _frame(b"NET1") + struct.pack("<I", len(net.sizes))
    out += b"".join(struct.pack("<I", s) for s in net.sizes)
    out += b"".join(struct.pack("<H", _ACT_IDS[a]) for a in net.activations)
    out += struct.pack("<IH", net.augment_dim, int(net.time_input))
    out += struct.pack("<H", net.scale is not None)
    if net.scale is not None:
        out += _f64(net.scale.mid) + _f64(net.scale.half)
    out += struct.pack("<H", net.time_map is not None)
    if net.time_map is not None:
        out += struct.pack("<dd", net.time_map.t_lo, net.time_map.t_hi)
    out += struct.pack("<Q", net.seed) + _label(net.name)
    return out + struct.pack("<Q", net.params.size) + _f64(net.params)


def _snapshots() -> SnapshotSet:
    return SnapshotSet(_RNG.standard_normal((5, 4)),
                       np.array([0.0, 0.25, 0.5, 1.0]), component="vel")


def _basis(**cut):
    snaps = SnapshotSet(_RNG.standard_normal((6, 5)), np.arange(5.0),
                        component="p")
    centered = center(snaps)
    return truncate(thin_svd(centered), centered.mean, component="p", **cut)


_NET = build_net(2, [3, 4], "elu", seed=5)
_MAPPED_NET = replace(
    build_net(2, [3], "tanh", augment_dim=1, seed=2**64 - 1, time_input=False,
              scale=ScaleMap([0.1, -0.2], [1.0, 2.0]), name="mapped"),
    time_map=TimeMap(-0.5, 3.0),
)

CASES = {
    "SNP1": (save_snapshots, snp1_bytes, _snapshots()),
    "POD1-rank": (save_basis, pod1_bytes, _basis(rank=2)),
    "POD1-tolerance": (save_basis, pod1_bytes, _basis(tol=0.2)),
    "RBF1": (rbf.save_model, rbf1_bytes, rbf.RbfModel(
        _RNG.standard_normal((2, 3)), _RNG.standard_normal((2, 3)), 0.75)),
    "DMD1": (dmd.save_model, dmd1_bytes, dmd.DmdModel(
        _RNG.standard_normal((4, 2)) + 1j * _RNG.standard_normal((4, 2)),
        np.array([0.9 + 0.1j, 0.9 - 0.1j]), np.array([1.0 - 2j, 0.5j]),
        dt=0.1, t0=-2.5, component="w")),
    "NET1-bare": (save_net, net1_bytes, _NET),
    "NET1-mapped": (save_net, net1_bytes, _MAPPED_NET),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_saved_bytes_follow_the_layout(tmp_path, case):
    save, reference, obj = CASES[case]
    path = tmp_path / "artifact"
    save(obj, path)
    assert path.read_bytes() == reference(obj)


def test_cases_cover_both_pod_cuts_and_every_net1_option():
    assert CASES["POD1-rank"][2].tolerance_used is None
    assert CASES["POD1-tolerance"][2].tolerance_used == 0.2
    assert _NET.time_input and _NET.augment_dim == 0
    assert _NET.scale is None and _NET.time_map is None
    assert not _MAPPED_NET.time_input and _MAPPED_NET.augment_dim == 1
    assert _MAPPED_NET.scale is not None and _MAPPED_NET.time_map is not None
