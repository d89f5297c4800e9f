"""The container frame shared by SNP1, POD1, RBF1, DMD1 and NET1: corrupt
files fail only as FormatError or ValidationError, and a failed save leaves
the previous file untouched."""

import os
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nirom import dmd, rbf
from nirom.errors import FormatError, ValidationError
from nirom.node import ScaleMap, TimeMap, build_net, load_net, save_net
from nirom.pod import PodBasis, load_basis, save_basis
from nirom.snapshot import SnapshotSet, load_snapshots, save_snapshots

_RNG = np.random.default_rng(0)
_BASIS = PodBasis(np.linalg.qr(_RNG.standard_normal((4, 2)))[0],
                  np.array([2.0, 1.0]), _RNG.standard_normal(4),
                  tolerance_used=1e-3, component="u")
_SCALED_NET = replace(
    build_net(2, [3], "tanh", augment_dim=1, seed=2,
              scale=ScaleMap([0.1, -0.2], [1.0, 2.0])),
    time_map=TimeMap(0.0, 3.0),
)

# magic -> (save, load, sample objects)
SAMPLES = {
    "SNP1": (save_snapshots, load_snapshots, [SnapshotSet(
        _RNG.standard_normal((3, 4)), np.array([0.0, 0.5, 1.0, 1.5]))]),
    "POD1": (save_basis, load_basis, [_BASIS]),
    "RBF1": (rbf.save_model, rbf.load_model, [rbf.RbfModel(
        _RNG.standard_normal((2, 3)), _RNG.standard_normal((2, 3)), 0.5)]),
    "DMD1": (dmd.save_model, dmd.load_model, [dmd.DmdModel(
        _RNG.standard_normal((3, 2)) + 1j, np.array([0.9 + 0.1j, 0.9 - 0.1j]),
        np.array([1.0 + 0j, 0.5j]), dt=0.1, t0=0.0)]),
    "NET1": (save_net, load_net,
             [build_net(2, [3], "tanh", seed=1), _SCALED_NET]),
}


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    """A truncation at any offset, or 1-3 byte or u32 overwrites in the
    first 96 bytes."""
    if draw(st.booleans()):
        return blob[: draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            pos = draw(st.integers(0, min(96, len(out)) - 1))
            out[pos] = draw(st.integers(0, 255))
        else:
            pos = draw(st.integers(0, min(92, len(out) - 4)))
            out[pos:pos + 4] = struct.pack("<I", draw(st.integers(0, 2**32 - 1)))
    return bytes(out)


@pytest.mark.parametrize("magic", sorted(SAMPLES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_container_fails_only_as_format_error(
        tmp_path_factory, magic, data):
    save, load, objects = SAMPLES[magic]
    path = tmp_path_factory.getbasetemp() / f"fuzz.{magic}"
    save(data.draw(st.sampled_from(objects)), path)
    path.write_bytes(data.draw(corrupted(path.read_bytes())))
    try:
        load(path)
    except (FormatError, ValidationError):
        pass


@pytest.mark.parametrize("magic,offset,value", [
    ("NET1", 16, struct.pack("<I", 7)),  # hidden width: wrong parameter count
    ("RBF1", 16, struct.pack("<d", -1.0)),  # shape factor
    ("RBF1", 16, struct.pack("<d", np.nan)),
    ("DMD1", 16, struct.pack("<d", 0.0)),  # time step
    ("DMD1", 16, struct.pack("<d", np.nan)),
    ("DMD1", 24, struct.pack("<d", np.nan)),  # start time
], ids=["NET1", "RBF1", "RBF1-nan", "DMD1", "DMD1-nan", "DMD1-t0-nan"])
def test_fields_that_build_no_object_are_format_errors(
        tmp_path, magic, offset, value):
    save, load, objects = SAMPLES[magic]
    path = tmp_path / "container"
    save(objects[0], path)
    blob = bytearray(path.read_bytes())
    blob[offset:offset + len(value)] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load(path)


def test_negative_field_length_is_format_error(tmp_path):
    # augment_dim larger than the state makes the scale vectors' length
    # negative
    path = tmp_path / "model.net"
    save_net(_SCALED_NET, path)
    blob = bytearray(path.read_bytes())
    # magic, version, layer count, 3 sizes, 2 activation ids
    at = 4 + 4 + 4 + 3 * 4 + 2 * 2
    blob[at:at + 4] = struct.pack("<I", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="negative length"):
        load_net(path)


def test_failed_save_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "basis.pod"
    save_basis(_BASIS, path)
    before = path.read_bytes()
    # the label is written after the header and sizes, then refused
    with pytest.raises(ValueError, match="label too long"):
        save_basis(replace(_BASIS, component="x" * 0x10000), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["basis.pod"]
