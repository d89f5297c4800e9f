"""The container frame shared by SNP1, POD1, RBF1, DMD1 and NET1: corrupt
files fail only as FormatError or ValidationError, a failed save leaves
the previous file untouched, and a load reads each payload straight into
its array."""

import os
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nirom import dmd, rbf
from nirom.containers import replacing
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


# the NET1 samples' output activation id (magic, version, layer count,
# 3 sizes, hidden activation id) and the scaled one's scale vectors (after
# both activation ids, augment_dim, time_input, has_scale)
_OUT_ACT_AT = 4 + 4 + 4 + 3 * 4 + 2
_MID_AT = _OUT_ACT_AT + 2 + 4 + 2 + 2
_HALF_AT = _MID_AT + 2 * 8


@pytest.mark.parametrize("magic,sample,offset,value", [
    ("NET1", 0, 16, struct.pack("<I", 7)),  # hidden width: wrong parameter count
    ("NET1", 1, _MID_AT, struct.pack("<d", np.nan)),  # scale centre
    ("NET1", 1, _HALF_AT + 8, struct.pack("<d", np.nan)),  # scale half-range
    ("NET1", 0, _OUT_ACT_AT, struct.pack("<H", 3)),  # tanh output layer
    ("RBF1", 0, 16, struct.pack("<d", -1.0)),  # shape factor
    ("RBF1", 0, 16, struct.pack("<d", np.nan)),
    ("RBF1", 0, 24, struct.pack("<H", 1)),  # kernel id: only 0 exists
    ("RBF1", 0, 26, struct.pack("<d", np.nan)),  # first center entry
    ("DMD1", 0, 16, struct.pack("<d", 0.0)),  # time step
    ("DMD1", 0, 16, struct.pack("<d", np.nan)),
    ("DMD1", 0, 24, struct.pack("<d", np.nan)),  # start time
    ("DMD1", 0, -16, struct.pack("<d", np.nan)),  # last amplitude
], ids=["NET1", "NET1-mid-nan", "NET1-half-nan", "NET1-tanh-output",
        "RBF1", "RBF1-nan",
        "RBF1-kernel-id", "RBF1-center-nan", "DMD1", "DMD1-nan", "DMD1-t0-nan",
        "DMD1-amplitude-nan"])
def test_fields_that_build_no_object_are_format_errors(
        tmp_path, magic, sample, offset, value):
    save, load, objects = SAMPLES[magic]
    path = tmp_path / "container"
    save(objects[sample], path)
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


@pytest.mark.parametrize("mode,old,new", [
    ("wb", b"old bytes, longer than the new", b"new"),
    ("w", "old", "new text, longer than the old"),
])
def test_replacing_an_existing_file_leaves_the_new_bytes_and_no_temp(
        tmp_path, monkeypatch, mode, old, new):
    path = tmp_path / "artifact"
    path.write_bytes(old) if "b" in mode else path.write_text(old)
    # the old file is unlinked and the temp file renamed to the free name
    monkeypatch.delattr(os, "replace")
    with replacing(path, mode) as f:
        f.write(new)
        assert path.exists()
    got = path.read_bytes() if "b" in mode else path.read_text()
    assert got == new
    assert os.listdir(tmp_path) == ["artifact"]


def test_replacing_a_missing_file_creates_it(tmp_path):
    with replacing(tmp_path / "new.bin") as f:
        f.write(b"x")
    assert (tmp_path / "new.bin").read_bytes() == b"x"
    assert os.listdir(tmp_path) == ["new.bin"]


def test_large_snapshot_load_allocates_little_beyond_its_array(tmp_path):
    snap = SnapshotSet(np.random.default_rng(1).standard_normal((4000, 250)),
                       np.arange(250.0))
    path = tmp_path / "big.snp"
    save_snapshots(snap, path)
    tracemalloc.start()
    try:
        back = load_snapshots(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * snap.data.nbytes
    assert back.data.flags.f_contiguous
    assert np.array_equal(back.data, snap.data)
    assert path.read_bytes()[-snap.data.nbytes:] == snap.data.tobytes(order="F")
