"""Snapshot container, file round-trips, centering, and the synthetic
generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nirom.errors import FormatError, ValidationError
from nirom.snapshot import (
    MAX_GRID_TIMES,
    CenteredSet,
    SnapshotSet,
    SyntheticSpec,
    center,
    generate_synthetic,
    load_snapshots,
    orthonormal_lift,
    save_snapshots,
    time_grid,
)


def random_set(seed: int, n: int = 6, m: int = 5) -> SnapshotSet:
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 1.0, size=m))
    return SnapshotSet(rng.standard_normal((n, m)), times, "u_x")


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_valid_construction():
    s = random_set(0)
    assert s.mesh_size == 6
    assert s.n_snapshots == 5


def test_rejects_equal_times():
    with pytest.raises(ValidationError):
        SnapshotSet(np.zeros((2, 2)), np.array([0.0, 0.0]))


def test_rejects_decreasing_times():
    with pytest.raises(ValidationError, match="strictly increasing"):
        SnapshotSet(np.zeros((2, 3)), np.array([0.0, 2.0, 1.0]))


def test_rejects_nan_with_location():
    data = np.zeros((3, 4))
    data[1, 2] = np.nan
    with pytest.raises(ValidationError, match=r"row 1, column 2"):
        SnapshotSet(data, np.arange(4.0))


def test_rejects_single_snapshot():
    with pytest.raises(ValidationError):
        SnapshotSet(np.zeros((3, 1)), np.array([0.0]))


def test_rejects_time_length_mismatch():
    with pytest.raises(ValidationError):
        SnapshotSet(np.zeros((3, 4)), np.arange(3.0))


# ---------------------------------------------------------------------------
# SNP1 round-trips
# ---------------------------------------------------------------------------


def test_binary_round_trip_exact(tmp_path):
    s = random_set(1)
    path = tmp_path / "s.snp"
    save_snapshots(s, path)
    back = load_snapshots(path)
    assert back.data.tobytes() == s.data.tobytes()
    assert back.times.tobytes() == s.times.tobytes()
    assert back.component == s.component


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 8),
    m=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
)
def test_binary_round_trip_is_bit_exact(tmp_path_factory, n, m, seed, scale):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, m)) * scale
    times = np.cumsum(rng.uniform(1e-6, 1e3, size=m))
    s = SnapshotSet(data, times)
    path = tmp_path_factory.mktemp("rt") / "s.snp"
    save_snapshots(s, path)
    back = load_snapshots(path)
    assert back.data.tobytes() == s.data.tobytes()
    assert back.times.tobytes() == s.times.tobytes()


def test_unwritable_path_raises_io_error(tmp_path):
    with pytest.raises(OSError):
        save_snapshots(random_set(3), tmp_path / "missing" / "s.snp")


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.snp"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_snapshots(path)


def test_load_rejects_truncated_file(tmp_path):
    s = random_set(4)
    path = tmp_path / "s.snp"
    save_snapshots(s, path)
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(FormatError):
        load_snapshots(path)


def test_load_rejects_trailing_garbage(tmp_path):
    s = random_set(5)
    path = tmp_path / "s.snp"
    save_snapshots(s, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_snapshots(path)


# ---------------------------------------------------------------------------
# centering
# ---------------------------------------------------------------------------


def test_center_constant_set():
    v = np.array([3.0, -1.0, 2.0])
    s = SnapshotSet(np.column_stack([v, v, v]), np.arange(3.0))
    c = center(s)
    assert np.array_equal(c.mean, v)
    assert np.all(c.deviations == 0.0)


def test_center_two_columns():
    s = SnapshotSet(np.array([[1.0, -1.0]]), np.array([0.0, 1.0]))
    c = center(s)
    assert c.mean[0] == 0.0
    assert np.array_equal(c.deviations, np.array([[1.0, -1.0]]))


def test_center_three_columns():
    s = SnapshotSet(np.array([[0.0, 2.0, 4.0]]), np.arange(3.0))
    c = center(s)
    assert c.mean[0] == 2.0
    assert np.array_equal(c.deviations, np.array([[-2.0, 0.0, 2.0]]))


def test_center_row_sums_vanish():
    s = random_set(7, n=20, m=30)
    c = center(s)
    bound = 1e-10 * s.n_snapshots * np.max(np.abs(s.data))
    assert np.all(np.abs(c.deviations.sum(axis=1)) <= bound)


def test_center_idempotent_on_deviations():
    s = random_set(8, n=12, m=9)
    c = center(s)
    again = center(SnapshotSet(c.deviations, c.times))
    assert np.max(np.abs(again.mean)) < 1e-12


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def test_time_grid_counts():
    assert len(time_grid(0.0, 9.9, 0.1)) == 100
    assert np.allclose(time_grid(0.0, 1.0, 0.25), [0, 0.25, 0.5, 0.75, 1.0])


def test_time_grid_is_bounded():
    assert len(time_grid(0.0, MAX_GRID_TIMES - 1.0, 1.0)) == MAX_GRID_TIMES
    for t_end, dt in [(float(MAX_GRID_TIMES), 1.0), (1e300, 1e-300)]:
        with pytest.raises(ValueError, match="at most"):
            time_grid(0.0, t_end, dt)


def test_traveling_wave_value_at_quarter_period():
    spec = SyntheticSpec("traveling_wave", 64, 0.0, 1.0, 0.5, wave_speed=1.0)
    s = generate_synthetic(spec)
    # grid point 16 of 64 sits at x = pi/2, so sin(x - 0) = 1
    assert s.data[16, 0] == pytest.approx(1.0, abs=1e-15)


def test_harmonic_latent_identity_lift_initial_column():
    spec = SyntheticSpec("harmonic_latent", 2, 0.0, 1.0, 0.1, omega=1.0)
    s = generate_synthetic(spec)
    assert np.array_equal(s.data[:, 0], [1.0, 0.0])


def test_harmonic_latent_columns_have_unit_norm():
    spec = SyntheticSpec("harmonic_latent", 17, 0.0, 5.0, 0.1, omega=2.0, seed=3)
    s = generate_synthetic(spec)
    assert np.allclose(np.linalg.norm(s.data, axis=0), 1.0, atol=1e-12)


def test_orthonormal_lift_properties():
    q = orthonormal_lift(11, 2, seed=5)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
    assert np.array_equal(q, orthonormal_lift(11, 2, seed=5))
    assert np.array_equal(orthonormal_lift(4, 4, seed=0), np.eye(4))


def test_traveling_wave_rank_two_after_centering():
    spec = SyntheticSpec("traveling_wave", 64, 0.0, 9.9, 0.1)
    s = generate_synthetic(spec)
    assert s.n_snapshots == 100
    sv = np.linalg.svd(center(s).deviations, compute_uv=False)
    assert np.sum(sv > 1e-10 * sv[0]) == 2


def test_linear_system_deterministic_and_finite():
    spec = SyntheticSpec("linear_system", 12, 0.0, 5.0, 0.1, seed=42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.data, b.data)
    assert np.all(np.isfinite(a.data))
    assert np.linalg.norm(a.data[:, 0]) == pytest.approx(1.0)


def test_linear_system_is_exactly_linear():
    # every snapshot is one application of the same map, so the best
    # least-squares map must reproduce the data to machine precision
    spec = SyntheticSpec("linear_system", 6, 0.0, 3.0, 0.1, seed=1)
    s = generate_synthetic(spec)
    x, y = s.data[:, :-1], s.data[:, 1:]
    a_hat = np.linalg.lstsq(x.T, y.T, rcond=None)[0].T
    assert np.allclose(a_hat @ x, y, atol=1e-10)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec("vortex", 8, 0.0, 1.0, 0.1)


def test_bad_spec_parameters_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec("traveling_wave", 1, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        SyntheticSpec("traveling_wave", 8, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        SyntheticSpec("traveling_wave", 8, 1.0, 0.0, 0.1)
