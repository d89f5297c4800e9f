"""Exact-DMD fitting, spectral forecasting, and the DMD1 container.

Rotation-spectrum values come from the analytic eigenpair of a 2D rotation
matrix: cos(theta) +/- i sin(theta).
"""

import numpy as np
import pytest

from nirom.dmd import (
    DmdModel,
    _eig_powers,
    dmd_fit,
    dmd_forecast,
    load_model,
    save_model,
)
from nirom.errors import FormatError, NumericalError
from nirom.pod import tied_peak
from nirom.snapshot import SnapshotSet, SyntheticSpec, generate_synthetic, time_grid

COS_TENTH = 0.99500416527802582
SIN_TENTH = 0.099833416646828155


def scalar_decay(factor: float = 0.5, m: int = 8, dt: float = 1.0) -> SnapshotSet:
    data = factor ** np.arange(m)[None, :]
    return SnapshotSet(data, dt * np.arange(m))


def rotation_set(theta: float = 0.1, m: int = 40, dt: float = 1.0) -> SnapshotSet:
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    data = np.empty((2, m))
    data[:, 0] = [1.0, 0.0]
    for k in range(1, m):
        data[:, k] = rot @ data[:, k - 1]
    return SnapshotSet(data, dt * np.arange(m))


def wave_set(dt: float = 0.1) -> SnapshotSet:
    return generate_synthetic(SyntheticSpec("traveling_wave", 64, 0.0, 9.9, dt))


def linear_set(n: int = 8, m: int = 20, seed: int = 0) -> tuple[SnapshotSet, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a /= np.max(np.abs(np.linalg.eigvals(a)))
    data = np.empty((n, m))
    data[:, 0] = rng.standard_normal(n)
    for k in range(1, m):
        data[:, k] = a @ data[:, k - 1]
    return SnapshotSet(data, np.arange(float(m))), a


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_scalar_decay_eigenvalue():
    model = dmd_fit(scalar_decay(), r=1)
    assert model.eigenvalues[0] == pytest.approx(0.5, rel=1e-10)
    v0 = (model.modes @ model.amplitudes).real
    assert v0[0] == pytest.approx(1.0, rel=1e-10)


def test_rotation_eigenvalues():
    model = dmd_fit(rotation_set(), r=2)
    lam = sorted(model.eigenvalues, key=lambda z: z.imag)
    assert lam[0] == pytest.approx(COS_TENTH - 1j * SIN_TENTH, abs=1e-8)
    assert lam[1] == pytest.approx(COS_TENTH + 1j * SIN_TENTH, abs=1e-8)


def test_traveling_wave_spectrum_on_unit_circle():
    model = dmd_fit(wave_set(), r=2)
    assert np.allclose(np.abs(model.eigenvalues), 1.0, atol=1e-8)
    args = np.sort(np.angle(model.eigenvalues))
    assert np.allclose(args, [-0.1, 0.1], atol=1e-6)


def test_nonuniform_times_rejected():
    s = SnapshotSet(np.ones((2, 3)) * [[1, 2, 4]], np.array([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError):
        dmd_fit(s, r=1)


def test_rank_bounds_checked():
    s = scalar_decay()
    for bad in (0, 2):
        with pytest.raises(ValueError):
            dmd_fit(s, r=bad)


def test_rank_beyond_data_rank_advises_smaller():
    with pytest.raises(NumericalError, match="r <= 2"):
        dmd_fit(wave_set(), r=3)


def test_conjugate_symmetric_spectrum():
    s, _ = linear_set(n=6, m=25, seed=1)
    model = dmd_fit(s, r=6)
    for lam in model.eigenvalues:
        assert np.min(np.abs(model.eigenvalues - np.conj(lam))) < 1e-10


@pytest.mark.parametrize("data, r", [(wave_set(), 2), (linear_set()[0], 8)],
                         ids=["traveling wave", "linear"])
def test_each_mode_is_real_and_positive_at_its_last_tied_peak(data, r):
    # the wave's modes tie in modulus across the grid, so without the rule
    # roundoff would choose the entry LAPACK makes real
    model = dmd_fit(data, r)
    for mode in model.modes.T:
        peak = mode[tied_peak(np.abs(mode))]
        assert peak.imag == 0 and peak.real > 0
    rebuilt = (model.modes * model.amplitudes).real.sum(axis=1)
    assert np.allclose(rebuilt, data.data[:, 0], rtol=0, atol=1e-12)


def test_recovers_true_operator_spectrum():
    s, a = linear_set(n=8, m=20, seed=2)
    model = dmd_fit(s, r=8)
    for lam in np.linalg.eigvals(a):
        assert np.min(np.abs(model.eigenvalues - lam)) < 1e-8


def test_amplitudes_sorted_by_magnitude():
    s, _ = linear_set(n=6, m=25, seed=3)
    model = dmd_fit(s, r=6)
    mags = np.abs(model.amplitudes)
    assert np.all(np.diff(mags) <= 1e-12)


def test_more_rank_never_hurts_on_low_rank_data():
    # three decaying oscillators lifted to 12 DOFs
    t = np.arange(40.0)
    latent = np.vstack(
        [
            np.exp(-0.02 * t) * np.cos(0.3 * t),
            np.exp(-0.02 * t) * np.sin(0.3 * t),
            np.exp(-0.05 * t),
        ]
    )
    rng = np.random.default_rng(4)
    lift, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    s = SnapshotSet(lift @ latent, t)
    errs = []
    for r in range(1, 4):
        model = dmd_fit(s, r=r)
        rec = dmd_forecast(model, s.times)
        errs.append(np.linalg.norm(rec.data - s.data))
    assert errs[1] <= errs[0] + 1e-10
    assert errs[2] <= errs[1] + 1e-10


# ---------------------------------------------------------------------------
# forecasting
# ---------------------------------------------------------------------------


def test_training_times_reproduced_for_linear_data():
    s, _ = linear_set(n=8, m=20, seed=5)
    model = dmd_fit(s, r=8)
    rec = dmd_forecast(model, s.times)
    assert np.linalg.norm(rec.data - s.data) <= 1e-8 * np.linalg.norm(s.data)


def test_initial_time_gives_initial_snapshot():
    s = rotation_set()
    model = dmd_fit(s, r=2)
    rec = dmd_forecast(model, s.times[:2])
    assert np.allclose(rec.data[:, 0], s.data[:, 0], atol=1e-8)


def test_fine_grid_traveling_wave():
    s = wave_set(dt=0.1)
    model = dmd_fit(s, r=2)
    fine = time_grid(0.0, 9.9, 0.025)
    pred = dmd_forecast(model, fine)
    x = 2.0 * np.pi * np.arange(64) / 64
    truth = np.sin(x[:, None] - fine[None, :])
    rmse = np.sqrt(np.mean((pred.data - truth) ** 2))
    assert rmse < 1e-6 * np.max(np.abs(truth))


def test_forecast_before_start_rejected():
    model = dmd_fit(scalar_decay(), r=1)
    with pytest.raises(ValueError):
        dmd_forecast(model, np.array([-1.0, 0.0]))


def test_forecast_nonmonotone_rejected():
    model = dmd_fit(scalar_decay(), r=1)
    with pytest.raises(ValueError):
        dmd_forecast(model, np.array([0.0, 2.0, 1.0]))


def reference_forecast(model: DmdModel, times: np.ndarray) -> np.ndarray:
    """The complex N x T product dmd_forecast replaced."""
    coefs = (_eig_powers(model.eigenvalues, (times - model.t0) / model.dt)
             * model.amplitudes[:, None])
    return (model.modes @ coefs).real


def random_model(n: int, lam, seed: int) -> DmdModel:
    rng = np.random.default_rng(seed)
    r = len(lam)
    modes = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    amps = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return DmdModel(modes, lam, amps, dt=0.5, t0=1.0)


@pytest.mark.parametrize("lam", [
    [0.99 * np.exp(0.3j), 0.99 * np.exp(-0.3j), 0.7, 1.01 * np.exp(2.0j)],
    [0.9, 0.0, -0.5 + 0.2j],  # the zero eigenvalue takes integer powers
], ids=["spectral", "zero-eigenvalue"])
@pytest.mark.parametrize("n", [3000, 2])
def test_forecast_matches_complex_product(lam, n):
    model = random_model(n, lam, seed=n)
    times = 1.0 + 0.5 * np.arange(120)
    out = dmd_forecast(model, times).data
    ref = reference_forecast(model, times)
    assert out.flags.f_contiguous
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_forecast_of_fitted_model_matches_complex_product():
    model = dmd_fit(wave_set(), r=2)
    times = time_grid(0.0, 19.9, 0.1)
    ref = reference_forecast(model, times)
    out = dmd_forecast(model, times).data
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_growing_mode_overflow_is_numerical_error():
    # 1.5**k passes the float range after step 1750
    model = DmdModel(np.ones((3, 1)), [1.5], [1.0], dt=1.0, t0=0.0)
    with pytest.raises(NumericalError, match="overflows at step 1751"):
        dmd_forecast(model, np.arange(3000.0))


def test_field_overflow_of_finite_coefficients_is_numerical_error():
    # the coefficients 10**k stay finite; the 1e300 modes lift them past the
    # float range from step 9 on
    model = DmdModel(np.full((3, 1), 1e300), [10.0], [1.0], dt=1.0, t0=0.0)
    with pytest.raises(NumericalError, match=r"overflows at step 9 \(t=9\)"):
        dmd_forecast(model, np.arange(12.0))


@pytest.mark.parametrize("field", ["modes", "eigenvalues", "amplitudes"])
def test_non_finite_model_rejected(field):
    parts = {"modes": np.ones((3, 1)), "eigenvalues": [0.5],
             "amplitudes": [1.0]}
    parts[field] = np.full_like(np.asarray(parts[field], dtype=float), np.nan)
    with pytest.raises(ValueError, match="finite"):
        DmdModel(**parts, dt=1.0, t0=0.0)


def test_zero_eigenvalue_integer_powers_ok():
    model = DmdModel(
        np.array([[1.0 + 0j], [0.0 + 0j]]),
        np.array([0.0 + 0j]),
        np.array([2.0 + 0j]),
        dt=1.0,
        t0=0.0,
    )
    rec = dmd_forecast(model, np.array([0.0, 1.0, 2.0]))
    assert np.allclose(rec.data[:, 0], [2.0, 0.0])
    assert np.allclose(rec.data[:, 1:], 0.0)


def test_zero_eigenvalue_fractional_power_rejected():
    model = DmdModel(
        np.array([[1.0 + 0j]]),
        np.array([0.0 + 0j]),
        np.array([1.0 + 0j]),
        dt=1.0,
        t0=0.0,
    )
    with pytest.raises(NumericalError):
        dmd_forecast(model, np.array([0.0, 0.5]))


# ---------------------------------------------------------------------------
# DMD1 container
# ---------------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    s, _ = linear_set(n=5, m=15, seed=6)
    model = dmd_fit(s, r=5)
    path = tmp_path / "m.dmd"
    save_model(model, path)
    back = load_model(path)
    assert back.modes.tobytes() == model.modes.tobytes()
    assert back.eigenvalues.tobytes() == model.eigenvalues.tobytes()
    assert back.amplitudes.tobytes() == model.amplitudes.tobytes()
    assert back.dt == model.dt
    assert back.t0 == model.t0
    assert back.component == model.component


def test_model_wrong_magic(tmp_path):
    path = tmp_path / "m.dmd"
    path.write_bytes(b"RBF1" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_model(path)


def test_model_hostile_header_is_format_error(tmp_path):
    # N = r = 2^32 - 1: the complex mode payload would need 16 * (2^32 - 1)^2
    # bytes, past the range of a 64-bit product
    huge = (2**32 - 1).to_bytes(4, "little")
    path = tmp_path / "m.dmd"
    path.write_bytes(
        b"DMD1" + (1).to_bytes(4, "little") + huge + huge + bytes(16)
        + (1).to_bytes(2, "little") + b"u" + bytes(64)
    )
    with pytest.raises(FormatError, match="truncated"):
        load_model(path)
