import csv
import math

import numpy as np
import pytest

from optomech import (
    GridMismatch,
    IllConditioned,
    NoResonanceInWindow,
    ResponseCurve,
    ZeroPower,
    dynamic_g,
    fit_response,
    g_eff_from_a1,
    kerr_shift,
    noise_budget,
    qba_force_psd,
    response_coefficient,
    response_magnitude,
    response_model,
    shot_noise_floor,
    thermal_spectrum,
)
from optomech import sensing
from optomech.sensing import PDH_PENALTY
from optomech.units import C_LIGHT, HBAR, TWO_PI, SpectralDensity

from conftest import (
    HZ_PER_NM,
    approx_rel,
    make_cavity,
    make_drive,
    make_mode,
    rng,
)


def test_shot_noise_floor_direct_arithmetic():
    cav = make_cavity(kappa=TWO_PI * 50e6)
    g = 3.8e6 * HZ_PER_NM
    drive = make_drive(p_in=65e-6)
    omega = TWO_PI * 8e6
    got = shot_noise_floor(cav, g, drive, omega)
    omega0 = TWO_PI * C_LIGHT / 1.55e-6
    expected = (TWO_PI * 50e6 / (4.0 * g)
                * math.sqrt(HBAR * omega0 / 65e-6)
                * math.sqrt(1.0 + (2.0 * 8e6 / 50e6) ** 2))
    approx_rel(got, expected, 1e-13)


def test_shot_noise_sidedness_and_pdh_factors():
    cav = make_cavity(kappa=TWO_PI * 50e6)
    g = 3.8e6 * HZ_PER_NM
    omega = TWO_PI * 8e6
    base = shot_noise_floor(cav, g, make_drive(), omega)
    single = shot_noise_floor(cav, g, make_drive(), omega, sidedness="single")
    approx_rel(single, base * math.sqrt(2.0), 1e-14)
    pdh = shot_noise_floor(cav, g, make_drive(readout="pdh"), omega)
    approx_rel(pdh, base * PDH_PENALTY, 1e-14)
    with pytest.raises(ValueError):
        shot_noise_floor(cav, g, make_drive(), omega, sidedness="both")


def test_shot_noise_scaling_properties(rng):
    cav = make_cavity(kappa=TWO_PI * 50e6)
    omega = TWO_PI * 8e6
    for _ in range(50):
        g = rng.uniform(0.5e6, 10e6) * HZ_PER_NM
        p = rng.uniform(1e-6, 1e-3)
        scale = rng.uniform(2.0, 10.0)
        s = shot_noise_floor(cav, g, make_drive(p_in=p), omega)
        approx_rel(shot_noise_floor(cav, g, make_drive(p_in=scale * p),
                                    omega),
                   s / math.sqrt(scale), 1e-12)
        approx_rel(shot_noise_floor(cav, scale * g, make_drive(p_in=p),
                                    omega),
                   s / scale, 1e-12)


def test_zero_power_raises():
    cav = make_cavity()
    with pytest.raises(ZeroPower):
        shot_noise_floor(cav, 1e6 * HZ_PER_NM, make_drive(p_in=0.0),
                         TWO_PI * 8e6)


def test_heisenberg_product(rng):
    # randomized (g, kappa, P, Omega): double-sided imprecision times
    # backaction force PSD pins the hbar^2/2 uncertainty product
    for _ in range(200):
        cav = make_cavity(kappa=TWO_PI * rng.uniform(1e6, 300e6))
        g = rng.uniform(0.1e6, 50e6) * HZ_PER_NM
        drive = make_drive(p_in=rng.uniform(1e-7, 1e-2))
        omega = TWO_PI * rng.uniform(1e5, 1e8)
        s_xx = shot_noise_floor(cav, g, drive, omega) ** 2
        s_ff = qba_force_psd(cav, g, drive, omega).value
        approx_rel(s_xx * s_ff, HBAR ** 2 / 2.0, 1e-12)


def test_kerr_shift_sign_and_magnitude():
    cav = make_cavity()
    shift = kerr_shift(cav, 1e-3)
    expected = -cav.omega0 * 3e-20 / (1.44 * cav.mode_area) * 1e-3
    approx_rel(shift, expected, 1e-14)
    assert shift < 0
    assert kerr_shift(cav, -1e-3) == -shift


def test_response_coefficient_round_trip():
    cav = make_cavity()
    mode = make_mode()
    g_pump, g_probe = 2e6 * HZ_PER_NM, 1e6 * HZ_PER_NM
    a1 = response_coefficient(cav, mode, g_pump, g_probe)
    g_eff = g_eff_from_a1(cav, mode, a1)
    approx_rel(g_eff, math.sqrt(g_pump * g_probe), 1e-12)


def test_response_model_limits():
    mode = make_mode()
    a1 = 5e12
    far = response_model(np.array([mode.omega_m * 10.0]), a1, mode.omega_m,
                         mode.gamma_m)
    assert abs(float(far[0]) - 1.0) < 0.01
    # interference null just above resonance where the real part cancels
    on = response_model(np.array([mode.omega_m]), a1, mode.omega_m,
                        mode.gamma_m)
    assert float(on[0]) > 1.0


def test_fit_response_noiseless_round_trip():
    cav = make_cavity()
    mode = make_mode()
    g_pump, g_probe = 2e6 * HZ_PER_NM, 1e6 * HZ_PER_NM
    f_m = mode.omega_m / TWO_PI
    f = np.linspace(f_m - 25e3, f_m + 25e3, 8001)
    h = response_magnitude(cav, mode, g_pump, g_probe, TWO_PI * f)
    fit = fit_response(ResponseCurve(f, h), cav, mode)
    a1 = response_coefficient(cav, mode, g_pump, g_probe)
    approx_rel(fit.a1, a1, 1e-3)
    approx_rel(fit.omega_m, mode.omega_m, 1e-6)
    approx_rel(fit.gamma_m, mode.gamma_m, 1e-3)
    approx_rel(fit.g_eff, math.sqrt(g_pump * g_probe), 1e-3)


def test_fit_response_without_context_gives_nan_g():
    mode = make_mode()
    f_m = mode.omega_m / TWO_PI
    f = np.linspace(f_m - 25e3, f_m + 25e3, 4001)
    h = response_model(TWO_PI * f, 5e12, mode.omega_m, mode.gamma_m)
    fit = fit_response(ResponseCurve(f, h))
    assert math.isnan(fit.g_eff)
    approx_rel(fit.omega_m, mode.omega_m, 1e-6)


def test_fit_response_requires_bracketed_resonance():
    mode = make_mode()
    f_m = mode.omega_m / TWO_PI
    # window entirely below resonance: H rises monotonically
    f = np.linspace(f_m * 0.5, f_m * 0.9, 200)
    h = response_model(TWO_PI * f, 5e12, mode.omega_m, mode.gamma_m)
    with pytest.raises(NoResonanceInWindow):
        fit_response(ResponseCurve(f, h))
    with pytest.raises(NoResonanceInWindow):
        fit_response(ResponseCurve(f[:5], h[:5]))


def test_unconverged_response_fit_raises(monkeypatch):
    least_squares = sensing.least_squares
    monkeypatch.setattr(sensing, "least_squares", lambda *args, **kw:
                        least_squares(*args, **dict(kw, max_nfev=1)))
    cav = make_cavity()
    mode = make_mode()
    f_m = mode.omega_m / TWO_PI
    f = np.linspace(f_m - 25e3, f_m + 25e3, 2001)
    h = response_magnitude(cav, mode, 2e6 * HZ_PER_NM, 1e6 * HZ_PER_NM,
                           TWO_PI * f)
    with pytest.raises(IllConditioned, match="did not converge"):
        fit_response(ResponseCurve(f, h))


def test_response_curve_csv_round_trip(tmp_path):
    mode = make_mode()
    f_m = mode.omega_m / TWO_PI
    f = np.linspace(f_m - 5e3, f_m + 5e3, 500)
    h = response_model(TWO_PI * f, 5e12, mode.omega_m, mode.gamma_m)
    path = tmp_path / "response.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "h_mag"])
        for fi, hi in zip(f, h):
            writer.writerow([repr(float(fi)), repr(float(hi))])
    curve = ResponseCurve.from_csv(path)
    assert np.allclose(curve.frequencies_hz, f)
    assert np.allclose(curve.magnitudes, h)


def test_dynamic_g_recovers_constant_ratio():
    mode = make_mode()
    grid = np.linspace(mode.omega_m / TWO_PI - 5e3,
                       mode.omega_m / TWO_PI + 5e3, 1001)
    s_x = thermal_spectrum(mode, 300.0, grid)
    g_true = 2.5e6 * HZ_PER_NM
    s_w = SpectralDensity(grid, g_true ** 2 * s_x.values, "single", "rad/s")
    g_mean, g_std = dynamic_g(s_w, s_x)
    approx_rel(g_mean, g_true, 1e-10)
    assert g_std < 1e-6 * g_true


def test_dynamic_g_grid_mismatch():
    f = np.linspace(1e6, 2e6, 10)
    a = SpectralDensity(f, np.ones_like(f), "single", "rad/s")
    b = SpectralDensity(f + 1.0, np.ones_like(f), "single", "m")
    with pytest.raises(GridMismatch):
        dynamic_g(a, b)
    c = SpectralDensity(f, np.ones_like(f), "double", "m")
    with pytest.raises(GridMismatch):
        dynamic_g(a, c)


def test_noise_budget_composition():
    cav = make_cavity(kappa=TWO_PI * 50e6)
    mode = make_mode(f_m=8e6, Q=4e4, m_eff=4.9e-15)
    drive = make_drive(p_in=65e-6, readout="pdh")
    g = 3.8e6 * HZ_PER_NM
    grid = np.linspace(7.9e6, 8.1e6, 2001)
    floor = 4e-16
    budget = noise_budget(cav, mode, g, drive, grid, detector_floor=floor)
    shot_single = shot_noise_floor(cav, g, drive, TWO_PI * 8e6,
                                   sidedness="single")
    i_res = int(np.argmin(np.abs(grid - 8e6)))
    approx_rel(float(budget.background.values[i_res]),
               shot_single ** 2 + floor ** 2, 1e-6)
    assert np.allclose(budget.total.values,
                       budget.signal.values + budget.background.values)
    approx_rel(budget.imprecision,
               math.sqrt(shot_single ** 2 + floor ** 2), 1e-6)
    assert budget.snr_db > 0
