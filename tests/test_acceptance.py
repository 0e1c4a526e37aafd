"""End-to-end acceptance suite.

Each test is one pass/fail check of a headline quantity or identity at its
stated tolerance; run with -v for one line per criterion.
"""

import math

import numpy as np
import pytest

from optomech import (
    CouplingGeometry,
    DriveCondition,
    DivergentMass,
    ProbeProfile,
    ResponseCurve,
    ShiftCurve,
    backaction_rate,
    blue_detuned_rate,
    coupling_rate,
    coupling_ratio_hv,
    decay_constant,
    effective_mass,
    fit_exponential,
    fit_response,
    infer_stress,
    integrated_rms,
    oscillation_amplitude,
    qba_force_psd,
    qba_thermal_ratio,
    resonance_grid,
    response_coefficient,
    shot_noise_floor,
    snr_requirement,
    thermal_force_psd,
    thermal_rms,
    thermal_spectrum,
    threshold_power,
    transmission_modulation,
    zero_point,
)
from optomech.sensing import PDH_PENALTY
from optomech.units import HBAR, K_B, TWO_PI, SpectralDensity

from conftest import (
    HZ_PER_NM,
    approx_rel,
    g_central_difference_error,
    make_cavity,
    make_drive,
    make_mode,
    make_string,
    qba_reference_records,
    random_cavity,
    random_string,
    response_magnitude,
    rng,
    susceptibility,
    to_sidedness,
)

from optomech import NanoOscillator, devices, index_for_decay_length


def _si_cavity():
    # 1.55 um drive with a 220 nm field decay length, as used for the
    # headline coupling estimates
    return make_cavity(n=index_for_decay_length(1.55e-6, 220e-9))


def test_01_decay_length_235_nm():
    cav = make_cavity(n=1.45)
    assert abs(1.0 / decay_constant(cav) - 235e-9) <= 1e-9


def test_02_horizontal_coupling_54_to_66_mhz_per_nm():
    cav = _si_cavity()
    osc = make_string()
    g = coupling_rate(cav, osc, CouplingGeometry(0.0, "horizontal"))
    assert 54e6 <= g / HZ_PER_NM <= 66e6


def test_03_sheet_coupling_36_to_48_mhz_per_nm():
    cav = _si_cavity()
    sheet = make_string(kind="sheet", t=30e-9)
    g = coupling_rate(cav, sheet, CouplingGeometry(0.0, "sheet"))
    assert 36e6 <= g / HZ_PER_NM <= 48e6


def test_04_horizontal_vertical_ratio_is_sqrt_radius_ratio():
    cav = make_cavity(R=30e-6, r=3e-6)
    assert coupling_ratio_hv(cav) == math.sqrt(30e-6 / 3e-6)
    assert coupling_ratio_hv(cav) == pytest.approx(3.162, abs=1e-3)


def test_05_shot_noise_floor_with_and_without_pdh_penalty():
    cav = make_cavity(kappa=TWO_PI * 50e6)
    g = 3.8e6 * HZ_PER_NM
    omega = TWO_PI * 8e6
    double = shot_noise_floor(cav, g, make_drive(p_in=65e-6), omega)
    approx_rel(double, 1.5e-16, 0.05)
    pdh = shot_noise_floor(cav, g, make_drive(p_in=65e-6, readout="pdh"),
                           omega)
    approx_rel(pdh, 2.6e-16, 0.05)
    approx_rel(pdh, double * 1.73, 1e-12)


def test_06_zero_point_level_820_am():
    mode = make_mode(f_m=8e6, Q=4e4, m_eff=4.9e-15)
    _, s_sql = zero_point(mode)
    approx_rel(math.sqrt(s_sql), 820e-18, 0.03)


def test_07_thermal_rms_16_pm():
    mode = make_mode(f_m=10.74e6, Q=53000.0, m_eff=3.6e-15)
    analytic = thermal_rms(mode, 300.0)
    approx_rel(analytic, 16e-12, 0.10)
    approx_rel(analytic,
               math.sqrt(K_B * 300.0 / (3.6e-15 * (TWO_PI * 10.74e6) ** 2)),
               1e-14)
    integrated = integrated_rms(
        thermal_spectrum(mode, 300.0, resonance_grid(mode)))
    approx_rel(integrated, 16e-12, 0.10)


def test_08_snr_requirement_about_62_db():
    mode = make_mode(f_m=8e6)
    _, db = snr_requirement(mode, 300.0)
    assert db > 60.0
    assert db == pytest.approx(61.9, abs=0.1)


def test_09_stress_inversion_0p9_gpa():
    osc = make_string(L=25e-6, rho=3100.0)
    stress = infer_stress(osc, 10.74e6)
    approx_rel(stress, 0.9e9, 0.10)


def test_10_effective_mass_against_limits_and_trapezoid_oracle(rng):
    osc = make_string()
    point = ProbeProfile(l_y=0.0)
    approx_rel(effective_mass(osc, point, 1), osc.physical_mass / 2.0, 1e-9)
    narrow = ProbeProfile(l_y=osc.L * 1e-3)
    approx_rel(effective_mass(osc, narrow, 1), osc.physical_mass / 2.0, 1e-4)
    checked = 0
    while checked < 20:
        o = random_string(rng)
        n = int(rng.integers(1, 6))
        if n % 2 == 0:
            continue
        l_y = rng.uniform(0.05, 0.6) * o.L
        m_eff = effective_mass(o, ProbeProfile(l_y=l_y), n)
        y = np.linspace(-o.L / 2, o.L / 2, 1_000_000)
        overlap = np.trapezoid(
            np.cos(n * np.pi * y / o.L)
            * np.exp(-np.pi * y ** 2 / l_y ** 2) / l_y, y)
        approx_rel(m_eff, o.physical_mass * 0.5 / overlap ** 2, 1e-8)
        checked += 1


def test_11_backaction_identities(rng):
    for _ in range(10_000):
        cav = make_cavity(kappa=TWO_PI * rng.uniform(1e6, 200e6))
        mode = make_mode(f_m=rng.uniform(1e6, 50e6),
                         Q=rng.uniform(1e3, 1e6),
                         m_eff=rng.uniform(1e-16, 1e-13))
        g = rng.uniform(0.1e6, 20e6) * HZ_PER_NM
        p_in = rng.uniform(1e-6, 1e-3)
        general = backaction_rate(
            cav, mode, g, DriveCondition(p_in=p_in,
                                         detuning=cav.kappa / 2)).gamma_ba
        closed = blue_detuned_rate(cav, mode, g, p_in)
        assert abs(general - closed) <= 1e-12 * abs(closed)
    cav = make_cavity(kappa=TWO_PI * 12e6)
    mode = make_mode(f_m=10.8e6, Q=7e4, m_eff=3.6e-15)
    g = 0.6e6 * HZ_PER_NM
    p_thres = threshold_power(cav, mode, g)
    approx_rel(blue_detuned_rate(cav, mode, g, p_thres), -mode.gamma_m, 1e-9)


def test_12_heisenberg_product(rng):
    for _ in range(2000):
        cav = make_cavity(kappa=TWO_PI * rng.uniform(1e6, 300e6))
        g = rng.uniform(0.1e6, 50e6) * HZ_PER_NM
        drive = make_drive(p_in=rng.uniform(1e-7, 1e-2))
        omega = TWO_PI * rng.uniform(1e5, 1e8)
        product = shot_noise_floor(cav, g, drive, omega) ** 2 \
            * qba_force_psd(cav, g, drive, omega)
        assert abs(product - HBAR ** 2 / 2.0) <= 1e-12 * HBAR ** 2 / 2.0


def test_13_qba_ratio_reference_set_near_unity():
    ratio = qba_thermal_ratio(*qba_reference_records())
    assert abs(ratio - 1.0) <= 0.2


def test_14_fit_round_trips(rng):
    # exponential shift fit
    x = np.linspace(0.0, 500e-9, 30)
    amplitude, ell = TWO_PI * 6.9e9, 110e-9
    clean = ShiftCurve(tuple((float(xi), -amplitude * math.exp(-xi / ell))
                             for xi in x))
    fit = fit_exponential(clean)
    assert abs(fit.decay_length - ell) / ell < 1e-3
    for _ in range(10):
        noisy = ShiftCurve(tuple(
            (float(xi), -amplitude * math.exp(-xi / ell)
             * (1.0 + 0.01 * rng.standard_normal())) for xi in x))
        noisy_fit = fit_exponential(noisy)
        assert abs(noisy_fit.decay_length - ell) / ell < 0.05
    # response fit
    cav = make_cavity()
    mode = make_mode()
    g_pump, g_probe = 2e6 * HZ_PER_NM, 1e6 * HZ_PER_NM
    f_m = mode.omega_m / TWO_PI
    f = np.linspace(f_m - 25e3, f_m + 25e3, 6001)
    h = response_magnitude(cav, mode, g_pump, g_probe, TWO_PI * f)
    rfit = fit_response(ResponseCurve(f, h), cav, mode)
    a1 = response_coefficient(cav, mode, g_pump, g_probe)
    assert abs(rfit.a1 - a1) / a1 < 1e-3
    assert abs(rfit.omega_m - mode.omega_m) / mode.omega_m < 1e-3
    assert abs(rfit.gamma_m - mode.gamma_m) / mode.gamma_m < 1e-3
    g_eff = math.sqrt(g_pump * g_probe)
    assert abs(rfit.g_eff - g_eff) / g_eff < 1e-3


def test_15_finite_difference_gradient(rng):
    for _ in range(100):
        cav = random_cavity(rng)
        osc = random_string(rng)
        orientation = str(rng.choice(["horizontal", "vertical", "sheet"]))
        if orientation == "sheet":
            osc = NanoOscillator(**{**osc.__dict__, "kind": "sheet"})
        alpha = decay_constant(cav)
        geom = CouplingGeometry(rng.uniform(0.0, 2.0 / alpha), orientation)
        assert g_central_difference_error(
            cav, osc, geom, rng.uniform(0.002, 0.005) / alpha) < 1e-4


def test_16_saturation_amplitude_and_modulation_depth():
    cav = make_cavity(kappa=TWO_PI * 12e6)
    mode = make_mode(f_m=10.8e6, Q=7e4, m_eff=3.6e-15)
    g = 0.6e6 * HZ_PER_NM
    p_thres = threshold_power(cav, mode, g)
    state = oscillation_amplitude(
        cav, mode, g, DriveCondition(p_in=1e8 * p_thres,
                                     detuning=cav.kappa / 2))
    approx_rel(state.amplitude, (cav.kappa / 2.0) / g, 1e-7)
    delta = cav.kappa / 2.0
    assert transmission_modulation(cav, g, cav.kappa / g, delta) \
        == pytest.approx(1.0, abs=1e-12)
    assert transmission_modulation(cav, g, 0.0, delta) == 0.0
    small = [transmission_modulation(cav, g, a, delta)
             for a in (1e-13, 1e-12, 1e-11)]
    assert small[0] < small[1] < small[2] < 1e-2


def test_17_property_suites(rng):
    # 10^4 randomized cases over four structural properties
    # (a) sidedness involution
    for _ in range(2500):
        f = np.sort(rng.uniform(1e5, 1e8, size=8))
        f = np.unique(f)
        v = rng.uniform(1e-36, 1e-24, size=f.size)
        s = SpectralDensity(f, v, "single")
        back = to_sidedness(to_sidedness(s, "double"), "single")
        assert np.allclose(back.values, v, rtol=1e-15)
    # (b) shot-noise monotonicity in power and coupling
    cav = make_cavity(kappa=TWO_PI * 50e6)
    omega = TWO_PI * 8e6
    for _ in range(2500):
        g = rng.uniform(0.1e6, 20e6) * HZ_PER_NM
        p = rng.uniform(1e-7, 1e-3)
        s = shot_noise_floor(cav, g, make_drive(p_in=p), omega)
        assert shot_noise_floor(cav, g, make_drive(p_in=2 * p), omega) < s
        assert shot_noise_floor(cav, 2 * g, make_drive(p_in=p), omega) < s
    # (c) thermal-rms scaling: x_rms ~ sqrt(T), ~ 1/Omega_m
    for _ in range(2500):
        mode = make_mode(f_m=rng.uniform(1e6, 50e6), Q=rng.uniform(1e3, 1e6),
                         m_eff=rng.uniform(1e-16, 1e-13))
        T = rng.uniform(1.0, 500.0)
        x = thermal_rms(mode, T)
        approx_rel(thermal_rms(mode, 4.0 * T), 2.0 * x, 1e-12)
        half = make_mode(f_m=2.0 * mode.omega_m / TWO_PI,
                         Q=mode.quality_factor, m_eff=mode.m_eff)
        approx_rel(thermal_rms(half, T), x / 2.0, 1e-12)
    # (d) fluctuation-dissipation consistency of the Brownian spectrum
    for _ in range(2500):
        mode = make_mode(f_m=rng.uniform(1e6, 50e6), Q=rng.uniform(1e3, 1e6),
                         m_eff=rng.uniform(1e-16, 1e-13))
        T = rng.uniform(1.0, 500.0)
        f = rng.uniform(1e5, 1e8)
        s_xx = float(thermal_spectrum(mode, T, np.array([f])).values[0])
        s_ff = thermal_force_psd(mode, T)
        chi = susceptibility(mode, TWO_PI * f)
        approx_rel(s_xx, 2.0 * abs(chi) ** 2 * s_ff, 1e-12)
