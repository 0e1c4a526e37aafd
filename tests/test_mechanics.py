import math

import numpy as np
import pytest

from optomech import (
    DivergentMass,
    MechanicalMode,
    OutOfDomain,
    ProbeProfile,
    adaptive_quadrature,
    beta_inv,
    effective_mass,
    gaussian_fundamental_mass_ratio,
    integrated_rms,
    mode_from_oscillator,
    mode_shape,
    resonance_grid,
    snr_requirement,
    susceptibility,
    thermal_rms,
    thermal_spectrum,
    zero_point,
)
from optomech.units import HBAR, K_B, TWO_PI, SpectralDensity

from conftest import approx_rel, make_mode, make_string, random_string, rng


def test_mode_shape_symmetry_and_domain():
    osc = make_string()
    assert mode_shape(osc, 1, 0.0) == 1.0
    assert mode_shape(osc, 1, osc.L / 2) == pytest.approx(0.0, abs=1e-12)
    assert mode_shape(osc, 2, 0.0) == 0.0
    assert mode_shape(osc, 1, 1e-6) == mode_shape(osc, 1, -1e-6)
    assert mode_shape(osc, 2, 1e-6) == -mode_shape(osc, 2, -1e-6)
    with pytest.raises(OutOfDomain):
        mode_shape(osc, 1, osc.L)


def test_delta_probe_fundamental_is_half_mass():
    osc = make_string()
    probe = ProbeProfile(shape="delta")
    approx_rel(effective_mass(osc, probe, 1), osc.physical_mass / 2.0, 1e-9)


def test_narrow_gaussian_approaches_point_probe_limit():
    osc = make_string()
    probe = ProbeProfile(shape="gaussian", l_y=osc.L * 1e-3)
    assert beta_inv(osc, probe.l_y) < 1e-4
    approx_rel(effective_mass(osc, probe, 1), osc.physical_mass / 2.0, 1e-4)


def test_quadrature_against_trapezoid_oracle(rng):
    for _ in range(20):
        osc = random_string(rng)
        l_y = rng.uniform(0.05, 0.6) * osc.L
        n = int(rng.integers(1, 6))
        probe = ProbeProfile(shape="gaussian", l_y=l_y)
        if n % 2 == 0:
            with pytest.raises(DivergentMass):
                effective_mass(osc, probe, n)
            continue
        m_eff = effective_mass(osc, probe, n)
        # independent oracle: vectorized trapezoid rule on 10^6 points
        y = np.linspace(-osc.L / 2, osc.L / 2, 1_000_000)
        u = np.cos(n * np.pi * y / osc.L)
        density = np.exp(-np.pi * y ** 2 / l_y ** 2) / l_y
        overlap = np.trapezoid(u * density, y)
        m_oracle = osc.physical_mass * 0.5 / overlap ** 2
        approx_rel(m_eff, m_oracle, 1e-8)


def test_closed_form_ratio_matches_quadrature():
    osc = make_string(L=15e-6)
    l_y = 4.5e-6
    probe = ProbeProfile(shape="gaussian", l_y=l_y)
    ratio = effective_mass(osc, probe, 1) / osc.physical_mass
    approx_rel(ratio, gaussian_fundamental_mass_ratio(beta_inv(osc, l_y)),
               1e-9)
    assert gaussian_fundamental_mass_ratio(0.0) == 0.5


def test_effective_mass_grows_with_probe_width():
    osc = make_string()
    masses = [effective_mass(osc, ProbeProfile(shape="gaussian", l_y=l), 1)
              for l in (1e-6, 5e-6, 12e-6)]
    assert masses[0] < masses[1] < masses[2]
    assert masses[0] > osc.physical_mass / 2.0


def test_antisymmetric_mode_with_symmetric_probe_diverges():
    osc = make_string(mode_index=2)
    probe = ProbeProfile(shape="gaussian", l_y=3e-6)
    with pytest.raises(DivergentMass):
        effective_mass(osc, probe)
    delta = ProbeProfile(shape="delta")
    with pytest.raises(DivergentMass):
        effective_mass(osc, delta, 2)


def test_offset_delta_probe_raises_mass():
    osc = make_string()
    centered = effective_mass(osc, ProbeProfile(shape="delta"), 1)
    off = effective_mass(
        osc, ProbeProfile(shape="delta", center_offset=osc.L / 4), 1)
    approx_rel(off, centered / math.cos(math.pi / 4) ** 2, 1e-12)


def test_susceptibility_peak_value():
    mode = make_mode()
    chi = susceptibility(mode, mode.omega_m)
    expected = 1.0 / (mode.m_eff * mode.omega_m * mode.gamma_m)
    approx_rel(abs(chi), expected, 1e-12)
    assert chi.imag > 0
    with pytest.raises(ValueError):
        susceptibility(mode, -1.0)


def test_thermal_spectrum_peak_closed_form():
    mode = make_mode()
    f_m = mode.omega_m / TWO_PI
    s = thermal_spectrum(mode, 300.0, np.array([f_m]))
    expected = 4.0 * K_B * 300.0 / (mode.m_eff * mode.omega_m ** 2
                                    * mode.gamma_m)
    approx_rel(float(s.values[0]), expected, 1e-10)
    assert s.sidedness == "single"


def test_equipartition_integrated_vs_analytic():
    mode = make_mode()
    spectrum = thermal_spectrum(mode, 300.0, resonance_grid(mode))
    x_int = integrated_rms(spectrum)
    x_ana = thermal_rms(mode, 300.0)
    approx_rel(x_int, x_ana, 1e-3)
    approx_rel(x_ana, math.sqrt(K_B * 300.0
                                / (mode.m_eff * mode.omega_m ** 2)), 1e-14)


def test_integrated_rms_rejects_double_sided():
    f = np.linspace(1e6, 2e6, 10)
    s = SpectralDensity(f, np.ones_like(f), "double", "m")
    with pytest.raises(ValueError):
        integrated_rms(s)


def test_zero_point_level():
    mode = make_mode(f_m=8e6, Q=4e4, m_eff=4.9e-15)
    x_zp, s_sql = zero_point(mode)
    approx_rel(x_zp, math.sqrt(HBAR / (2.0 * 4.9e-15 * TWO_PI * 8e6)), 1e-14)
    approx_rel(s_sql, 2.0 * HBAR * 4e4 / (4.9e-15 * (TWO_PI * 8e6) ** 2),
               1e-14)
    # the SQL level is the thermal peak evaluated with the quantum
    # occupancy nbar -> 1/2
    peak = 4.0 * (HBAR * mode.omega_m / 2.0) \
        / (mode.m_eff * mode.omega_m ** 2 * mode.gamma_m)
    approx_rel(s_sql, peak, 1e-12)


def test_snr_requirement_matches_occupancy():
    mode = make_mode(f_m=8e6)
    amp, db = snr_requirement(mode, 300.0)
    two_nbar = 2.0 * K_B * 300.0 / (HBAR * TWO_PI * 8e6)
    approx_rel(amp, math.sqrt(two_nbar), 1e-14)
    approx_rel(db, 10.0 * math.log10(two_nbar), 1e-14)


def test_mode_from_oscillator_consistency():
    osc = make_string()
    probe = ProbeProfile(shape="gaussian", l_y=4.5e-6)
    mode = mode_from_oscillator(osc, probe)
    approx_rel(mode.omega_m / TWO_PI,
               (1.0 / (2.0 * osc.L)) * math.sqrt(osc.stress / osc.rho),
               1e-12)
    assert mode.quality_factor == pytest.approx(osc.Q, rel=1e-12)
    approx_rel(mode.m_eff, effective_mass(osc, probe, 1), 1e-12)


def test_adaptive_quadrature_known_integrals():
    approx_rel(adaptive_quadrature(math.sin, 0.0, math.pi), 2.0, 1e-10)
    approx_rel(adaptive_quadrature(lambda x: math.exp(-x * x), -8.0, 8.0),
               math.sqrt(math.pi), 1e-10)
    # sharp feature: narrow Lorentzian
    approx_rel(adaptive_quadrature(lambda x: 1e-6 / (x * x + 1e-12),
                                   -1.0, 1.0), 2.0 * math.atan(1e6), 1e-8)
