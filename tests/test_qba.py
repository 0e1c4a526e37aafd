import math

import numpy as np
import pytest

from optomech import (
    DriveCondition,
    qba_force_psd,
    qba_thermal_ratio,
    thermal_force_psd,
    thermal_spectrum,
)
from optomech.units import C_LIGHT, HBAR, K_B, TWO_PI

from conftest import (
    HZ_PER_NM,
    approx_rel,
    make_cavity,
    make_drive,
    make_mode,
    qba_reference_records,
    qba_thermal_ratio_scaling,
    rng,
    susceptibility,
)


def test_thermal_force_psd_direct_arithmetic():
    mode = make_mode()
    approx_rel(thermal_force_psd(mode, 300.0),
               2.0 * 3.6e-15 * mode.gamma_m * K_B * 300.0, 1e-14)


def test_thermal_force_drives_brownian_spectrum(rng):
    # fluctuation-dissipation consistency: the single-sided displacement
    # PSD equals 2 * |chi|^2 * S_FF (double-sided force noise)
    mode = make_mode()
    s_ff = thermal_force_psd(mode, 300.0)
    for _ in range(100):
        f = rng.uniform(1e6, 30e6)
        s_xx = float(thermal_spectrum(mode, 300.0,
                                      np.array([f])).values[0])
        chi = susceptibility(mode, TWO_PI * f)
        approx_rel(s_xx, 2.0 * abs(chi) ** 2 * s_ff, 1e-12)


def _qba_force_psd_via_flux(cav, g, drive, omega):
    """(hbar*g*tau_rt)^2 * S_I with the roundtrip time tau_rt = 2pi*R*n_eff/c
    and the intracavity flux noise
    S_I[O] = (P_in/(hbar*w0)) * (F/pi)^2 * 2/(1 + 4*O^2/kappa^2)."""
    tau_rt = TWO_PI * cav.R * cav.n_eff / C_LIGHT
    finesse = C_LIGHT / (cav.n_eff * cav.R * cav.kappa)
    flux_noise = (drive.p_in / (HBAR * cav.omega0) * (finesse / math.pi) ** 2
                  * 2.0 / (1.0 + 4.0 * omega ** 2 / cav.kappa ** 2))
    return (HBAR * g * tau_rt) ** 2 * flux_noise


def test_flux_route_matches_closed_form(rng):
    # (hbar*g*tau_rt)^2 * S_I must equal the direct QBA force PSD
    for _ in range(1000):
        cav = make_cavity(kappa=TWO_PI * rng.uniform(1e6, 300e6))
        g = rng.uniform(0.1e6, 30e6) * HZ_PER_NM
        drive = make_drive(p_in=rng.uniform(1e-7, 1e-2))
        omega = TWO_PI * rng.uniform(1e5, 1e8)
        direct = qba_force_psd(cav, g, drive, omega)
        via_flux = _qba_force_psd_via_flux(cav, g, drive, omega)
        approx_rel(via_flux, direct, 1e-12)


def test_ratio_is_psd_quotient(rng):
    # the quotient of the two force PSDs as the module docstring writes
    # them, not as the module computes them
    for _ in range(200):
        cav = make_cavity(kappa=TWO_PI * rng.uniform(1e6, 100e6))
        mode = make_mode(f_m=rng.uniform(1e6, 30e6),
                         Q=rng.uniform(1e4, 1e6),
                         m_eff=rng.uniform(1e-15, 1e-13))
        g = rng.uniform(0.5e6, 30e6) * HZ_PER_NM
        drive = make_drive(p_in=rng.uniform(1e-6, 1e-3),
                           temperature=rng.uniform(4.0, 400.0))
        s_th = 2.0 * mode.m_eff * mode.gamma_m * K_B * drive.temperature
        s_qba = (8.0 * (HBAR * g) ** 2 / cav.kappa ** 2
                 * drive.p_in / (HBAR * cav.omega0)
                 / (1.0 + 4.0 * mode.omega_m ** 2 / cav.kappa ** 2))
        approx_rel(qba_thermal_ratio(cav, mode, g, drive), s_qba / s_th,
                   1e-12)


def test_scaling_form_is_identical_to_direct_ratio(rng):
    for _ in range(1000):
        kappa = TWO_PI * rng.uniform(1e6, 100e6)
        f_m = rng.uniform(0.5e6, 30e6)
        Q = rng.uniform(1e3, 1e7)
        m_eff = rng.uniform(1e-16, 1e-13)
        g = rng.uniform(0.1e6, 50e6) * HZ_PER_NM
        p_in = rng.uniform(1e-7, 1e-2)
        wavelength = rng.uniform(0.6e-6, 1.6e-6)
        T = rng.uniform(1.0, 500.0)
        cav = make_cavity(kappa=kappa, wavelength=wavelength)
        mode = make_mode(f_m=f_m, Q=Q, m_eff=m_eff)
        drive = make_drive(p_in=p_in, temperature=T)
        direct = qba_thermal_ratio(cav, mode, g, drive)
        scaled = qba_thermal_ratio_scaling(
            g=g, kappa=kappa, m_eff=m_eff, Q=Q, omega_m=TWO_PI * f_m,
            p_in=p_in, wavelength=wavelength, T=T)
        approx_rel(scaled, direct, 1e-12)


def test_reference_set_reaches_order_unity():
    ratio = qba_thermal_ratio(*qba_reference_records())
    assert 0.8 < ratio < 1.2
    approx_rel(ratio, 0.894920619076478, 1e-10)


def test_qba_psd_off_resonance_follows_cavity_filter():
    cav = make_cavity()
    mode = make_mode()
    g = 5e6 * HZ_PER_NM
    drive = make_drive()
    at_res = qba_force_psd(cav, g, drive, mode.omega_m)
    shifted = qba_force_psd(cav, g, drive, 2.0 * mode.omega_m)
    assert shifted != at_res
    expected = at_res * (1.0 + 4.0 * mode.omega_m ** 2 / cav.kappa ** 2) \
        / (1.0 + 4.0 * (2.0 * mode.omega_m) ** 2 / cav.kappa ** 2)
    approx_rel(shifted, expected, 1e-12)


def test_negative_psd_rejected():
    with pytest.raises(ValueError):
        thermal_force_psd(make_mode(), -1.0)
