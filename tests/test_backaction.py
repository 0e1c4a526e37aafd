import math
from fractions import Fraction

import numpy as np
import pytest

from optomech import (
    DriveCondition,
    backaction_rate,
    blue_detuned_rate,
    linewidth_vs_coupling,
    oscillation_amplitude,
    threshold_power,
    transmission_modulation,
)
from optomech.units import TWO_PI

from conftest import (
    HZ_PER_NM,
    approx_rel,
    make_cavity,
    make_drive,
    make_mode,
    random_cavity,
    rng,
)


def _fig4_setup():
    cav = make_cavity(kappa=TWO_PI * 12e6)
    mode = make_mode(f_m=10.8e6, Q=7e4, m_eff=3.6e-15)
    g = 0.6e6 * HZ_PER_NM
    return cav, mode, g


def test_general_rate_reduces_to_blue_detuned_form(rng):
    # the sideband-bracket expression evaluated at Delta = +kappa/2 must
    # reproduce the dedicated closed form
    for _ in range(10_000):
        cav = make_cavity(kappa=TWO_PI * rng.uniform(1e6, 200e6))
        mode = make_mode(f_m=rng.uniform(1e6, 50e6),
                         Q=rng.uniform(1e3, 1e6),
                         m_eff=rng.uniform(1e-16, 1e-13))
        g = rng.uniform(0.1e6, 20e6) * HZ_PER_NM
        p_in = rng.uniform(1e-6, 1e-3)
        drive = DriveCondition(p_in=p_in, detuning=cav.kappa / 2.0)
        general = backaction_rate(cav, mode, g, drive).gamma_ba
        closed = blue_detuned_rate(cav, mode, g, p_in)
        assert general != 0.0
        assert abs(general - closed) <= 1e-12 * abs(closed)


def test_threshold_power_cancels_intrinsic_damping(rng):
    # at P = P_thres the blue-detuned gain exactly cancels Gamma_m
    for _ in range(200):
        cav = make_cavity(kappa=TWO_PI * rng.uniform(2e6, 100e6))
        mode = make_mode(f_m=rng.uniform(2e6, 30e6), Q=rng.uniform(1e4, 1e6),
                         m_eff=rng.uniform(1e-15, 1e-14))
        g = rng.uniform(0.2e6, 5e6) * HZ_PER_NM
        p_thres = threshold_power(cav, mode, g)
        gamma_ba = blue_detuned_rate(cav, mode, g, p_thres)
        approx_rel(gamma_ba, -mode.gamma_m, 1e-9)


def test_detuning_sign_selects_regime():
    cav, mode, g = _fig4_setup()
    red = backaction_rate(cav, mode, g,
                          DriveCondition(p_in=1e-6, detuning=-cav.kappa / 2))
    blue = backaction_rate(cav, mode, g,
                           DriveCondition(p_in=1e-6, detuning=+cav.kappa / 2))
    zero = backaction_rate(cav, mode, g,
                           DriveCondition(p_in=1e-6, detuning=0.0))
    assert red.regime == "cooling" and red.gamma_ba > 0
    assert blue.regime == "amplification" and blue.gamma_ba < 0
    assert zero.regime == "neutral" and zero.gamma_ba == 0.0
    approx_rel(red.gamma_ba, -blue.gamma_ba, 1e-12)


def test_above_threshold_regime_reported():
    cav, mode, g = _fig4_setup()
    p_thres = threshold_power(cav, mode, g)
    res = backaction_rate(cav, mode, g,
                          DriveCondition(p_in=3.0 * p_thres,
                                         detuning=cav.kappa / 2))
    assert res.regime == "above_threshold"
    assert res.gamma_total < 0


def test_linewidth_is_affine_in_g_squared():
    cav, mode, g_max = _fig4_setup()
    drive = make_drive(p_in=50e-6, detuning_hz=6e6)
    g_grid = np.linspace(0.05e6, 0.3e6, 30) * HZ_PER_NM
    gamma_hz = linewidth_vs_coupling(cav, mode, drive, g_grid)
    g2 = g_grid * g_grid
    coeffs = np.polyfit(g2, gamma_hz, 1)
    fit_line = np.polyval(coeffs, g2)
    assert np.max(np.abs(fit_line - gamma_hz)) < 1e-9 * mode.gamma_m / TWO_PI
    # d(Gamma_total)/d(g^2) is the blue-detuned rate at unit g
    slope = blue_detuned_rate(cav, mode, 1.0, drive.p_in)
    approx_rel(coeffs[0], slope / TWO_PI, 1e-9)
    approx_rel(coeffs[1], mode.gamma_m / TWO_PI, 1e-9)
    assert slope < 0


def test_linewidth_clipped_above_threshold():
    cav, mode, _ = _fig4_setup()
    drive = make_drive(p_in=300e-6, detuning_hz=6e6)
    g_grid = np.linspace(0.05e6, 2e6, 50) * HZ_PER_NM
    gamma_hz = linewidth_vs_coupling(cav, mode, drive, g_grid)
    assert np.all(gamma_hz >= 0)
    assert gamma_hz[-1] == 0.0


def test_linewidth_table_matches_per_point_rate(rng):
    # the array evaluation against one scalar blue_detuned_rate per point;
    # near the zero clip Gamma_m + Gamma_ba cancels, so a 1-ulp change of
    # Gamma_ba is compared on the scale of Gamma_m
    for _ in range(20):
        cav = make_cavity(kappa=TWO_PI * rng.uniform(2e6, 100e6))
        mode = make_mode(f_m=rng.uniform(2e6, 30e6), Q=rng.uniform(1e4, 1e6),
                         m_eff=rng.uniform(1e-15, 1e-14))
        g_thres = rng.uniform(0.2e6, 5e6) * HZ_PER_NM
        p_in = threshold_power(cav, mode, g_thres)
        drive = DriveCondition(p_in=p_in, detuning=cav.kappa / 2.0)
        g_grid = np.linspace(0.05, 2.0, 5001) * g_thres
        table = linewidth_vs_coupling(cav, mode, drive, g_grid)
        assert table.shape == g_grid.shape
        for g, gamma_hz in zip(g_grid.tolist(), table.tolist()):
            total = mode.gamma_m + blue_detuned_rate(cav, mode, g, p_in)
            if total < -1e-9 * mode.gamma_m:     # above threshold
                assert gamma_hz == 0.0
            else:
                assert abs(gamma_hz - max(total, 0.0) / TWO_PI) \
                    <= 1e-12 * mode.gamma_m / TWO_PI


def test_amplitude_zero_below_threshold_and_sqrt_law_above():
    cav, mode, g = _fig4_setup()
    p_thres = threshold_power(cav, mode, g)
    below = oscillation_amplitude(cav, mode, g,
                                  DriveCondition(p_in=0.5 * p_thres,
                                                 detuning=cav.kappa / 2))
    assert below.amplitude == 0.0
    a_sat = (cav.kappa / 2.0) / g
    for ratio in (1.5, 4.0, 100.0):
        state = oscillation_amplitude(
            cav, mode, g, DriveCondition(p_in=ratio * p_thres,
                                         detuning=cav.kappa / 2))
        approx_rel(state.amplitude, a_sat * math.sqrt(1.0 - 1.0 / ratio),
                   1e-9)
    huge = oscillation_amplitude(
        cav, mode, g, DriveCondition(p_in=1e6 * p_thres,
                                     detuning=cav.kappa / 2))
    approx_rel(huge.amplitude, a_sat, 1e-5)


def test_modulation_depth_limits():
    cav, _, g = _fig4_setup()
    delta = cav.kappa / 2.0
    assert transmission_modulation(cav, g, 0.0, delta) == 0.0
    # swing that reaches resonance gives full modulation
    a_cross = delta / g
    assert transmission_modulation(cav, g, a_cross, delta) \
        == pytest.approx(1.0, abs=1e-12)
    assert transmission_modulation(cav, g, cav.kappa / g, delta) \
        == pytest.approx(1.0, abs=1e-12)
    # monotone growth below crossing
    depths = [transmission_modulation(cav, g, a, delta)
              for a in np.linspace(0.0, 0.9 * a_cross, 10)]
    assert all(b > a for a, b in zip(depths, depths[1:]))
    with pytest.raises(ValueError):
        transmission_modulation(cav, g, -1.0, delta)


def test_modulation_depth_matches_exact_rationals(rng):
    # near resonance 1 - 1/(1 + x) loses all its digits, and far off it
    # the two dips near 1 cancel; sweeps that stay on one side of
    # resonance with |delta| from 1e-8 to 100 linewidths, against the
    # depth of the same inputs in exact rational arithmetic
    def dip(d, kappa):
        return 1 - 1 / (1 + 4 * d * d / (kappa * kappa))

    for _ in range(2000):
        cav = random_cavity(rng)
        g = rng.uniform(0.1e6, 20e6) * HZ_PER_NM
        delta = cav.kappa * 10.0 ** rng.uniform(-8.0, 2.0) \
            * rng.choice([-1.0, 1.0])
        amplitude = abs(delta) * rng.uniform(0.2, 0.8) / g
        d, kappa = abs(Fraction(delta)), Fraction(cav.kappa)
        swing = Fraction(g) * Fraction(amplitude)
        near, far = dip(d - swing, kappa), dip(d + swing, kappa)
        approx_rel(transmission_modulation(cav, g, amplitude, delta),
                   float((far - near) / far), 1e-14)


def test_detuning_past_the_float_range_is_the_far_limit():
    # (2*d/kappa)^2 overflows a float near |d| ~ 1e154*kappa; there the
    # Lorentzian is 0 and the dip 1, the limits of |d| -> inf
    cav, mode, g = _fig4_setup()
    far = 1e163
    drive = DriveCondition(p_in=1e-4, detuning=far)
    result = backaction_rate(cav, mode, g, drive)
    assert (result.gamma_ba, result.regime) == (0.0, "neutral")
    assert result.gamma_total == mode.gamma_m
    assert transmission_modulation(cav, g, 1.0 / g, far) == 0.0
    assert transmission_modulation(cav, g, far / g, 0.0) == 1.0
    assert transmission_modulation(cav, g, math.inf, 0.0) == 1.0


def test_depth_is_even_in_the_coupling_sign(rng):
    # d(t) = delta + g*a*cos(Om*t) covers delta +- |g|*a for either sign
    cav, _, g = _fig4_setup()
    for _ in range(200):
        delta = cav.kappa * rng.uniform(-2.0, 2.0)
        amplitude = cav.kappa * rng.uniform(0.0, 2.0) / g
        assert transmission_modulation(cav, -g, amplitude, delta) \
            == transmission_modulation(cav, g, amplitude, delta)
    assert transmission_modulation(cav, -g, cav.kappa / g, 0.1 * cav.kappa) \
        == 1.0
    assert transmission_modulation(cav, 0.0, math.inf, cav.kappa) == 0.0


@pytest.mark.parametrize("g, delta, name", [
    (math.nan, 0.0, "g"), (math.inf, 0.0, "g"), (-math.inf, 0.0, "g"),
    (1.0, math.nan, "delta"), (1.0, math.inf, "delta"),
])
def test_modulation_rejects_non_finite_arguments(g, delta, name):
    cav, _, g_ref = _fig4_setup()
    with pytest.raises(ValueError, match=f"require finite {name}, got"):
        transmission_modulation(cav, g * g_ref, 1e-12, delta)


@pytest.mark.parametrize("g", [math.nan, math.inf])
def test_backaction_rate_rejects_a_non_finite_coupling(g):
    cav, mode, _ = _fig4_setup()
    with pytest.raises(ValueError, match="require finite g, got"):
        backaction_rate(cav, mode, g, make_drive(detuning_hz=6e6))


def test_threshold_rejects_zero_coupling():
    cav, mode, _ = _fig4_setup()
    with pytest.raises(ValueError):
        threshold_power(cav, mode, 0.0)
