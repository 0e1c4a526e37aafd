import csv
import math

import numpy as np
import pytest

from optomech import (
    CouplingGeometry,
    NanoOscillator,
    GeometryMismatch,
    IllConditioned,
    ShiftCurve,
    coupling_rate,
    coupling_ratio_hv,
    decay_constant,
    fit_exponential,
    frequency_shift,
    mode_volume,
    numeric_g_check,
    sampling_lengths,
    standing_wave_period,
    standing_wave_shift,
    thin_film_shift,
)
from optomech import coupling
from optomech.units import TWO_PI

from conftest import approx_rel, make_cavity, make_string, random_cavity, \
    random_string, rng


def _oracle_shift(cav, osc, orientation, x0):
    # independent re-derivation: perturbative dielectric shift of the
    # sampled mode volume fraction
    alpha = 2.0 * math.pi * math.sqrt(cav.n ** 2 - 1.0) / cav.wavelength
    l_x = math.sqrt(math.pi * cav.r / alpha)
    l_y = math.sqrt(math.pi * cav.R / alpha)
    area = {"horizontal": osc.w * l_y, "vertical": osc.w * l_x,
            "sheet": l_x * l_y}[orientation]
    v_cav = 2.0 * math.pi * cav.R * math.pi * (cav.D_mode / 2.0) ** 2
    thick = (1.0 - math.exp(-2.0 * alpha * osc.t)) / (2.0 * alpha)
    return -(cav.omega0 / 2.0) * (area / v_cav) * thick \
        * (osc.n_nano ** 2 - 1.0) * cav.xi ** 2 * math.exp(-2.0 * alpha * x0)


@pytest.mark.parametrize("orientation", ["horizontal", "vertical", "sheet"])
def test_frequency_shift_matches_oracle(orientation):
    cav = make_cavity()
    osc = make_string(kind="sheet" if orientation == "sheet" else "string")
    for x0 in (0.0, 50e-9, 300e-9):
        geom = CouplingGeometry(x0=x0, orientation=orientation)
        approx_rel(frequency_shift(cav, osc, geom),
                   _oracle_shift(cav, osc, orientation, x0), 1e-13)


def test_shift_is_negative_and_decays():
    cav = make_cavity()
    osc = make_string()
    shifts = [frequency_shift(cav, osc, CouplingGeometry(x, "horizontal"))
              for x in (0.0, 100e-9, 200e-9)]
    assert all(s < 0 for s in shifts)
    assert abs(shifts[0]) > abs(shifts[1]) > abs(shifts[2])


def test_coupling_rate_is_two_alpha_times_shift():
    cav = make_cavity()
    osc = make_string()
    geom = CouplingGeometry(120e-9, "horizontal")
    alpha = decay_constant(cav)
    g = coupling_rate(cav, osc, geom)
    approx_rel(g, 2.0 * alpha * abs(frequency_shift(cav, osc, geom)), 1e-14)


def test_thin_film_limit():
    cav = make_cavity()
    thin = make_string(t=1e-9)
    geom = CouplingGeometry(0.0, "horizontal")
    full = frequency_shift(cav, thin, geom)
    approx = thin_film_shift(cav, thin, geom)
    approx_rel(full, approx, 5e-3)
    assert abs(approx) >= abs(full)


def test_hv_ratio_is_sqrt_radius_ratio():
    cav = make_cavity()
    assert coupling_ratio_hv(cav) == pytest.approx(math.sqrt(10.0),
                                                   rel=1e-14)
    geom_h = CouplingGeometry(0.0, "horizontal")
    geom_v = CouplingGeometry(0.0, "vertical")
    osc = make_string()
    g_h = coupling_rate(cav, osc, geom_h)
    g_v = coupling_rate(cav, osc, geom_v)
    approx_rel(g_h / g_v, coupling_ratio_hv(cav), 1e-12)


def test_finite_difference_gradient(rng):
    for _ in range(100):
        cav = random_cavity(rng)
        osc = random_string(rng)
        orientation = str(rng.choice(["horizontal", "vertical", "sheet"]))
        if orientation == "sheet":
            osc = NanoOscillator(**{**osc.__dict__, "kind": "sheet"})
        alpha = decay_constant(cav)
        geom = CouplingGeometry(rng.uniform(0.0, 2.0 / alpha), orientation)
        h = rng.uniform(0.002, 0.005) / alpha
        assert numeric_g_check(cav, osc, geom, h) < 1e-4


def test_finite_difference_step_validation():
    cav = make_cavity()
    osc = make_string()
    geom = CouplingGeometry(0.0, "horizontal")
    alpha = decay_constant(cav)
    with pytest.raises(ValueError):
        numeric_g_check(cav, osc, geom, 0.0)
    with pytest.raises(ValueError):
        numeric_g_check(cav, osc, geom, 1.0 / alpha)


def test_geometry_mismatch_for_unknown_sampling():
    cav = make_cavity()
    sheet = make_string(kind="sheet")
    geom = CouplingGeometry(0.0, "horizontal")
    with pytest.raises(GeometryMismatch):
        frequency_shift(cav, sheet, geom)


def _model_curve(amplitude, ell, x):
    return ShiftCurve(tuple((float(xi), -amplitude * math.exp(-xi / ell))
                            for xi in x))


def test_exponential_fit_noiseless_round_trip():
    x = np.linspace(0.0, 500e-9, 25)
    curve = _model_curve(TWO_PI * 5e9, 110e-9, x)
    fit = fit_exponential(curve)
    approx_rel(fit.decay_length, 110e-9, 1e-3)
    approx_rel(fit.amplitude, TWO_PI * 5e9, 1e-3)
    assert fit.residual_norm < 1e-6 * TWO_PI * 5e9


def test_exponential_fit_two_points_exact():
    curve = _model_curve(TWO_PI * 5e9, 110e-9, [0.0, 200e-9])
    fit = fit_exponential(curve)
    approx_rel(fit.decay_length, 110e-9, 1e-9)


def test_exponential_fit_with_noise(rng):
    x = np.linspace(0.0, 500e-9, 40)
    amplitude, ell = TWO_PI * 5e9, 110e-9
    worst = 0.0
    for _ in range(20):
        noisy = tuple(
            (float(xi), -amplitude * math.exp(-xi / ell)
             * (1.0 + 0.01 * rng.standard_normal()))
            for xi in x)
        fit = fit_exponential(ShiftCurve(noisy))
        worst = max(worst, abs(fit.decay_length - ell) / ell)
    assert worst < 0.05


def test_fit_requires_two_points():
    with pytest.raises(IllConditioned):
        fit_exponential(ShiftCurve(((0.0, -1.0),)))


def test_fit_rejects_growing_magnitudes():
    curve = ShiftCurve(((0.0, -1.0), (1e-7, -2.0), (2e-7, -4.0)))
    with pytest.raises(IllConditioned):
        fit_exponential(curve)


def test_unconverged_exponential_fit_raises(monkeypatch, rng):
    least_squares = coupling.least_squares
    monkeypatch.setattr(coupling, "least_squares", lambda *args, **kw:
                        least_squares(*args, **dict(kw, max_nfev=1)))
    x = np.linspace(0.0, 500e-9, 40)
    noisy = tuple((float(xi), -TWO_PI * 5e9 * math.exp(-xi / 110e-9)
                   * (1.0 + 0.01 * rng.standard_normal())) for xi in x)
    with pytest.raises(IllConditioned, match="did not converge"):
        fit_exponential(ShiftCurve(noisy))


def test_shift_curve_validation():
    with pytest.raises(ValueError):
        ShiftCurve(((0.0, -1.0), (0.0, -2.0)))
    with pytest.raises(ValueError):
        ShiftCurve(((0.0, 1.0),))


def test_shift_curve_csv_round_trip(tmp_path):
    path = tmp_path / "shift.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0_m", "dfreq_hz"])
        for x in np.linspace(0.0, 400e-9, 12):
            writer.writerow([repr(float(x)), repr(-5e9 * math.exp(-x / 110e-9))])
    curve = ShiftCurve.from_csv(path)
    fit = fit_exponential(curve)
    approx_rel(fit.decay_length, 110e-9, 1e-6)
    approx_rel(fit.amplitude, TWO_PI * 5e9, 1e-6)


def test_standing_wave_period():
    cav = make_cavity(n=1.5)
    approx_rel(standing_wave_period(cav), 1.55e-6 / 3.0, 1e-14)


def test_standing_wave_antinode_and_node():
    cav = make_cavity()
    mean = TWO_PI * 1e9
    at_antinode = standing_wave_shift(cav, 0.0, mean, branch=+1)
    assert at_antinode.shift == pytest.approx(mean, rel=1e-14)
    assert at_antinode.g1 == 0.0
    assert at_antinode.g2 < 0
    other = standing_wave_shift(cav, 0.0, mean, branch=-1)
    assert other.shift == 0.0
    assert other.g2 > 0
    # the two branches tile the full splitting
    y = 123e-9
    total = standing_wave_shift(cav, y, mean, +1).shift \
        + standing_wave_shift(cav, y, mean, -1).shift
    assert total == pytest.approx(mean, rel=1e-12)


def test_standing_wave_derivatives_match_finite_differences():
    cav = make_cavity()
    mean = TWO_PI * 1e9
    h = 1e-12
    for y in (0.0, 80e-9, 200e-9):
        lo = standing_wave_shift(cav, y - h, mean).shift
        mid = standing_wave_shift(cav, y, mean)
        hi = standing_wave_shift(cav, y + h, mean).shift
        g1_fd = (hi - lo) / (2.0 * h)
        g2_fd = (hi - 2.0 * mid.shift + lo) / h ** 2
        assert g1_fd == pytest.approx(mid.g1, rel=1e-4, abs=mean * 1e-3)
        assert g2_fd == pytest.approx(mid.g2, rel=1e-3)


def test_standing_wave_branch_validation():
    with pytest.raises(ValueError):
        standing_wave_shift(make_cavity(), 0.0, 1.0, branch=0)
