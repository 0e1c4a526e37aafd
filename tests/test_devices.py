import math

import pytest

from optomech import (
    CouplingGeometry,
    Microcavity,
    NanoOscillator,
    NonEvanescent,
    NotAString,
    coupling_rate,
    decay_constant,
    finesse,
    frequency_shift,
    index_for_decay_length,
    infer_stress,
    mode_volume,
    sampling_lengths,
    string_mode_frequency,
)
from optomech.units import C_LIGHT, TWO_PI

from conftest import approx_rel, make_cavity, make_string


def test_decay_constant_matches_direct_arithmetic():
    cav = make_cavity()
    # alpha = 2*pi*sqrt(n^2-1)/lambda, written out independently
    expected = 2.0 * math.pi * math.sqrt(1.45 ** 2 - 1.0) / 1.55e-6
    approx_rel(decay_constant(cav), expected, 1e-14)


def test_field_and_intensity_decay_lengths():
    alpha = decay_constant(make_cavity())
    assert 1.0 / alpha == pytest.approx(235e-9, abs=1e-9)
    assert 1.0 / (2.0 * alpha) == pytest.approx(117.5e-9, abs=0.5e-9)


def test_non_evanescent_index_rejected():
    with pytest.raises(NonEvanescent):
        decay_constant(make_cavity(n=1.0))


def test_index_for_decay_length_inverts_decay_constant():
    n = index_for_decay_length(1.55e-6, 220e-9)
    cav = make_cavity(n=n)
    approx_rel(1.0 / decay_constant(cav), 220e-9, 1e-12)


def test_mode_volume_is_torus_of_mode_area():
    cav = make_cavity()
    expected = (2.0 * math.pi * 30e-6) * math.pi * (3.5e-6 / 2.0) ** 2
    approx_rel(mode_volume(cav), expected, 1e-14)
    approx_rel(cav.mode_area, math.pi * (3.5e-6 / 2.0) ** 2, 1e-14)


def test_finesse_is_fsr_over_linewidth():
    cav = make_cavity()
    expected = C_LIGHT / (1.44 * 30e-6 * TWO_PI * 4.9e6)
    approx_rel(finesse(cav), expected, 1e-14)


def test_sampling_lengths_scale_with_radii():
    cav = make_cavity()
    alpha = decay_constant(cav)
    l_x, l_y = sampling_lengths(cav)
    approx_rel(l_x, math.sqrt(math.pi * 3e-6 / alpha), 1e-14)
    approx_rel(l_y, math.sqrt(math.pi * 30e-6 / alpha), 1e-14)
    assert l_y / l_x == pytest.approx(math.sqrt(10.0), rel=1e-12)


def test_string_mode_frequency_direct_arithmetic():
    osc = make_string()
    expected_f1 = (1.0 / (2.0 * 25e-6)) * math.sqrt(0.9e9 / 3100.0)
    approx_rel(string_mode_frequency(osc, 1), expected_f1, 1e-14)
    approx_rel(string_mode_frequency(osc, 3), 3.0 * expected_f1, 1e-14)


def test_string_frequency_rejected_for_sheets():
    sheet = make_string(kind="sheet")
    with pytest.raises(NotAString):
        string_mode_frequency(sheet, 1)


def test_stress_inversion_round_trip():
    osc = make_string()
    f1 = string_mode_frequency(osc, 1)
    approx_rel(infer_stress(osc, f1), 0.9e9, 1e-12)


def test_physical_mass():
    osc = make_string()
    approx_rel(osc.physical_mass, 3100.0 * 25e-6 * 800e-9 * 110e-9, 1e-14)


@pytest.mark.parametrize("bad", [
    dict(R=-1e-6), dict(r=0.0), dict(wavelength=0.0), dict(kappa=-1.0),
    dict(D_mode=0.0), dict(xi=0.0), dict(xi=1.5), dict(n_eff=0.0),
    dict(kappa=math.nan), dict(n2=math.inf),
])
def test_cavity_invariants(bad):
    with pytest.raises(ValueError):
        make_cavity(**bad)


@pytest.mark.parametrize("bad", [
    dict(L=0.0), dict(w=-1e-9), dict(rho=0.0), dict(stress=-1.0),
    dict(Q=0.0), dict(kind="drum"),
    dict(stress=math.inf), dict(n_nano=math.nan),
])
def test_oscillator_invariants(bad):
    with pytest.raises(ValueError):
        make_string(**bad)


def test_oscillator_index_below_one_rejected():
    # a blue shift and g < 0 against the red shift coupling promises
    with pytest.raises(ValueError, match="require n_nano >= 1"):
        make_string(n_nano=1.0 - 1e-15)
    geom = CouplingGeometry(300e-9, "horizontal")
    osc = make_string(n_nano=1.0)   # index matched to vacuum: no coupling
    assert frequency_shift(make_cavity(), osc, geom) == 0.0
    assert coupling_rate(make_cavity(), osc, geom) == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_geometry_rejects_non_finite_x0(value):
    with pytest.raises(ValueError, match="finite x0"):
        CouplingGeometry(value, "horizontal")
