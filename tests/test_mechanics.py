import math
import re

import numpy as np
import pytest

from optomech import (
    DivergentMass,
    MechanicalMode,
    OutOfDomain,
    ProbeProfile,
    effective_mass,
    integrated_rms,
    mode_from_oscillator,
    mode_shape,
    resonance_grid,
    snr_requirement,
    string_mode_frequency,
    thermal_force_psd,
    thermal_rms,
    thermal_spectrum,
    zero_point,
)
from optomech import backaction, coupling, devices, mechanics, qba, \
    runner, scenarios, sensing
from optomech.quadrature import adaptive_quadrature
from optomech.units import HBAR, K_B, TWO_PI, SpectralDensity

from conftest import (HZ_PER_NM, OUTSIDE, adaptive_quadrature_reference,
                      approx_rel, make_cavity, make_drive, make_mode,
                      make_string, random_string, rng, resonance_grid_sorted,
                      susceptibility, thermal_spectrum_values)


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
    probe = ProbeProfile(l_y=0.0)
    approx_rel(effective_mass(osc, probe, 1), osc.physical_mass / 2.0, 1e-9)


def test_narrow_gaussian_approaches_point_probe_limit():
    osc = make_string()
    probe = ProbeProfile(l_y=osc.L * 1e-3)
    assert (math.pi * probe.l_y / osc.L) ** 2 < 1e-4
    approx_rel(effective_mass(osc, probe, 1), osc.physical_mass / 2.0, 1e-4)


@pytest.mark.parametrize("width", [1e-18, 1e-21, 1e-24])
@pytest.mark.parametrize("offset", [0.0, 0.1, -0.3])
def test_probe_below_the_string_resolution_is_a_point_probe(width, offset):
    # the quadrature, stopped at its depth limit, gave 0.031x the mass at
    # l_y = 1e-18*L, c = 0.1*L and 2.2e-4x at 1e-21*L centred, on n = 1
    osc = make_string()
    c = offset * osc.L
    probe = ProbeProfile(l_y=width * osc.L, center_offset=c)
    for n in (1, 2, 3):
        if c == 0.0 and n % 2 == 0:
            continue
        approx_rel(effective_mass(osc, probe, n),
                   0.5 * osc.physical_mass / mode_shape(osc, n, c) ** 2,
                   1e-12)


def test_quadrature_against_trapezoid_oracle(rng):
    for _ in range(20):
        osc = random_string(rng)
        l_y = rng.uniform(0.05, 0.6) * osc.L
        n = int(rng.integers(1, 6))
        probe = ProbeProfile(l_y=l_y)
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
    # closed form of a centred Gaussian probe on the fundamental:
    # m_eff/m = (1/2) * b / (int_{-pi/2}^{pi/2} cos(u) exp(-pi*u^2/b) du)^2
    # with b = (pi*l_y/L)^2, integrated here by a dense trapezoid rule
    osc = make_string(L=15e-6)
    l_y = 4.5e-6
    probe = ProbeProfile(l_y=l_y)
    ratio = effective_mass(osc, probe, 1) / osc.physical_mass
    b = (math.pi * l_y / osc.L) ** 2
    u = np.linspace(-math.pi / 2.0, math.pi / 2.0, 1_000_001)
    integral = np.trapezoid(np.cos(u) * np.exp(-math.pi * u * u / b), u)
    approx_rel(ratio, 0.5 * b / integral ** 2, 1e-9)


def test_effective_mass_grows_with_probe_width():
    osc = make_string()
    masses = [effective_mass(osc, ProbeProfile(l_y=l), 1)
              for l in (1e-6, 5e-6, 12e-6)]
    assert masses[0] < masses[1] < masses[2]
    assert masses[0] > osc.physical_mass / 2.0


def test_antisymmetric_mode_with_symmetric_probe_diverges():
    osc = make_string()
    probe = ProbeProfile(l_y=3e-6)
    parity = re.escape("(antisymmetric mode, symmetric probe)")
    with pytest.raises(DivergentMass, match=parity):
        effective_mass(osc, probe, 2)
    point = ProbeProfile(l_y=0.0)
    with pytest.raises(DivergentMass, match=parity):
        effective_mass(osc, point, 2)


def test_vanishing_overlap_gives_its_value_and_the_floor():
    # a symmetric mode under a probe 1e150 m wide: the overlap is about
    # 2*L/(pi*l_y), below the floor for a reason other than parity
    osc = make_string()
    probe = ProbeProfile(l_y=1e150)
    with pytest.raises(DivergentMass, match=re.escape(
            "e-155 is below the floor 1e-12 * sqrt(<u_n^2>) = 7.07107e-13")):
        effective_mass(osc, probe, 1)


def test_offset_delta_probe_raises_mass():
    osc = make_string()
    centered = effective_mass(osc, ProbeProfile(l_y=0.0), 1)
    off = effective_mass(
        osc, ProbeProfile(l_y=0.0, center_offset=osc.L / 4), 1)
    approx_rel(off, centered / math.cos(math.pi / 4) ** 2, 1e-12)


def _overlap_samples(osc, probe, n, points):
    """The overlap integrand u_n * v0^2 on an even grid over the string."""
    y = np.linspace(-osc.L / 2.0, osc.L / 2.0, points)
    arg = n * math.pi * y / osc.L
    u = np.cos(arg) if n % 2 == 1 else np.sin(arg)
    return y, u * np.exp(-math.pi * (y - probe.center_offset) ** 2
                         / probe.l_y ** 2) / probe.l_y


def _trapezoid_mass(osc, probe, n, points=200_001):
    """m*<u^2>/overlap^2 with the overlap from a dense trapezoid rule."""
    y, f = _overlap_samples(osc, probe, n, points)
    return 0.5 * osc.physical_mass / np.trapezoid(f, y) ** 2


def _simpson_mass(osc, probe, n, points=100_001):
    """m*<u^2>/overlap^2 with the overlap from composite Simpson on a fixed
    grid: its error is O(h^4), where the trapezoid rule's O(h^2) end
    terms reach 1e-8 for wide probes on high modes."""
    y, f = _overlap_samples(osc, probe, n, points)
    overlap = (y[1] - y[0]) / 3.0 * (f[0] + 4.0 * f[1:-1:2].sum()
                                     + 2.0 * f[2:-1:2].sum() + f[-1])
    return 0.5 * osc.physical_mass / overlap ** 2


# Over the whole string, adaptive Simpson would start from samples at
# y = 0, +/-L/4 and +/-L/2: for n = 4 all are zeros of sin(4*pi*y/L), and a
# probe 1e-3*L wide at 0.13*L is missed by all of them, so the overlap read
# 0. Integrated outwards from the probe centre, both are found.
@pytest.mark.parametrize("n, width, offset", [(4, 0.2, 0.13),
                                              (1, 1e-3, 0.13)])
def test_off_centre_probe_matches_trapezoid(n, width, offset):
    osc = make_string()
    probe = ProbeProfile(l_y=width * osc.L, center_offset=offset * osc.L)
    approx_rel(effective_mass(osc, probe, n),
               _trapezoid_mass(osc, probe, n), 1e-7)


def _closed_form_overlap(osc, probe, n):
    """The whole-line overlap of a Gaussian probe,
    trig(n*pi*c/L) * exp(-n^2*pi*l_y^2/(4*L^2)): the clamped overlap
    differs from it only by the probe's tail beyond +/- L/2."""
    L, c, l_y = osc.L, probe.center_offset, probe.l_y
    trig = math.cos if n % 2 == 1 else math.sin
    return (trig(n * math.pi * c / L)
            * math.exp(-n * n * math.pi * l_y ** 2 / (4.0 * L * L)))


def test_off_centre_probes_match_the_closed_form():
    # l_y log-uniform in [1e-3, 0.3]*L; |c| + 7*l_y <= L/2 puts the window
    # inside the string, where the overlap is the closed form's; below
    # |overlap| = 0.1, near a node, the rounding of the trig argument is
    # amplified; Simpson over the whole string read these up to 4.4e-13 off
    rng = np.random.default_rng(7)
    osc = make_string()
    L, checked = osc.L, 0
    while checked < 40:
        n = int(rng.integers(1, 13))
        l_y = L * 10.0 ** rng.uniform(-3.0, math.log10(0.3))
        c = rng.uniform(-0.5, 0.5) * L
        if c == 0.0 or abs(c) + 7.0 * l_y > L / 2.0:
            continue
        probe = ProbeProfile(l_y=l_y, center_offset=c)
        overlap = _closed_form_overlap(osc, probe, n)
        if abs(overlap) >= 1e-3:
            approx_rel(effective_mass(osc, probe, n),
                       _mpmath_mass(osc, probe, n),
                       1e-13 if abs(overlap) >= 0.1 else 3e-12)
            checked += 1


@pytest.mark.parametrize("end", [-0.5, 0.5])
def test_probe_centred_on_a_string_end(end):
    # half the probe lies on the string, where cos(pi*y/L) rises linearly
    # from the end: the clamped overlap is l_y/(2L) to O((pi*l_y/L)^2)
    osc = make_string()
    l_y = 1e-3 * osc.L
    probe = ProbeProfile(l_y=l_y, center_offset=end * osc.L)
    approx_rel(effective_mass(osc, probe, 1),
               0.5 * osc.physical_mass / (l_y / (2.0 * osc.L)) ** 2, 1e-3)


@pytest.fixture
def evaluation_limit(monkeypatch):
    """`mechanics.adaptive_quadrature`, counted as the benchmark tracer
    counts it (one scalar call per value), failing the test past 10 000
    values in one call rather than running on."""
    quadrature = mechanics.adaptive_quadrature

    def limited(f, a, b):
        count = 0

        def integrand(y):
            nonlocal count
            count += 1
            if count > 10_000:
                pytest.fail(f"over 10 000 integrand values on [{a!r}, {b!r}]")
            return f(y)
        return quadrature(integrand, a, b)
    monkeypatch.setattr(mechanics, "adaptive_quadrature", limited)


def test_no_probe_near_an_end_runs_away(evaluation_limit):
    # narrow probes on, just inside or just beyond an end: integrated over
    # the whole string, one took 37.8 M values (l_y = 1e-6*L, c = -L/2)
    osc = make_string()
    L = osc.L
    for l_y in (1e-6 * L, 1e-5 * L, 1e-4 * L, 1e-3 * L, 1e-2 * L):
        for depth in (0.0, 0.6 * l_y, -0.6 * l_y, -3.0 * l_y):
            for c in (L / 2.0 - depth, depth - L / 2.0):
                probe = ProbeProfile(l_y=l_y, center_offset=c)
                for n in range(1, 6):
                    try:
                        assert effective_mass(osc, probe, n) > 0.0
                    except DivergentMass:
                        pass


def test_windows_over_a_string_end_match_mpmath(evaluation_limit):
    # centres on the string within 8*l_y of an end, one in four on the end,
    # l_y log-uniform in [1e-6, 0.6]*L; no overlap of 1e-9 or more may
    # diverge: integrated from first samples on the mode's nodes (n = 4, a
    # wide probe on an end), an overlap of 0.25 read 1e-16
    rng = np.random.default_rng(36)
    for i in range(60):
        osc = make_string(L=rng.uniform(5e-6, 100e-6))
        L, n = osc.L, int(rng.integers(1, 10))
        l_y = L * 10.0 ** rng.uniform(-6.0, math.log10(0.6))
        inset = 0.0 if i % 4 == 0 else rng.uniform(0.0, min(8.0 * l_y, L))
        c = (L / 2.0 - inset) * rng.choice([-1.0, 1.0])
        probe = ProbeProfile(l_y=l_y, center_offset=c)
        overlap = _mpmath_overlap(osc, probe, n)
        if abs(overlap) < 1e-9:
            continue
        got = effective_mass(osc, probe, n)
        if abs(overlap) >= 1e-6:
            approx_rel(got, 0.5 * osc.physical_mass / overlap ** 2, 1e-8)


def test_susceptibility_peak_value():
    mode = make_mode()
    chi = susceptibility(mode, mode.omega_m)
    expected = 1.0 / (mode.m_eff * mode.omega_m * mode.gamma_m)
    approx_rel(abs(chi), expected, 1e-12)
    assert chi.imag > 0
    with pytest.raises(ValueError):
        susceptibility(mode, -1.0)


@pytest.mark.parametrize("T", [math.nan, -1.0])
@pytest.mark.parametrize("func", [
    thermal_force_psd, snr_requirement, thermal_rms,
    lambda mode, T: thermal_spectrum(mode, T, np.array([1e6, 2e6])),
])
def test_nan_and_negative_temperature_raise(func, T):
    with pytest.raises(ValueError) as info:
        func(make_mode(), T)
    assert str(info.value) == f"require finite T >= 0, got {T!r}"


_G = 3.8e6 * HZ_PER_NM


def _outside(name, bound):
    """(value, error, message) for NaN, both infinities and the nearest
    float outside `bound`, each rejected in a record field's form."""
    words, nearest = OUTSIDE[bound]
    return [(value, ValueError, f"require finite {name}{words}, got {value!r}")
            for value in (math.nan, math.inf, -math.inf, *nearest)]


# (id, call of the value, its cases): every argument with a bound, then
# mode_shape's coordinate and the one guard of another form left
_ARGUMENTS = [
    ("backaction_rate", lambda v: backaction.backaction_rate(
        make_cavity(), make_mode(), v, make_drive()), _outside("g", "Finite")),
    ("transmission_modulation", lambda v: backaction.transmission_modulation(
        make_cavity(), v, 1e-12, 0.0), _outside("g", "Finite")),
    ("transmission_modulation-delta",
     lambda v: backaction.transmission_modulation(make_cavity(), _G, 1e-12, v),
     _outside("delta", "Finite")),
    ("threshold_power", lambda v: backaction.threshold_power(
        make_cavity(), make_mode(), v), _outside("g", "Positive")),
    ("shot_noise_floor", lambda v: sensing.shot_noise_floor(
        make_cavity(), v, make_drive(), 1e6), _outside("g", "Positive")),
    ("shot_noise_floor-omega", lambda v: sensing.shot_noise_floor(
        make_cavity(), _G, make_drive(), v), _outside("omega", "Finite")),
    ("blue_detuned_rate", lambda v: backaction.blue_detuned_rate(
        make_cavity(), make_mode(), v, 65e-6), _outside("g", "Finite")),
    ("blue_detuned_rate-p_in", lambda v: backaction.blue_detuned_rate(
        make_cavity(), make_mode(), _G, v), _outside("p_in", "NonNegative")),
    ("response_coefficient-g_pump", lambda v: sensing.response_coefficient(
        make_cavity(), make_mode(), v, _G), _outside("g_pump", "Positive")),
    ("response_coefficient", lambda v: sensing.response_coefficient(
        make_cavity(), make_mode(), _G, v), _outside("g_probe", "Positive")),
    ("g_eff_from_a1", lambda v: sensing.g_eff_from_a1(
        make_cavity(), make_mode(), v), _outside("a1", "Positive")),
    ("noise_budget", lambda v: sensing.noise_budget(
        make_cavity(), make_mode(), _G, make_drive(),
        np.linspace(10e6, 11e6, 11), detector_floor=v),
     _outside("detector_floor", "NonNegative")),
    ("infer_stress", lambda v: devices.infer_stress(make_string(), v),
     _outside("measured_f1", "NonNegative")),
    ("index_for_decay_length-wavelength",
     lambda v: devices.index_for_decay_length(v, 235e-9),
     _outside("wavelength", "Positive")),
    ("index_for_decay_length",
     lambda v: devices.index_for_decay_length(1.55e-6, v),
     _outside("decay_length", "Positive")),
    ("from_quality_factor", lambda v: MechanicalMode.from_quality_factor(
        omega_m=1e6, Q=v, m_eff=1e-15), _outside("Q", "Positive")),
    ("thermal_force_psd", lambda v: thermal_force_psd(make_mode(), v),
     _outside("T", "NonNegative")),
    ("thermal_rms", lambda v: thermal_rms(make_mode(), v),
     _outside("T", "NonNegative")),
    ("snr_requirement", lambda v: snr_requirement(make_mode(), v),
     _outside("T", "NonNegative")),
    ("qba_force_psd", lambda v: qba.qba_force_psd(
        make_cavity(), v, make_drive(), 1e6), _outside("g", "Positive")),
    ("qba_force_psd-omega", lambda v: qba.qba_force_psd(
        make_cavity(), _G, make_drive(), v), _outside("omega", "Finite")),
    ("qba_thermal_ratio", lambda v: qba.qba_thermal_ratio(
        make_cavity(), make_mode(), v, make_drive()),
     _outside("g", "Positive")),
    ("standing_wave_shift", lambda v: coupling.standing_wave_shift(
        make_cavity(), v, -1e6), _outside("y", "Finite")),
    ("standing_wave_shift-mean_shift",
     lambda v: coupling.standing_wave_shift(make_cavity(), 0.0, v),
     _outside("mean_shift", "Finite")),
    # a coordinate, not an argument with a bound
    ("mode_shape", lambda v: mode_shape(make_string(), 1, v),
     [(v, OutOfDomain, f"|y| = {abs(v):g} exceeds L/2 = 1.25e-05")
      for v in (math.nan, math.inf, -math.inf)]),
    # amplitude = inf is the far limit, a depth of 0 or 1
    ("transmission_modulation-amplitude",
     lambda v: backaction.transmission_modulation(make_cavity(), _G, v, 0.0),
     [(v, ValueError, "require amplitude >= 0")
      for v in (math.nan, -math.inf, -5e-324)]),
]


@pytest.mark.parametrize("call, cases", [row[1:] for row in _ARGUMENTS],
                         ids=[row[0] for row in _ARGUMENTS])
def test_nan_argument_is_rejected_by_its_guard(call, cases):
    # NaN passes a guard written `x <= 0`, and inf one written `x > 0`;
    # `units.require` fails both, as a record field does
    for value, error, message in cases:
        with pytest.raises(error) as info:
            call(value)
        assert str(info.value) == message


def _array_calls():
    """name -> (call of an array, the name its message gives, a clean
    array, the call's value on it in the function's own operations)."""
    cav, mode, drive = make_cavity(), make_mode(), make_drive()
    kappa, om = cav.kappa, mode.omega_m
    x_zp, _ = zero_point(mode)
    shot = kappa / (4.0 * _G) * math.sqrt(HBAR * cav.omega0 / drive.p_in)

    def rate(g):
        return -((g * x_zp / kappa) ** 2 * drive.p_in / (HBAR * cav.omega0)
                 * 8.0 * (om / kappa) / (1.0 + 4.0 * om ** 4 / kappa ** 4))
    omega = TWO_PI * np.linspace(8e6, 12e6, 5)
    g = _G * np.linspace(0.2, 1.0, 5)
    return {
        "shot_noise_floor": (
            lambda v: sensing.shot_noise_floor(cav, _G, drive, v), "omega",
            omega, shot * np.sqrt(1.0 + (2.0 * omega / kappa) ** 2)),
        "blue_detuned_rate": (
            lambda v: backaction.blue_detuned_rate(cav, mode, v, drive.p_in),
            "g", g, rate(g)),
        "linewidth_vs_coupling": (
            lambda v: backaction.linewidth_vs_coupling(cav, mode, drive, v),
            "g", g, np.maximum(mode.gamma_m + rate(g), 0.0) / TWO_PI),
    }


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("func", ["shot_noise_floor", "blue_detuned_rate",
                                  "linewidth_vs_coupling"])
def test_array_argument_is_rejected_at_its_element_outside(func, value):
    # an array is held to its bound element by element, and the message
    # names the element, as it would a number
    call, name, clean, expected = _array_calls()[func]
    assert call(clean).tobytes() == expected.tobytes()
    bad = clean.copy()
    bad[3] = value
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == f"require finite {name}, got {value!r}"


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("func", [
    lambda osc, n: string_mode_frequency(osc, n),
    lambda osc, n: mode_shape(osc, n, 0.0),
    lambda osc, n: effective_mass(osc, ProbeProfile(l_y=0.2 * osc.L), n),
], ids=["string_mode_frequency", "mode_shape", "effective_mass"])
def test_mode_index_below_one_raises(func, n):
    # the parity of n picks the mode pattern, so n = -1 would pass for
    # mode 1 and n = 0 for an antisymmetric mode
    with pytest.raises(ValueError, match=rf"require mode index n >= 1, "
                                         rf"got {n}"):
        func(make_string(), n)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_probe_and_mode_raise(value):
    # with a NaN l_y every integrand value is NaN and the adaptive
    # quadrature would bisect to its maximum depth on every branch
    with pytest.raises(ValueError, match="finite l_y"):
        ProbeProfile(l_y=value)
    with pytest.raises(ValueError, match="finite m_eff"):
        MechanicalMode(omega_m=1.0, gamma_m=1.0, m_eff=value)


@pytest.mark.parametrize("Q", [0.0, -5.0, math.nan])
def test_mode_from_non_positive_quality_factor_raises(Q):
    # Q = 0 divided by zero, and Q = -5 blamed gamma_m
    with pytest.raises(ValueError) as info:
        MechanicalMode.from_quality_factor(omega_m=1e6, Q=Q, m_eff=1e-15)
    assert str(info.value) == f"require finite Q > 0, got {Q!r}"


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


@pytest.mark.parametrize("f_m, Q", [(10.74e6, 53000.0), (3.3e5, 1e7),
                                    (1e3, 2.0)])  # Q = 2: window capped
def test_resonance_grid_is_sorted_union(f_m, Q):
    mode = make_mode(f_m=f_m, Q=Q)
    grid = resonance_grid(mode)
    assert np.array_equal(grid, resonance_grid_sorted(mode))
    assert grid.dtype == np.float64


def test_spectrum_path_matches_the_oracles_bit_for_bit():
    # seeded modes over every regime of the window: capped at f_m/2 with
    # up to ~240 log points inside it (Q < 4000), a few inside it, and none
    # (Q above ~1e6); the first three are the sorted-union test's cases
    rng = np.random.default_rng(2025)
    draws = [(10.74e6, 53000.0, 300.0), (3.3e5, 1e7, 300.0), (1e3, 2.0, 300.0)]
    draws += [(10 ** rng.uniform(2.0, 9.0),
               10 ** rng.uniform(math.log10(1.5), 9.0),
               rng.uniform(0.0, 1000.0)) for _ in range(300)]
    inside = set()
    for k, (f_m, Q, T) in enumerate(draws):
        mode = make_mode(f_m=f_m, Q=Q, m_eff=10 ** rng.uniform(-18.0, -9.0))
        grid = resonance_grid(mode)
        assert grid.dtype == np.float64
        assert grid.tobytes() == resonance_grid_sorted(mode).tobytes(), \
            (f_m, Q)
        f_m, gamma_hz = mode.omega_m / TWO_PI, mode.gamma_m / TWO_PI
        half_window = min(2000.0 * gamma_hz, 0.5 * f_m)
        window = (grid >= f_m - half_window) & (grid <= f_m + half_window)
        inside.add(int(np.count_nonzero(window)) - 40001)
        grids = [grid]
        if k % 3 == 0:      # and a linear grid across the peak
            grids.append(np.linspace(0.5 * f_m, 1.5 * f_m,
                                     int(rng.integers(10_000, 100_001))))
        for f in grids:
            assert thermal_spectrum(mode, T, f).values.tobytes() \
                == thermal_spectrum_values(mode, T, f).tobytes(), (f_m, Q, T)
    # log points merged into the window: none, a few, and over 200
    assert 0 in inside and max(inside) > 200
    assert any(0 < n < 50 for n in inside)


def test_thermal_spectrum_rejects_a_scalar_grid():
    with pytest.raises(ValueError, match="1-D"):
        thermal_spectrum(make_mode(), 300.0, 10.74e6)


def test_integrated_rms_rejects_double_sided():
    f = np.linspace(1e6, 2e6, 10)
    s = SpectralDensity(f, np.ones_like(f), "double")
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
    probe = ProbeProfile(l_y=4.5e-6)
    mode = mode_from_oscillator(osc, probe, 1)
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


def _counted(f):
    calls = []

    def counted(y):
        calls.append(y)
        return f(y)
    return counted, calls


def _effective_mass_integrals(draws):
    """(f, a, b) of each quadrature that `effective_mass` runs, for probes
    drawn as `test_effective_mass_matches_the_oracles` draws them: both
    halves of the split at the probe centre."""
    rng, integrals = np.random.default_rng(19), []

    def recorded(f, a, b):
        integrals.append((f, a, b))
        return adaptive_quadrature(f, a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanics, "adaptive_quadrature", recorded)
        for i in range(draws):
            osc = make_string(L=rng.uniform(5e-6, 100e-6))
            n = int(rng.integers(1, 10))
            offset = 0.0 if i % 2 == 0 else rng.uniform(-0.45, 0.45) * osc.L
            probe = ProbeProfile(l_y=rng.uniform(0.005, 0.6) * osc.L,
                                 center_offset=offset)
            try:
                effective_mass(osc, probe, n)
            except DivergentMass:
                pass
    return integrals


def test_adaptive_quadrature_matches_its_oracle_bit_for_bit():
    # the written-out Simpson step against the helper-and-max form: the
    # same double and the same integrand values, in the same order
    integrals = _effective_mass_integrals(100)
    rng = np.random.default_rng(27)
    smooth = [math.sin, lambda x: math.exp(-x * x), lambda x: 0.0,
              lambda x: 3.0 * x - 1.0, lambda x: x * x - 0.5 * x,
              lambda x: 2.0 * x ** 3 - x]

    def lorentzian(x):     # narrow: ~1e4 values where 0 is inside
        return 1e-6 / (x * x + 1e-12)
    for i in range(200):
        a, b = sorted(rng.uniform(-4.0, 4.0, 2))
        if i % 3 == 1:
            a, b = b, a
        elif i % 10 == 0:
            b = a
        f = lorentzian if i % 25 == 3 else smooth[i % len(smooth)]
        integrals.append((f, a, b))
    assert len(integrals) >= 300
    for f, a, b in integrals:
        got_f, got_calls = _counted(f)
        want_f, want_calls = _counted(f)
        got = adaptive_quadrature(got_f, a, b)
        want = adaptive_quadrature_reference(want_f, a, b)
        assert got.hex() == want.hex(), (a, b)   # signed zeros included
        assert got_calls == want_calls, (a, b)


def _reference_mass(osc, probe, n):
    """The effective mass by the earlier rule: one adaptive Simpson
    integral over the whole string, through `mode_shape` and the probe's
    density."""
    c, l_y = probe.center_offset, probe.l_y

    def integrand(y):
        u = y - c
        return mode_shape(osc, n, y) * (math.exp(-math.pi * u * u
                                                 / (l_y ** 2)) / l_y)
    overlap = adaptive_quadrature(integrand, -osc.L / 2.0, osc.L / 2.0)
    if abs(overlap) < 1e-12 * math.sqrt(0.5):
        raise DivergentMass("probe overlap vanishes")
    return osc.physical_mass * 0.5 / overlap ** 2


def _outcome(mass, *args):
    try:
        return mass(*args)
    except Exception as exc:    # the type must match, not the message
        return type(exc)


def _kind(outcome):
    return float if isinstance(outcome, float) else outcome


def test_effective_mass_matches_the_oracles():
    rng = np.random.default_rng(19)
    outcomes = set()
    for i in range(320):
        osc = make_string(L=rng.uniform(5e-6, 100e-6))
        n = int(rng.integers(1, 10))
        offset = 0.0 if i % 2 == 0 else rng.uniform(-0.45, 0.45) * osc.L
        probe = ProbeProfile(l_y=rng.uniform(0.005, 0.6) * osc.L,
                             center_offset=offset)
        got = _outcome(effective_mass, osc, probe, n)
        outcomes.add(_kind(got))
        if offset == 0.0:   # the earlier rule diverges for the same probes
            assert _kind(got) == _kind(
                _outcome(_reference_mass, osc, probe, n)), (i, n)
        if got is DivergentMass:
            assert offset == 0.0 and n % 2 == 0, (i, n)
            continue
        if abs(offset) + 7.0 * probe.l_y <= osc.L / 2.0:
            expected = (0.5 * osc.physical_mass
                        / _closed_form_overlap(osc, probe, n) ** 2)
        else:
            expected = _simpson_mass(osc, probe, n)
        approx_rel(got, expected, 1e-8)
    assert outcomes == {float, DivergentMass}


def _mpmath_overlap(osc, probe, n):
    """The overlap int u_n * v0^2 dy from `mpmath.quad` at 30 digits, in
    x = y/L, over the whole string."""
    import mpmath       # a test dependency: the arbitrary-precision oracle
    with mpmath.workdps(30):
        L = mpmath.mpf(osc.L)
        c, w = mpmath.mpf(probe.center_offset) / L, mpmath.mpf(probe.l_y) / L
        trig = mpmath.cos if n % 2 == 1 else mpmath.sin

        def integrand(x):
            return trig(n * mpmath.pi * x) * mpmath.exp(
                -mpmath.pi * (x - c) ** 2 / w ** 2) / w
        # split at the probe centre and its window's ends c +- 7*l_y, where
        # they lie on the string, so that the rule resolves a narrow probe
        inner = [x for x in (c - 7 * w, c, c + 7 * w) if -0.5 < x < 0.5]
        return float(mpmath.quad(integrand, [-0.5, *inner, 0.5]))


def _mpmath_mass(osc, probe, n):
    """m*<u^2>/overlap^2 with the overlap from `_mpmath_overlap`."""
    return 0.5 * osc.physical_mass / _mpmath_overlap(osc, probe, n) ** 2


def test_effective_mass_matches_mpmath():
    # six centred probes and two off-centre ones; a high mode under a wide
    # probe, or a probe near a node, cancels in the overlap (here below
    # 0.1 of the peak), and the 1e-10 tolerance then no longer keeps the
    # mass within 1e-12 (n = 5 under l_y = 0.48*L reads 3.1e-12)
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 8:
        osc = make_string(L=rng.uniform(5e-6, 100e-6))
        n = int(rng.choice([1, 3, 5]))
        offset = 0.0 if checked < 6 else rng.uniform(-0.3, 0.3) * osc.L
        probe = ProbeProfile(l_y=rng.uniform(0.02, 0.5) * osc.L,
                             center_offset=offset)
        if abs(_closed_form_overlap(osc, probe, n)) < 0.1:
            continue
        approx_rel(effective_mass(osc, probe, n),
                   _mpmath_mass(osc, probe, n), 1e-12)
        checked += 1


def _bundled_string():
    cfg = runner._check(scenarios.get_scenario("paper_si_horizontal_g"),
                        runner.SCHEMA, "$")
    return (runner.build_oscillator(cfg),
            runner._probe(runner.build_cavity(cfg)))


@pytest.mark.parametrize("n, evals", [(1, 1589), (3, 1761), (5, 1969)])
def test_effective_mass_integrand_count(n, evals, monkeypatch):
    # counted as the benchmark tracer counts: one scalar call per value
    osc, probe = _bundled_string()
    quadrature, calls = mechanics.adaptive_quadrature, []

    def counted(f, a, b):
        def integrand(y):
            calls.append(y)
            return f(y)
        return quadrature(integrand, a, b)
    monkeypatch.setattr(mechanics, "adaptive_quadrature", counted)
    approx_rel(effective_mass(osc, probe, n), _simpson_mass(osc, probe, n),
               1e-8)
    assert len(calls) == evals
