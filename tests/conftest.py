"""Shared builders for the test suite."""

import math
import warnings

import numpy as np
import pytest

from optomech import (
    CouplingGeometry,
    DriveCondition,
    MechanicalMode,
    Microcavity,
    NanoOscillator,
    coupling_rate,
    decay_constant,
    response_coefficient,
    response_model,
)
from optomech.coupling import _shift_magnitude
from optomech.units import C_LIGHT, HBAR, K_B, TWO_PI, SpectralDensity

HZ_PER_NM = TWO_PI * 1e9


# each bound's words in `require finite x > 0, got -1.0`, and the nearest
# floats outside it besides NaN and both infinities
OUTSIDE = {"Finite": ("", ()), "Positive": (" > 0", (0.0,)),
           "NonNegative": (" >= 0", (-5e-324,))}


def make_cavity(**overrides) -> Microcavity:
    params = dict(
        R=30e-6,
        r=3e-6,
        wavelength=1.55e-6,
        n=1.45,
        n_eff=1.44,
        kappa=TWO_PI * 4.9e6,
        D_mode=3.5e-6,
        xi=0.4,
    )
    params.update(overrides)
    return Microcavity(**params)


def make_string(**overrides) -> NanoOscillator:
    params = dict(
        kind="string",
        L=25e-6,
        w=800e-9,
        t=110e-9,
        rho=3100.0,
        stress=0.9e9,
        n_nano=2.05,
        Q=53000.0,
    )
    params.update(overrides)
    return NanoOscillator(**params)


def make_mode(f_m=10.74e6, Q=53000.0, m_eff=3.6e-15) -> MechanicalMode:
    return MechanicalMode.from_quality_factor(
        omega_m=TWO_PI * f_m, Q=Q, m_eff=m_eff)


def make_drive(p_in=65e-6, detuning_hz=0.0, temperature=300.0,
               readout="homodyne") -> DriveCondition:
    return DriveCondition(p_in=p_in, detuning=TWO_PI * detuning_hz,
                          temperature=temperature, readout=readout)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_cavity(rng) -> Microcavity:
    minor = rng.uniform(1.5e-6, 6e-6)
    return Microcavity(
        R=rng.uniform(15e-6, 60e-6),
        r=minor,
        wavelength=rng.uniform(0.7e-6, 1.6e-6),
        n=rng.uniform(1.3, 2.2),
        n_eff=rng.uniform(1.2, 1.6),
        kappa=TWO_PI * rng.uniform(1e6, 200e6),
        D_mode=rng.uniform(0.5, 0.9) * 2.0 * minor,
        xi=rng.uniform(0.2, 0.8),
    )


def random_string(rng) -> NanoOscillator:
    return NanoOscillator(
        kind="string",
        L=rng.uniform(10e-6, 50e-6),
        w=rng.uniform(0.3e-6, 1.5e-6),
        t=rng.uniform(30e-9, 200e-9),
        rho=rng.uniform(2000.0, 4000.0),
        stress=rng.uniform(0.1e9, 1.5e9),
        n_nano=rng.uniform(1.5, 2.5),
        Q=rng.uniform(1e4, 1e6),
    )


# Independent oracles: each states a quantity another way than the library
# does, so a test can hold the library to it.

# reference set of the QBA scaling form, that of `paper_eq26_unity_ratio`:
# g/2pi = 20 MHz/nm, kappa/2pi = 4 MHz, m_eff = 15 pg, Q = 1e6,
# Omega_m/2pi = 1 MHz, P = 100 uW, lambda = 780 nm, T = 300 K
QBA_REF = {
    "g": 2.0 * math.pi * 20e6 / 1e-9,
    "kappa": 2.0 * math.pi * 4e6,
    "m_eff": 15e-15,
    "Q": 1e6,
    "omega_m": 2.0 * math.pi * 1e6,
    "p_in": 100e-6,
    "wavelength": 780e-9,
    "T": 300.0,
}


def qba_reference_records():
    """(cavity, mode, g, drive) of `QBA_REF`, the arguments of
    `qba_thermal_ratio`."""
    ref = QBA_REF
    return (make_cavity(kappa=ref["kappa"], wavelength=ref["wavelength"]),
            MechanicalMode.from_quality_factor(ref["omega_m"], ref["Q"],
                                               ref["m_eff"]),
            ref["g"], DriveCondition(p_in=ref["p_in"], temperature=ref["T"]))


def qba_thermal_ratio_scaling(g, kappa, m_eff, Q, omega_m, p_in, wavelength,
                              T):
    """QBA-to-thermal ratio in the scaling parameters,

    hbar*Q*g^2*P_in*lambda / (m_eff*Om*kappa^2*k_B*T*2pi*c)
    * 4/(1 + 4*Om^2/kappa^2);

    algebraically identical to `qba_thermal_ratio` at the mechanical
    resonance.
    """
    lorentz = 4.0 / (1.0 + 4.0 * omega_m ** 2 / kappa ** 2)
    return (HBAR * Q * g ** 2 * p_in * wavelength
            / (m_eff * omega_m * kappa ** 2 * K_B * T * TWO_PI * C_LIGHT)
            * lorentz)


def response_magnitude(cav, mode, g_pump, g_probe, omega):
    """Normalized response |dw_tot/dw_Kerr| at angular frequencies omega."""
    a1 = response_coefficient(cav, mode, g_pump, g_probe)
    return response_model(omega, a1, mode.omega_m, mode.gamma_m)


def g_central_difference_error(cav, osc, geom, h):
    """Relative error of the closed-form g against a central difference of
    the shift magnitude at x0 +- h, with h in (0, 1/(10*alpha)) so the
    stencil stays in the exponential regime."""
    assert 0 < h < 1.0 / (10.0 * decay_constant(cav))
    lo = _shift_magnitude(cav, osc, geom, geom.x0 - h)
    hi = _shift_magnitude(cav, osc, geom, geom.x0 + h)
    g_fd = (lo - hi) / (2.0 * h)
    g = coupling_rate(cav, osc, geom)
    return abs(g_fd - g) / g


def resonance_grid_sorted(mode):
    """`resonance_grid` as the sorted union of its two grids: the log grid
    and the window's linear grid, concatenated, sorted and stripped of
    repeats."""
    f_m, gamma_hz = mode.omega_m / TWO_PI, mode.gamma_m / TWO_PI
    broad = np.logspace(math.log10(f_m) - 2.0, math.log10(f_m) + 2.0, 2000)
    half_window = min(2000.0 * gamma_hz, 0.5 * f_m)
    assert f_m - half_window > broad[0]     # the window starts inside broad
    narrow = np.linspace(f_m - half_window, f_m + half_window, 40001)
    grid = np.concatenate([broad, narrow])
    grid.sort()
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def thermal_spectrum_values(mode, T, grid_hz):
    """`thermal_spectrum`'s values as one expression of 4*m*G*k_B*T*|chi|^2
    over the Hz grid."""
    omega = TWO_PI * np.asarray(grid_hz, dtype=float)
    chi_sq = 1.0 / (mode.m_eff ** 2
                    * ((mode.omega_m ** 2 - omega ** 2) ** 2
                       + (omega * mode.gamma_m) ** 2))
    return 4.0 * mode.m_eff * mode.gamma_m * K_B * T * chi_sq


def susceptibility(mode, omega):
    """Mechanical susceptibility chi_m = 1/(m_eff*(Om^2 - O^2 - i*O*G))
    (m/N) at one angular frequency omega >= 0, as a Python complex."""
    if omega < 0:
        raise ValueError("require omega >= 0")
    return 1.0 / (mode.m_eff * (mode.omega_m ** 2 - omega ** 2
                                - 1j * omega * mode.gamma_m))


def to_sidedness(s, target):
    """`s` in the single- or double-sided convention (factor 2)."""
    if target not in ("single", "double"):
        raise ValueError(f"unknown sidedness {target!r}")
    if s.sidedness == target:
        return s
    factor = 2.0 if target == "single" else 0.5
    return SpectralDensity(s.frequencies, s.values * factor, target)


# The spellings that the shared forms replaced, kept to hold them to their
# old bits: the complex mechanical denominator of `response_model` and
# `response_jacobian`, and the cavity line 1 + (2*O/kappa)^2 as
# `shot_noise_floor`, `qba_force_psd` and `backaction` wrote it.

def denominator_complex(omega, omega_m, gamma_m):
    """D = Om^2 - O^2 - i*O*Gm as a new complex array."""
    omega = np.asarray(omega, dtype=float)
    d = np.empty(omega.shape, dtype=complex)
    np.subtract(omega_m ** 2, omega ** 2, out=d.real)
    np.multiply(omega, -gamma_m, out=d.imag)
    return d


def line_shot(omega, kappa):
    return 1.0 + (2.0 * omega / kappa) ** 2


def line_qba(omega, kappa):
    return 1.0 + 4.0 * omega ** 2 / kappa ** 2


def line_backaction(d, kappa):
    return 1.0 + 4.0 * d * d / (kappa * kappa)


# `adaptive_quadrature` as it was written with a Simpson helper and `max`,
# kept to hold the written-out step to its old bits and integrand count.

def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_quadrature_reference(f, a, b):
    """Adaptive Simpson over [a, b] at 1e-10 relative, 1e-14 absolute."""
    if b == a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _refine_reference(f, a, b, fa, fm, fb, whole, 1e-14, 60)


def _refine_reference(f, a, b, fa, fm, fb, whole, abs_tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * max(abs_tol,
                                              1e-10 * abs(left + right)):
        return left + right + delta / 15.0
    return (_refine_reference(f, a, m, fa, flm, fm, left, abs_tol / 2,
                              depth - 1)
            + _refine_reference(f, m, b, fm, frm, fb, right, abs_tol / 2,
                                depth - 1))


def approx_rel(actual, expected, rel):
    assert expected != 0
    assert abs(actual - expected) <= rel * abs(expected), \
        f"{actual} vs {expected} (rel err {abs(actual - expected) / abs(expected):.3e} > {rel})"


# `coupling.read_columns` as it read every input through the open handle,
# kept to hold the reader to its old arrays and error rows.

def _parse_rows_reference(lines, n):
    return np.loadtxt(lines, delimiter=",", usecols=range(n), ndmin=2,
                      comments=None, quotechar='"')


def _first_bad_row_reference(lines, n):
    good, bad = 0, len(lines)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_rows_reference(lines[good:mid], n)
            good = mid
        except ValueError:
            bad = mid
    return good


def read_columns_reference(path, names):
    """The first len(names) columns of a measured-data CSV, each row of
    the table parsed from the handle that read the header."""
    n = len(names)
    with open(path, encoding="utf-8-sig") as fh:
        header = [c.strip().strip('"') for c in fh.readline().split(",")]
        if header[:n] != list(names):
            raise ValueError(f"expected CSV header `{', '.join(names)}`")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                table = _parse_rows_reference(fh, n)
        except ValueError:
            fh.seek(0)
            lines = [line for line in fh.read().split("\n")[1:] if line]
            row = _first_bad_row_reference(lines, n)
            raise ValueError(f"data row {row + 1}: expected {n} numbers, "
                             f"got {lines[row]!r:.60}") from None
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"data row {bad[0] + 1}: values must be finite, "
                         f"got {', '.join(map(repr, table[bad[0]].tolist()))}")
    return table.T


# `coupling.least_squares` as it took the residuals and the Jacobian
# apart, stacked them, and read diag(J^T J) and the norms per use, kept
# to hold the solver and both fits to their old bits.

def least_squares_reference(fun_jac, x0):
    """Levenberg-Marquardt on the normal equations, with `fun_jac(x)`
    returning the residuals r and their Jacobian J."""
    from optomech.coupling import LeastSquaresResult
    from optomech.errors import IllConditioned

    def normal_equations(x):
        r, jac = fun_jac(x)
        m = np.column_stack((jac, r))
        return m.T @ m

    x = np.array(x0, dtype=float)
    with np.errstate(all="ignore"):
        gram = normal_equations(x)
        if not np.isfinite(gram).all():
            raise IllConditioned("residuals or Jacobian not finite at the "
                                 "starting point")
        nfev, mu, nu = 1, 0.0, 2.0
        while True:
            a, g, fsq = gram[:-1, :-1], gram[:-1, -1], gram[-1, -1]
            if np.all(np.abs(g) <= 1e-8 * np.sqrt(fsq)
                      * np.sqrt(np.diag(a))):
                return LeastSquaresResult(x, fsq, nfev, 1)
            if nfev >= 100 * x.size:
                return LeastSquaresResult(x, fsq, nfev, 0)
            try:
                p = np.linalg.solve(a + np.diag(mu * np.diag(a)), -g)
            except np.linalg.LinAlgError as exc:
                raise IllConditioned(f"singular normal equations: {exc}") \
                    from exc
            small = np.linalg.norm(p) <= 1e-14 * np.linalg.norm(x)
            gram_new = normal_equations(x + p)
            nfev += 1
            actred = fsq - gram_new[-1, -1]
            prered = p @ a @ p + 2.0 * mu * (p * p) @ np.diag(a)
            if actred > 0:
                x, gram = x + p, gram_new
            if small or (abs(actred) <= 1e-14 * fsq
                         and prered <= 1e-14 * fsq):
                return LeastSquaresResult(x, gram[-1, -1], nfev,
                                          3 if small else 2)
            if actred > 0:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * actred / prered - 1.0) ** 3)
                nu = 2.0
            else:
                mu = mu * nu if mu else 1e-3
                nu *= 2.0
