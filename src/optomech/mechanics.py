"""String mode shapes, probe-weighted effective mass, and displacement noise.

The effective mass of the n-th mode probed by a normalized profile
v0(y) (with integral of v0^2 equal to 1) is

    m_eff = m * <u_n^2> / (int u_n v0^2 dy)^2,

which for a point-like probe at the center of a symmetric mode reduces to
m/2 and diverges for antisymmetric modes probed symmetrically. The
whispering-gallery field along a tangential string is Gaussian with the
transverse sampling length l_y.
"""

from __future__ import annotations

import math

from .devices import NanoOscillator, require_mode_index, string_mode_frequency
from .errors import DivergentMass, OutOfDomain
from .quadrature import adaptive_quadrature
from .units import (HBAR, K_B, TWO_PI, Finite, NonNegative, Positive,
                    SpectralDensity, np, record, require)

_OVERLAP_FLOOR = 1e-12
_TRIG = (math.sin, math.cos)  # the string's mode pattern by parity of n


@record
class MechanicalMode:
    """Mechanical mode parameters: angular frequency, damping, mass."""

    omega_m: Positive     # rad/s
    gamma_m: Positive     # rad/s
    m_eff: Positive       # kg

    @property
    def quality_factor(self) -> float:
        return self.omega_m / self.gamma_m

    @classmethod
    def from_quality_factor(cls, omega_m: float, Q: float, m_eff: float
                            ) -> "MechanicalMode":
        require("Positive", Q=Q)
        return cls(omega_m=omega_m, gamma_m=omega_m / Q, m_eff=m_eff)


@record
class ProbeProfile:
    """Optical probe sampling the string: the Gaussian profile
    v0(y)^2 = (1/l_y) * exp(-pi*(y - c)^2 / l_y^2), normalized to
    int v0(y)^2 dy = 1, about the center offset c. Its limit l_y = 0 is
    the point probe at c."""

    l_y: NonNegative
    center_offset: Finite = 0.0


def mode_shape(osc: NanoOscillator, n: int, y: float) -> float:
    """Unit-peak mode pattern of the n-th string eigenmode.

    cos(n*pi*y/L) for odd n, sin(n*pi*y/L) for even n, clamped at
    y = +/- L/2. Shapes beyond the fundamental extrapolate the
    stress-dominated (string) limit.
    """
    require_mode_index(n)
    if not abs(y) <= osc.L / 2:
        raise OutOfDomain(f"|y| = {abs(y):g} exceeds L/2 = {osc.L / 2:g}")
    return _TRIG[n % 2](n * math.pi * y / osc.L)


def effective_mass(osc: NanoOscillator, probe: ProbeProfile, n: int) -> float:
    """Probe-weighted effective mass of the n-th mode (kg).

    The probe's tail beyond its window c +- 7*l_y weighs below
    exp(-49*pi). A window inside the string, the point probe's included,
    has the overlap u_n(c) * exp(-(n*pi*l_y/L)^2/(4*pi)); one off it, 0.
    Otherwise adaptive Simpson integrates u_n * v0^2 over the window's
    part of the string in panels at most min(l_y, L/n)/2 wide, whose first
    samples cannot all miss the peak or fall on nodes. For c = 0 and odd
    n the integrand is even: it integrates from 0 to L/2 and doubles."""
    require_mode_index(n)
    mean_sq = 0.5  # <u_n^2> = 1/2 exactly for the sinusoidal patterns
    c = probe.center_offset
    if c == 0.0 and n % 2 == 0:
        raise DivergentMass(
            "probe overlap vanishes (antisymmetric mode, symmetric probe)")

    l_y, L = probe.l_y, osc.L
    a, b = max(-L / 2.0, c - 7.0 * l_y), min(L / 2.0, c + 7.0 * l_y)
    if abs(c) + 7.0 * l_y <= L / 2.0:
        overlap = mode_shape(osc, n, c) * math.exp(
            -(n * math.pi * l_y / L) ** 2 / (4.0 * math.pi))
    elif a >= b:
        overlap = 0.0
    else:
        trig, k, l2 = _TRIG[n % 2], n * math.pi, l_y ** 2

        def integrand(y: float) -> float:
            u = y - c
            return trig(k * y / L) * (math.exp(-math.pi * u * u / l2) / l_y)
        panels = math.ceil((b - a) / min(l_y, L / n) * 2.0)
        overlap = (2.0 * adaptive_quadrature(integrand, 0.0, b) if c == 0.0
                   else math.fsum(adaptive_quadrature(
                       integrand, a + (b - a) * j / panels,
                       a + (b - a) * (j + 1) / panels)
                       for j in range(panels)))
    floor = _OVERLAP_FLOOR * math.sqrt(mean_sq)
    if abs(overlap) < floor:
        raise DivergentMass(f"probe overlap {overlap:.6g} is below the floor "
                            f"{_OVERLAP_FLOOR:g} * sqrt(<u_n^2>) = {floor:.6g}")
    return osc.physical_mass * mean_sq / overlap ** 2


def thermal_force_psd(mode: MechanicalMode, T: float) -> float:
    """Thermal Langevin force PSD 2*m_eff*Gamma_m*k_B*T (double-sided,
    N^2/Hz)."""
    require("NonNegative", T=T)
    return 2.0 * mode.m_eff * mode.gamma_m * K_B * T


def mechanical_denominator(omega, omega_m, gamma_m, re, im) -> None:
    """Write Re and Im of D = Om^2 - O^2 - i*O*Gm, chi_m = 1/(m_eff*D), at
    the angular frequencies omega into float arrays; im may be omega."""
    np.square(omega, out=re)
    np.subtract(omega_m ** 2, re, out=re)
    np.multiply(omega, -gamma_m, out=im)


def thermal_spectrum(mode: MechanicalMode, T: float,
                     grid_hz: np.ndarray) -> SpectralDensity:
    """Single-sided Brownian displacement noise on a Hz grid.

    S_xx[O] = 2 * S_FF * |chi_m[O]|^2 with S_FF = `thermal_force_psd`.
    """
    prefactor = 2.0 * thermal_force_psd(mode, T)
    f = np.asarray(grid_hz, dtype=float)
    # the operations of 2*S_FF / (m^2*((Om^2 - O^2)^2 + (O*G)^2)), in that
    # order, in two arrays; `out=` keeps a 0-d grid an array, which
    # SpectralDensity then rejects as not 1-D
    omega = np.multiply(TWO_PI, f, out=np.empty_like(f))
    values = np.empty_like(f)
    mechanical_denominator(omega, mode.omega_m, mode.gamma_m, values, omega)
    np.square(values, out=values)
    np.square(omega, out=omega)
    np.add(values, omega, out=values)
    np.multiply(mode.m_eff ** 2, values, out=values)
    np.divide(1.0, values, out=values)
    np.multiply(prefactor, values, out=values)
    return SpectralDensity(frequencies=f, values=values, sidedness="single")


def thermal_rms(mode: MechanicalMode, T: float) -> float:
    """Analytic rms displacement sqrt(k_B*T/(m_eff*Omega_m^2)) (m)."""
    require("NonNegative", T=T)
    return math.sqrt(K_B * T / (mode.m_eff * mode.omega_m ** 2))


def resonance_grid(mode: MechanicalMode) -> np.ndarray:
    """Hz grid of 2000 log-spaced points over [f_m/100, f_m*100] with 40001
    linear points refining the Lorentzian peak (+/- 2000 linewidths,
    capped at half the resonance frequency)."""
    f_m = mode.omega_m / TWO_PI
    gamma_hz = mode.gamma_m / TWO_PI
    broad = np.logspace(math.log10(f_m) - 2.0, math.log10(f_m) + 2.0, 2000)
    half_window = min(2000.0 * gamma_hz, 0.5 * f_m)
    # the window starts at f_m/2 or above, inside the broad grid
    narrow = np.linspace(f_m - half_window, f_m + half_window, 40001)
    # merge the broad points inside the window into it, then drop repeats
    # (np.unique would import numpy.ma on first use)
    i, j = np.searchsorted(broad, (narrow[0], narrow[-1]))
    inner = broad[i:j]
    grid = np.concatenate((broad[:i],
                           np.insert(narrow, np.searchsorted(narrow, inner),
                                     inner),
                           broad[j:]))
    keep = grid[1:] != grid[:-1]
    if keep.all():
        return grid
    return grid[np.concatenate(([True], keep))]


def integrated_rms(spectrum: SpectralDensity) -> float:
    """rms displacement from numerically integrating a single-sided PSD."""
    if spectrum.sidedness != "single":
        raise ValueError("expected a single-sided spectrum")
    var = np.trapezoid(spectrum.values, spectrum.frequencies)
    return math.sqrt(var)


def zero_point(mode: MechanicalMode) -> tuple[float, float]:
    """Zero-point amplitude and the SQL displacement PSD at resonance.

    Returns (x_zp, S_xx[Omega_m]) with x_zp = sqrt(hbar/(2*m_eff*Omega_m))
    and the single-sided S_xx[Omega_m] = 2*hbar*Q/(m_eff*Omega_m^2).
    """
    x_zp = math.sqrt(HBAR / (2.0 * mode.m_eff * mode.omega_m))
    s_sql = 2.0 * HBAR * mode.quality_factor / (mode.m_eff * mode.omega_m ** 2)
    return x_zp, s_sql


def snr_requirement(mode: MechanicalMode, T: float) -> tuple[float, float]:
    """Signal-to-background needed to resolve the zero-point level.

    Returns (sqrt(2*nbar), PSD ratio in dB) with nbar = k_B*T/(hbar*Omega_m);
    the dB figure is 10*log10 of the PSD ratio 2*nbar.
    """
    require("NonNegative", T=T)
    two_nbar = 2.0 * K_B * T / (HBAR * mode.omega_m)
    db = 10.0 * math.log10(two_nbar) if two_nbar > 0 else -math.inf
    return math.sqrt(two_nbar), db


def mode_from_oscillator(osc: NanoOscillator, probe: ProbeProfile,
                         n: int) -> MechanicalMode:
    """Build the n-th MechanicalMode from string geometry and a probe
    profile."""
    return MechanicalMode.from_quality_factor(
        omega_m=TWO_PI * string_mode_frequency(osc, n), Q=osc.Q,
        m_eff=effective_mass(osc, probe, n))
