"""String mode shapes, probe-weighted effective mass, and displacement noise.

The effective mass of the n-th mode probed by a normalized profile
v0(y) (with integral of v0^2 equal to 1) is

    m_eff = m * <u_n^2> / (int u_n v0^2 dy)^2,

which for a point-like probe at the center of a symmetric mode reduces to
m/2 and diverges for antisymmetric modes probed symmetrically. The
whispering-gallery field along a tangential string is Gaussian with the
transverse sampling length l_y, giving the closed-form fundamental-mode
reduction parameterized by beta_inv = (pi*l_y/L)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .devices import NanoOscillator
from .errors import DivergentMass, OutOfDomain
from .quadrature import adaptive_quadrature
from .units import HBAR, K_B, TWO_PI, SpectralDensity

ProbeShape = Literal["gaussian", "delta"]

_OVERLAP_FLOOR = 1e-12


@dataclass(frozen=True)
class MechanicalMode:
    """Mechanical mode parameters: angular frequency, damping, mass."""

    omega_m: float    # rad/s
    gamma_m: float    # rad/s
    m_eff: float      # kg

    def __post_init__(self):
        if self.omega_m <= 0 or self.gamma_m <= 0:
            raise ValueError("require omega_m > 0 and gamma_m > 0")
        if self.m_eff <= 0:
            raise ValueError("require m_eff > 0")

    @property
    def quality_factor(self) -> float:
        return self.omega_m / self.gamma_m

    @classmethod
    def from_quality_factor(cls, omega_m: float, Q: float, m_eff: float
                            ) -> "MechanicalMode":
        return cls(omega_m=omega_m, gamma_m=omega_m / Q, m_eff=m_eff)


@dataclass(frozen=True)
class ProbeProfile:
    """Optical probe profile sampling the string, normalized to
    int v0(y)^2 dy = 1.

    gaussian: v0(y)^2 = (1/l_y) * exp(-pi*(y - c)^2 / l_y^2)
    delta:    point-like probe at the center offset
    """

    shape: ProbeShape
    l_y: float = 0.0
    center_offset: float = 0.0

    def __post_init__(self):
        if self.shape == "gaussian" and self.l_y <= 0:
            raise ValueError("gaussian probe requires l_y > 0")

    def density(self, y: float) -> float:
        """Probe intensity profile v0(y)^2 (1/m)."""
        if self.shape == "gaussian":
            u = y - self.center_offset
            return math.exp(-math.pi * u * u / (self.l_y ** 2)) / self.l_y
        raise ValueError("delta probes have no pointwise density")


def mode_shape(osc: NanoOscillator, n: int, y: float) -> float:
    """Unit-peak mode pattern of the n-th string eigenmode.

    cos(n*pi*y/L) for odd n, sin(n*pi*y/L) for even n, clamped at
    y = +/- L/2. Shapes beyond the fundamental extrapolate the
    stress-dominated (string) limit.
    """
    if abs(y) > osc.L / 2:
        raise OutOfDomain(f"|y| = {abs(y):g} exceeds L/2 = {osc.L / 2:g}")
    arg = n * math.pi * y / osc.L
    return math.cos(arg) if n % 2 == 1 else math.sin(arg)


def effective_mass(osc: NanoOscillator, probe: ProbeProfile,
                   n: int | None = None) -> float:
    """Probe-weighted effective mass of the n-th mode (kg)."""
    if n is None:
        n = osc.mode_index
    half = osc.L / 2.0
    mean_sq = 0.5  # <u_n^2> = 1/2 exactly for the sinusoidal patterns

    if probe.shape == "delta":
        overlap = mode_shape(osc, n, probe.center_offset)
    else:
        overlap = adaptive_quadrature(
            lambda y: mode_shape(osc, n, y) * probe.density(y), -half, half)

    if abs(overlap) < _OVERLAP_FLOOR * math.sqrt(mean_sq):
        raise DivergentMass(
            "probe overlap vanishes (antisymmetric mode, symmetric probe)")
    return osc.physical_mass * mean_sq / overlap ** 2


def gaussian_fundamental_mass_ratio(beta_inv: float) -> float:
    """Closed-form m_eff/m of the fundamental with a centered Gaussian probe.

    m_eff/m = (1/2) * beta_inv / (int_{-pi/2}^{pi/2} cos(u)
              exp(-pi*beta*u^2) du)^2 with beta = 1/beta_inv; approaches
    1/2 in the point-probe limit beta_inv -> 0.
    """
    if beta_inv < 0:
        raise ValueError("require beta_inv >= 0")
    if beta_inv == 0.0:
        return 0.5
    beta = 1.0 / beta_inv
    integral = adaptive_quadrature(
        lambda u: math.cos(u) * math.exp(-math.pi * beta * u * u),
        -math.pi / 2.0, math.pi / 2.0)
    return 0.5 * beta_inv / integral ** 2


def beta_inv(osc: NanoOscillator, l_y: float) -> float:
    """Probe-to-string length parameter (pi*l_y/L)^2."""
    return (math.pi * l_y / osc.L) ** 2


def susceptibility(mode: MechanicalMode, omega: float) -> complex:
    """Mechanical susceptibility chi_m = 1/(m_eff*(Om^2 - O^2 - i*O*G)) (m/N)."""
    if omega < 0:
        raise ValueError("require omega >= 0")
    return 1.0 / (mode.m_eff * (mode.omega_m ** 2 - omega ** 2
                                - 1j * omega * mode.gamma_m))


def thermal_spectrum(mode: MechanicalMode, T: float,
                     grid_hz: np.ndarray) -> SpectralDensity:
    """Single-sided Brownian displacement noise on a Hz grid.

    S_xx[O] = 4 * m_eff * Gamma_m * k_B * T * |chi_m[O]|^2.
    """
    if T < 0:
        raise ValueError("require T >= 0")
    f = np.asarray(grid_hz, dtype=float)
    omega = TWO_PI * f
    chi_sq = 1.0 / (mode.m_eff ** 2
                    * ((mode.omega_m ** 2 - omega ** 2) ** 2
                       + (omega * mode.gamma_m) ** 2))
    values = 4.0 * mode.m_eff * mode.gamma_m * K_B * T * chi_sq
    return SpectralDensity(frequencies=f, values=values, sidedness="single",
                           quantity_unit="m")


def thermal_rms(mode: MechanicalMode, T: float) -> float:
    """Analytic rms displacement sqrt(k_B*T/(m_eff*Omega_m^2)) (m)."""
    return math.sqrt(K_B * T / (mode.m_eff * mode.omega_m ** 2))


def resonance_grid(mode: MechanicalMode) -> np.ndarray:
    """Hz grid of 2000 log-spaced points over [f_m/100, f_m*100] with 40001
    linear points refining the Lorentzian peak (+/- 2000 linewidths,
    capped at half the resonance frequency)."""
    f_m = mode.omega_m / TWO_PI
    gamma_hz = mode.gamma_m / TWO_PI
    broad = np.logspace(math.log10(f_m) - 2.0, math.log10(f_m) + 2.0, 2000)
    half_window = min(2000.0 * gamma_hz, 0.5 * f_m)
    narrow = np.linspace(max(f_m - half_window, broad[0]),
                         f_m + half_window, 40001)
    return np.unique(np.concatenate([broad, narrow]))


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
    if T < 0:
        raise ValueError("require T >= 0")
    two_nbar = 2.0 * K_B * T / (HBAR * mode.omega_m)
    db = 10.0 * math.log10(two_nbar) if two_nbar > 0 else -math.inf
    return math.sqrt(two_nbar), db


def mode_from_oscillator(osc: NanoOscillator, probe: ProbeProfile,
                         n: int | None = None) -> MechanicalMode:
    """Build a MechanicalMode from string geometry and a probe profile."""
    from .devices import string_mode_frequency
    if n is None:
        n = osc.mode_index
    omega_m = TWO_PI * string_mode_frequency(osc, n)
    m_eff = effective_mass(osc, probe, n)
    return MechanicalMode(omega_m=omega_m, gamma_m=omega_m / osc.Q,
                          m_eff=m_eff)
