"""Shot-noise-limited readout, Kerr reference response, and g extraction.

The quantum-limited double-sided displacement sensitivity for homodyne
readout of a critically coupled cavity is

    sqrt(S_xx^shot[O]) = (kappa/(4g)) * sqrt(hbar*w0/P_in)
                         * sqrt(1 + (2*O/kappa)^2);

single-sided values are sqrt(2) larger, and Pound-Drever-Hall readout
costs a constant amplitude factor of 1.73. The pump-probe response,
normalized to the instantaneous Kerr background, follows

    H[O] = |1 + a1/(Om^2 - O^2 - i*O*Gm)|

with a1 set by the pump/probe coupling rates, the Kerr coefficient, and
the effective mass; the attractive dipole force (a1 > 0) puts the
destructive-interference dip above the mechanical resonance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np
from scipy.optimize import least_squares

from .devices import Microcavity
from .errors import (GridMismatch, IllConditioned, NoResonanceInWindow,
                     ZeroPower)
from .mechanics import MechanicalMode, thermal_spectrum
from .units import C_LIGHT, HBAR, TWO_PI, SpectralDensity

Readout = Literal["homodyne", "pdh"]

PDH_PENALTY = 1.73  # constant amplitude factor for PDH readout


@dataclass(frozen=True)
class DriveCondition:
    """Optical drive: input power, detuning, bath temperature, readout."""

    p_in: float               # W
    detuning: float = 0.0     # rad/s, Delta = omega - omega0
    temperature: float = 300.0  # K
    readout: Readout = "homodyne"

    def __post_init__(self):
        if self.p_in < 0:
            raise ValueError("require p_in >= 0")
        if self.temperature <= 0:
            raise ValueError("require temperature > 0")
        if self.readout not in ("homodyne", "pdh"):
            raise ValueError(f"unknown readout {self.readout!r}")


@dataclass(frozen=True)
class ResponseCurve:
    """Normalized pump-probe response |dw_tot/dw_Kerr| versus frequency."""

    frequencies_hz: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies_hz, dtype=float)
        h = np.asarray(self.magnitudes, dtype=float)
        object.__setattr__(self, "frequencies_hz", f)
        object.__setattr__(self, "magnitudes", h)
        if f.ndim != 1 or h.shape != f.shape:
            raise ValueError("frequency and magnitude arrays must match")
        if np.any(h <= 0):
            raise ValueError("response magnitudes must be > 0")

    @classmethod
    def from_csv(cls, path: str | Path) -> "ResponseCurve":
        """Read columns `freq_hz, h_mag`; header required."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    [c.strip() for c in reader.fieldnames[:2]] != ["freq_hz", "h_mag"]:
                raise ValueError("expected CSV header `freq_hz, h_mag`")
            rows = [(float(row["freq_hz"]), float(row["h_mag"]))
                    for row in reader]
        rows.sort()
        return cls(np.array([r[0] for r in rows]),
                   np.array([r[1] for r in rows]))


@dataclass(frozen=True)
class ResponseFit:
    """Extracted interference-model parameters."""

    a1: float        # rad^2/s^2
    omega_m: float   # rad/s
    gamma_m: float   # rad/s
    g_eff: float     # rad/s per m (nan when no cavity/mode context given)
    residual_norm: float


def shot_noise_floor(cav: Microcavity, g: float, drive: DriveCondition,
                     omega, sidedness: str = "double"
                     ) -> float | np.ndarray:
    """Shot-noise displacement amplitude spectral density (m/sqrt(Hz)) at
    angular frequency omega (scalar or array).

    Double-sided homodyne by default; single-sided is sqrt(2) larger and
    PDH readout (from `drive.readout`) adds the 1.73 penalty.
    """
    if drive.p_in == 0:
        raise ZeroPower("shot-noise floor undefined at zero input power")
    if g <= 0:
        raise ValueError("require g > 0")
    base = (cav.kappa / (4.0 * g)) \
        * math.sqrt(HBAR * cav.omega0 / drive.p_in) \
        * np.sqrt(1.0 + (2.0 * omega / cav.kappa) ** 2)
    if sidedness == "single":
        base *= math.sqrt(2.0)
    elif sidedness != "double":
        raise ValueError(f"unknown sidedness {sidedness!r}")
    if drive.readout == "pdh":
        base *= PDH_PENALTY
    return base


def kerr_shift(cav: Microcavity, delta_p: float) -> float:
    """Cavity frequency change -w0*n2/(n_eff*A_mode)*dP from an
    intracavity power modulation dP (rad/s)."""
    return -cav.omega0 * cav.n2 / (cav.n_eff * cav.mode_area) * delta_p


def response_coefficient(cav: Microcavity, mode: MechanicalMode,
                         g_pump: float, g_probe: float) -> float:
    """Interference coefficient a1 relating the mechanical response to the
    Kerr background (rad^2/s^2)."""
    return (g_pump * g_probe / cav.omega0 ** 2
            * TWO_PI * cav.R * cav.n_eff ** 2 * cav.mode_area
            / (C_LIGHT * cav.n2) / mode.m_eff)


def g_eff_from_a1(cav: Microcavity, mode: MechanicalMode, a1: float) -> float:
    """Invert the a1 closed form for g_eff = sqrt(g_pump*g_probe)."""
    return math.sqrt(a1 / response_coefficient(cav, mode, 1.0, 1.0))


def response_model(omega, a1: float, omega_m: float, gamma_m: float):
    """H[O] = |1 + a1/(Om^2 - O^2 - i*O*Gm)|."""
    omega = np.asarray(omega, dtype=float)
    denom = omega_m ** 2 - omega ** 2 - 1j * omega * gamma_m
    return np.abs(1.0 + a1 / denom)


def response_magnitude(cav: Microcavity, mode: MechanicalMode, g_pump: float,
                       g_probe: float, omega) -> np.ndarray | float:
    """Normalized response |dw_tot/dw_Kerr| at angular frequency omega."""
    a1 = response_coefficient(cav, mode, g_pump, g_probe)
    out = response_model(omega, a1, mode.omega_m, mode.gamma_m)
    return float(out) if np.isscalar(omega) else out


def fit_response(curve: ResponseCurve, cav: Microcavity | None = None,
                 mode: MechanicalMode | None = None) -> ResponseFit:
    """Damped least-squares fit of the interference model to a response curve.

    Initial Omega_m comes from the grid argmax of |H - 1|, initial Gamma_m
    from its half-width. g_eff is recovered by inverting the a1 closed form
    when cavity and mode context are supplied (nan otherwise).
    """
    f = curve.frequencies_hz
    h = curve.magnitudes
    if f.size < 10:
        raise NoResonanceInWindow("need at least 10 points across resonance")
    if np.argmax(h) in (0, f.size - 1) or np.argmin(h) in (0, f.size - 1):
        raise NoResonanceInWindow(
            "grid does not bracket the interference extremum pair")

    omega = TWO_PI * f
    dev = np.abs(h - 1.0)
    i_peak = int(np.argmax(dev))
    omega_m0 = omega[i_peak]
    half = dev[i_peak] / 2.0
    above = dev >= half
    gamma0 = omega[above][-1] - omega[above][0]
    if gamma0 <= 0:
        gamma0 = omega_m0 / 1000.0
    a1_0 = dev[i_peak] * omega_m0 * gamma0

    scales = np.array([a1_0, omega_m0, gamma0])

    def residual(p):
        a1, om, gm = p * scales
        return response_model(omega, a1, om, gm) - h

    sol = least_squares(residual, x0=np.ones(3), method="lm",
                        xtol=1e-14, ftol=1e-14)
    if sol.status <= 0:
        raise IllConditioned(f"response fit did not converge: {sol.message}")
    a1, omega_m, gamma_m = sol.x * scales
    a1, omega_m, gamma_m = float(a1), abs(float(omega_m)), abs(float(gamma_m))
    g_eff = math.nan
    if cav is not None and mode is not None and a1 > 0:
        g_eff = g_eff_from_a1(cav, mode, a1)
    return ResponseFit(a1=a1, omega_m=omega_m, gamma_m=gamma_m, g_eff=g_eff,
                       residual_norm=float(np.linalg.norm(sol.fun)))


def dynamic_g(s_omega: SpectralDensity, s_x: SpectralDensity
              ) -> tuple[float, float]:
    """Coupling rate g = sqrt(S_ww/S_xx) averaged over the resonance band.

    Both spectra must share grid and sidedness. Returns (g, dispersion)
    where dispersion is the standard deviation of the pointwise ratio over
    the band (peak +/- one linewidth, estimated from the half-maximum of
    S_xx).
    """
    if s_omega.sidedness != s_x.sidedness:
        raise GridMismatch("sidedness differs between spectra")
    if s_omega.frequencies.shape != s_x.frequencies.shape or \
            not np.array_equal(s_omega.frequencies, s_x.frequencies):
        raise GridMismatch("frequency grids differ")
    ratio = np.sqrt(s_omega.values / s_x.values)
    f = s_x.frequencies
    i_peak = int(np.argmax(s_x.values))
    above = s_x.values >= s_x.values[i_peak] / 2.0
    fwhm = f[above][-1] - f[above][0]
    band = np.abs(f - f[i_peak]) <= max(fwhm, f[min(i_peak + 1, f.size - 1)]
                                        - f[max(i_peak - 1, 0)])
    vals = ratio[band]
    return float(np.mean(vals)), float(np.std(vals))


@dataclass(frozen=True)
class NoiseBudget:
    """Thermal signal against shot-noise and detector backgrounds."""

    signal: SpectralDensity       # single-sided displacement PSD
    background: SpectralDensity   # shot + detector, displacement-equivalent
    total: SpectralDensity
    snr_db: float                 # PSD signal/background at resonance
    imprecision: float            # sqrt(background) at resonance, m/sqrt(Hz)


def noise_budget(cav: Microcavity, mode: MechanicalMode, g: float,
                 drive: DriveCondition, grid_hz: np.ndarray,
                 detector_floor: float = 0.0) -> NoiseBudget:
    """Compose the displacement-equivalent noise budget on a Hz grid.

    detector_floor is a flat amplitude spectral density in m/sqrt(Hz)
    (single-sided).
    """
    f = np.asarray(grid_hz, dtype=float)
    signal = thermal_spectrum(mode, drive.temperature, f)
    shot = shot_noise_floor(cav, g, drive, TWO_PI * f, sidedness="single")
    bg_vals = shot ** 2 + detector_floor ** 2
    background = SpectralDensity(f, bg_vals, "single", "m")
    total = SpectralDensity(f, signal.values + bg_vals, "single", "m")
    i_res = int(np.argmin(np.abs(f - mode.omega_m / TWO_PI)))
    ratio = signal.values[i_res] / bg_vals[i_res]
    if not (math.isfinite(ratio) and ratio > 0):
        raise ArithmeticError(f"signal-to-background ratio {float(ratio)!r} "
                              "at resonance is not finite and positive")
    snr_db = 10.0 * math.log10(ratio)
    return NoiseBudget(signal=signal, background=background, total=total,
                       snr_db=snr_db,
                       imprecision=float(math.sqrt(bg_vals[i_res])))
