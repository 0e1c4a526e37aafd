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

import math
from pathlib import Path
from typing import Literal

from .coupling import least_squares, read_columns
from .devices import Microcavity, detuning_sq
from .errors import (IllConditioned, NoResonanceInWindow, ZeroPower,
                     require_finite)
from .mechanics import MechanicalMode, mechanical_denominator, thermal_spectrum
from .units import (C_LIGHT, HBAR, TWO_PI, SpectralDensity, np,
                    record)

Readout = Literal["homodyne", "pdh"]

PDH_PENALTY = 1.73  # constant amplitude factor for PDH readout


@record
class DriveCondition:
    """Optical drive: input power, detuning, bath temperature, readout."""

    p_in: float               # W
    detuning: float = 0.0     # rad/s, Delta = omega - omega0
    temperature: float = 300.0  # K
    readout: Readout = "homodyne"

    def __post_init__(self):
        require_finite(self, "p_in", "detuning", "temperature")
        if self.p_in < 0:
            raise ValueError("require p_in >= 0")
        if self.temperature <= 0:
            raise ValueError("require temperature > 0")
        if self.readout not in ("homodyne", "pdh"):
            raise ValueError(f"unknown readout {self.readout!r}")


@record
class ResponseCurve:
    """Normalized pump-probe response |dw_tot/dw_Kerr| versus frequency,
    sorted by frequency and ties by magnitude when built."""

    frequencies_hz: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies_hz, dtype=float)
        h = np.asarray(self.magnitudes, dtype=float)
        if f.ndim != 1 or h.shape != f.shape:
            raise ValueError("frequency and magnitude arrays must match")
        if not (np.isfinite(f).all() and np.isfinite(h).all()):
            raise ValueError("response samples must be finite")
        if np.any(f <= 0):
            raise ValueError("response frequencies must be > 0")
        if np.any(h <= 0):
            raise ValueError("response magnitudes must be > 0")
        # a strictly increasing frequency column is already in that order
        if not np.all(f[1:] > f[:-1]):
            order = np.lexsort((h, f))
            f, h = f[order], h[order]
        object.__setattr__(self, "frequencies_hz", f)
        object.__setattr__(self, "magnitudes", h)

    @classmethod
    def from_csv(cls, path: str | Path) -> "ResponseCurve":
        """Read columns `freq_hz, h_mag`; header required."""
        return cls(*read_columns(path, ("freq_hz", "h_mag")))


@record
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
    if not g > 0:
        raise ValueError("require g > 0")
    lorentz = 1.0 + detuning_sq(cav, omega)
    # math.sqrt on a number: a scalar run need not load numpy
    base = (cav.kappa / (4.0 * g)) \
        * math.sqrt(HBAR * cav.omega0 / drive.p_in) \
        * (math.sqrt(lorentz) if isinstance(lorentz, float)
           else np.sqrt(lorentz))
    if sidedness == "single":
        base *= math.sqrt(2.0)
    elif sidedness != "double":
        raise ValueError(f"unknown sidedness {sidedness!r}")
    if drive.readout == "pdh":
        base *= PDH_PENALTY
    return base


def response_coefficient(cav: Microcavity, mode: MechanicalMode,
                         g_pump: float, g_probe: float) -> float:
    """Interference coefficient a1 relating the mechanical response to the
    Kerr background (rad^2/s^2)."""
    if not (g_pump > 0 and g_probe > 0):
        raise ValueError("require g_pump > 0 and g_probe > 0")
    return (g_pump * g_probe / cav.omega0 ** 2
            * TWO_PI * cav.R * cav.n_eff ** 2 * cav.mode_area
            / (C_LIGHT * cav.n2) / mode.m_eff)


def g_eff_from_a1(cav: Microcavity, mode: MechanicalMode, a1: float) -> float:
    """Invert the a1 closed form for g_eff = sqrt(g_pump*g_probe)."""
    if not a1 > 0:
        raise ValueError(f"require a1 > 0, got {a1!r}")
    return math.sqrt(a1 / response_coefficient(cav, mode, 1.0, 1.0))


def response_model(omega, a1: float, omega_m: float, gamma_m: float):
    """H[O] = |1 + a1/(Om^2 - O^2 - i*O*Gm)|."""
    omega = np.asarray(omega, dtype=float)
    z = np.empty(omega.shape, dtype=complex)
    mechanical_denominator(omega, omega_m, gamma_m, z.real, z.imag)
    np.divide(a1, z, out=z)
    z += 1.0
    return np.abs(z)


def response_jacobian(omega, a1: float, omega_m: float, gamma_m: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """`response_model` and its derivatives with respect to (a1, Om, Gm),
    one row per frequency, from one complex reciprocal.

    With q = 1/D, D = Om^2 - O^2 - i*O*Gm and z = 1 + a1*q, H = |z| and
    each derivative is Re(conj(z) * dz/dp) / |z|, where dz/da1 = q,
    dz/dOm = -2*a1*Om*q^2 and dz/dGm = i*a1*O*q^2. The fits call this once
    per step on the whole curve, so it works in place: each temporary
    array costs about as much as the arithmetic on it.
    """
    omega = np.asarray(omega, dtype=float)
    q = np.empty(omega.shape, dtype=complex)
    mechanical_denominator(omega, omega_m, gamma_m, q.real, q.imag)
    np.divide(1.0, q, out=q)
    z = a1 * q
    z += 1.0
    h = np.abs(z)
    w = np.conjugate(z, out=z)
    w *= q                       # conj(z) * q
    scale = 1.0 / h
    jac = np.empty((3,) + omega.shape)
    np.multiply(w.real, scale, out=jac[0])
    w *= q                       # conj(z) * q^2
    scale *= -a1
    np.multiply(w.imag, scale, out=jac[2])
    jac[2] *= omega
    scale *= 2.0 * omega_m
    np.multiply(w.real, scale, out=jac[1])
    return h, jac.T


def fit_response(curve: ResponseCurve, cav: Microcavity | None = None,
                 mode: MechanicalMode | None = None) -> ResponseFit:
    """Damped least-squares fit of the interference model to a response curve.

    Initial Omega_m comes from the grid argmax of |H - 1|, initial Gamma_m
    from its half-width. The module's `least_squares`, the
    Levenberg-Marquardt of `coupling` that the shift fit also uses, works on
    the parameters divided by these initial values, taking the model and
    its analytic Jacobian from one `response_jacobian` call per step. g_eff
    is recovered by inverting the a1 closed form when cavity and mode
    context are supplied (nan otherwise).
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

    def residual_and_jacobian(p):
        model, jac = response_jacobian(omega, *(p * scales))
        model -= h
        jac *= scales
        return model, jac

    sol = least_squares(residual_and_jacobian, np.ones(3))
    if sol.status <= 0:
        raise IllConditioned(f"response fit did not converge in "
                             f"{sol.nfev} evaluations")
    a1, omega_m, gamma_m = sol.x * scales
    a1, omega_m, gamma_m = float(a1), abs(float(omega_m)), abs(float(gamma_m))
    g_eff = math.nan
    if cav is not None and mode is not None and a1 > 0:
        g_eff = g_eff_from_a1(cav, mode, a1)
    return ResponseFit(a1=a1, omega_m=omega_m, gamma_m=gamma_m, g_eff=g_eff,
                       residual_norm=math.sqrt(sol.fsq))


@record
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
    if not detector_floor >= 0:
        raise ValueError("require detector_floor >= 0")
    f = np.asarray(grid_hz, dtype=float)
    signal = thermal_spectrum(mode, drive.temperature, f)
    shot = shot_noise_floor(cav, g, drive, TWO_PI * f, sidedness="single")
    bg_vals = shot ** 2 + detector_floor ** 2
    background = SpectralDensity(f, bg_vals, "single")
    total = SpectralDensity(f, signal.values + bg_vals, "single")
    i_res = int(np.argmin(np.abs(f - mode.omega_m / TWO_PI)))
    ratio = signal.values[i_res] / bg_vals[i_res]
    if not (math.isfinite(ratio) and ratio > 0):
        raise ArithmeticError(f"signal-to-background ratio {float(ratio)!r} "
                              "at resonance is not finite and positive")
    snr_db = 10.0 * math.log10(ratio)
    return NoiseBudget(signal=signal, background=background, total=total,
                       snr_db=snr_db,
                       imprecision=float(math.sqrt(bg_vals[i_res])))
