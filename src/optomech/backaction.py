"""Dynamical backaction under detuned drive: gain, threshold, saturation.

For a critically coupled cavity driven at detuning Delta, the backaction
rate is

    G_ba = (g*x_zp/kappa)^2 * (P_in/(hbar*w0)) * 8/(1 + 4*Delta^2/kappa^2)
           * [ 1/(1 + 4*(Delta+Om)^2/kappa^2)
             - 1/(1 + 4*(Delta-Om)^2/kappa^2) ],

positive (extra damping) for red detuning, negative (gain) for blue. At
Delta = +kappa/2 this reduces to

    G_ba = -(g*x_zp/kappa)^2 * (P_in/(hbar*w0))
           * 8*(Om/kappa)/(1 + 4*Om^4/kappa^4),

and the parametric-instability threshold G_ba = -G_m gives

    P_thres = (w0/4) * m_eff*G_m*Om * (kappa^2/g^2) * (kappa/Om)
              * (1 + 4*Om^4/kappa^4).

Above threshold the oscillation saturates near (kappa/2)/g; the
square-root interpolation between threshold and asymptote is
phenomenological. Transmission modulation uses the quasi-static Lorentzian
dip of a critically coupled cavity. The general rate and the dip take
the cavity line from `devices.detuning_sq`, inf past the float range.
"""

from __future__ import annotations

import math
from typing import Literal

from .devices import Microcavity, detuning_sq
from .mechanics import MechanicalMode, zero_point
from .sensing import DriveCondition
from .units import HBAR, TWO_PI, np, record

Regime = Literal["cooling", "amplification", "neutral", "above_threshold"]


@record
class BackactionResult:
    """Backaction rate and the resulting total linewidth."""

    gamma_ba: float     # rad/s; negative = gain
    gamma_total: float  # rad/s, Gamma_m + Gamma_ba
    regime: Regime


@record
class OscillationState:
    """Steady oscillation above the parametric instability threshold."""

    amplitude: float         # m; 0 below threshold
    modulation_depth: float  # in [0, 1]


def _line(cav: Microcavity, d: float) -> float:
    """`detuning_sq` at one detuning, inf where the square overflows."""
    try:
        return detuning_sq(cav, d)
    except OverflowError:
        return math.inf


def _require_finite_g(g: float) -> None:
    # an infinite g makes inf*0 of a vanishing Lorentzian difference or
    # swing, and NaN passes every comparison
    if not math.isfinite(g):
        raise ValueError(f"require finite g, got {g!r}")


def backaction_rate(cav: Microcavity, mode: MechanicalMode, g: float,
                    drive: DriveCondition) -> BackactionResult:
    """Dynamical backaction rate at the drive detuning (rad/s)."""
    _require_finite_g(g)
    x_zp, _ = zero_point(mode)
    kappa = cav.kappa
    delta = drive.detuning
    om = mode.omega_m
    photon_flux = drive.p_in / (HBAR * cav.omega0)
    lor = lambda d: 1.0 / (1.0 + _line(cav, d))
    gamma_ba = ((g * x_zp / kappa) ** 2 * photon_flux
                * 8.0 * lor(delta) * (lor(delta + om) - lor(delta - om)))
    gamma_total = mode.gamma_m + gamma_ba
    if gamma_total < 0:
        regime: Regime = "above_threshold"
    elif gamma_ba > 0:
        regime = "cooling"
    elif gamma_ba < 0:
        regime = "amplification"
    else:
        regime = "neutral"
    return BackactionResult(gamma_ba=gamma_ba, gamma_total=gamma_total,
                            regime=regime)


def blue_detuned_rate(cav: Microcavity, mode: MechanicalMode, g,
                      p_in: float):
    """Closed-form backaction rate at Delta = +kappa/2 (rad/s, negative)
    for a coupling rate g (scalar or array)."""
    x_zp, _ = zero_point(mode)
    kappa = cav.kappa
    om = mode.omega_m
    return -((g * x_zp / kappa) ** 2 * p_in / (HBAR * cav.omega0)
             * 8.0 * (om / kappa) / (1.0 + 4.0 * om ** 4 / kappa ** 4))


def threshold_power(cav: Microcavity, mode: MechanicalMode, g: float) -> float:
    """Parametric instability threshold power at Delta = +kappa/2 (W): the
    input power at which blue_detuned_rate cancels Gamma_m. The rate is
    linear in power, so this is -Gamma_m over the rate at 1 W."""
    if not g > 0:
        raise ValueError("require g > 0")
    return -mode.gamma_m / blue_detuned_rate(cav, mode, g, 1.0)


def linewidth_vs_coupling(cav: Microcavity, mode: MechanicalMode,
                          drive: DriveCondition, g_grid) -> np.ndarray:
    """Total linewidth Gamma_total/2pi (Hz) at Delta = +kappa/2 for the
    coupling rates in g_grid; affine in g^2 with slope
    blue_detuned_rate(cav, mode, 1.0, drive.p_in) and clipped at zero above
    threshold."""
    g = np.asarray(g_grid, dtype=float)
    gamma_total = np.maximum(
        mode.gamma_m + blue_detuned_rate(cav, mode, g, drive.p_in), 0.0)
    return gamma_total / TWO_PI


def oscillation_amplitude(cav: Microcavity, mode: MechanicalMode, g: float,
                          drive: DriveCondition) -> OscillationState:
    """Saturated oscillation amplitude above threshold at Delta = +kappa/2.

    amplitude = (kappa/2)/g * sqrt(1 - P_thres/P_in) above threshold and 0
    below; the asymptote (kappa/2)/g is the point where the swing across
    the cavity line saturates the gain.
    """
    p_thres = threshold_power(cav, mode, g)
    if drive.p_in <= p_thres:
        amplitude = 0.0
    else:
        amplitude = (cav.kappa / 2.0) / g \
            * math.sqrt(1.0 - p_thres / drive.p_in)
    depth = transmission_modulation(cav, g, amplitude, cav.kappa / 2.0)
    return OscillationState(amplitude=amplitude, modulation_depth=depth)


def transmission_modulation(cav: Microcavity, g: float, amplitude: float,
                            delta: float) -> float:
    """Quasi-static transmission modulation depth in [0, 1].

    The critically coupled dip T(d) = x/(1 + x), x = (2d/kappa)^2, is
    swept by the detuning d(t) = delta + g*a*cos(Om*t); the depth is
    (T_max - T_min)/T_max, reaching unity whenever the sweep crosses
    resonance. On one side of it, over lo <= |d| <= hi, the depth is
    (x_max - x_min)/(x_max*(1 + x_min)) with (x_max - x_min)/x_max =
    (hi - lo)*(hi + lo)/hi^2: no two dips near 1 are subtracted far off
    resonance, and no square leaves the float range.
    """
    _require_finite_g(g)
    if not math.isfinite(delta):
        raise ValueError(f"require finite delta, got {delta!r}")
    if not amplitude >= 0:
        raise ValueError("require amplitude >= 0")
    # T is even in d: sweep |delta| +- swing
    swing = abs(g) * amplitude if g else 0.0
    lo, hi = abs(delta) - swing, abs(delta) + swing
    if lo <= 0.0:
        return 1.0 if hi > 0.0 else 0.0
    x_min = _line(cav, lo)
    if x_min == math.inf:
        return 0.0
    return (hi - lo) / hi * (1.0 + lo / hi) / (1.0 + x_min)
