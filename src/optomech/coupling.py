"""Evanescent frequency shift and optomechanical coupling rate.

The cavity resonance is red-shifted when a dielectric oscillator enters the
evanescent field:

    dw0/w0 = -(1/2) * (A_nano/V_cav) * (1 - exp(-2*alpha*t))/(2*alpha)
             * (n_nano^2 - 1) * xi^2 * exp(-2*alpha*x0)

with the sampled area A_nano depending on orientation: w*l_y (horizontal
string), w*l_x (vertical string), l_x*l_y (sheet). The coupling rate is the
derivative along the separation coordinate, g = 2*alpha*|dw0|, with the
convention that x increases away from the cavity: the frequency shift is
negative, g > 0, and the per-photon force -hbar*g is attractive.

The finite-thickness factor is kept in full; the thin-film limit
(1 - exp(-2*alpha*t))/(2*alpha) -> t is only an approximation (37% off for
110-nm strings, where 2*alpha*t = 1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from . import devices
from .devices import CouplingGeometry, Microcavity, NanoOscillator
from .errors import GeometryMismatch, IllConditioned
from .units import TWO_PI


@dataclass(frozen=True)
class ShiftCurve:
    """Frequency-shift-vs-separation data, dw0 <= 0 (red shift)."""

    points: tuple[tuple[float, float], ...]  # (x0 m, dw0 rad/s)

    def __post_init__(self):
        pts = tuple((float(x), float(dw)) for x, dw in self.points)
        object.__setattr__(self, "points", pts)
        x0s = [x for x, _ in pts]
        if len(set(x0s)) != len(x0s):
            raise ValueError("x0 values must be distinct")
        if any(dw > 0 for _, dw in pts):
            raise ValueError("frequency shifts must be <= 0 (red shift)")

    @classmethod
    def from_csv(cls, path: str | Path) -> "ShiftCurve":
        """Read columns `x0_m, dfreq_hz` (dw0/2pi in Hz); header required."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    [f.strip() for f in reader.fieldnames[:2]] != ["x0_m", "dfreq_hz"]:
                raise ValueError("expected CSV header `x0_m, dfreq_hz`")
            pts = [(float(row["x0_m"]), TWO_PI * float(row["dfreq_hz"]))
                   for row in reader]
        return cls(tuple(pts))


@dataclass(frozen=True)
class ExpFit:
    """Result of fitting |dw0| = amplitude * exp(-x0/decay_length)."""

    amplitude: float      # rad/s
    decay_length: float   # m
    residual_norm: float


def _sampled_area(cav: Microcavity, osc: NanoOscillator,
                  geom: CouplingGeometry, alpha: float) -> float:
    l_x, l_y = devices.sampling_lengths(cav, alpha)
    if geom.orientation == "horizontal":
        if osc.kind != "string":
            raise GeometryMismatch("horizontal orientation requires a string")
        return osc.w * l_y
    if geom.orientation == "vertical":
        if osc.kind != "string":
            raise GeometryMismatch("vertical orientation requires a string")
        return osc.w * l_x
    if osc.kind != "sheet":
        raise GeometryMismatch("sheet orientation requires a sheet oscillator")
    return l_x * l_y


def _shift_magnitude(cav: Microcavity, osc: NanoOscillator,
                     geom: CouplingGeometry, x0: float) -> float:
    # x0 passed separately so finite-difference stencils may evaluate the
    # analytic exponential profile slightly inside the validated range
    alpha = devices.decay_constant(cav)
    area = _sampled_area(cav, osc, geom, alpha)
    thickness = (1.0 - math.exp(-2.0 * alpha * osc.t)) / (2.0 * alpha)
    return (0.5 * cav.omega0 * area / devices.mode_volume(cav)
            * thickness * (osc.n_nano ** 2 - 1.0) * cav.xi ** 2
            * math.exp(-2.0 * alpha * x0))


def frequency_shift(cav: Microcavity, osc: NanoOscillator,
                    geom: CouplingGeometry) -> float:
    """Static cavity frequency shift dw0(x0) <= 0 (rad/s)."""
    return -_shift_magnitude(cav, osc, geom, geom.x0)


def thin_film_shift(cav: Microcavity, osc: NanoOscillator,
                    geom: CouplingGeometry) -> float:
    """Thin-film approximation (t << 1/2alpha): thickness factor -> t."""
    two_alpha_t = 2.0 * devices.decay_constant(cav) * osc.t
    return (frequency_shift(cav, osc, geom)
            * two_alpha_t / (1.0 - math.exp(-two_alpha_t)))


def coupling_rate(cav: Microcavity, osc: NanoOscillator,
                  geom: CouplingGeometry) -> float:
    """Linear coupling rate g(x0) = 2*alpha*|dw0(x0)| (rad/s per m)."""
    alpha = devices.decay_constant(cav)
    return 2.0 * alpha * _shift_magnitude(cav, osc, geom, geom.x0)


def coupling_ratio_hv(cav: Microcavity) -> float:
    """Horizontal/vertical coupling-rate ratio sqrt(R/r)."""
    return math.sqrt(cav.R / cav.r)


def numeric_g_check(cav: Microcavity, osc: NanoOscillator,
                    geom: CouplingGeometry, h: float) -> float:
    """Relative error of the closed-form g against a central difference.

    h must lie in (0, 1/(10*alpha)) so the stencil stays in the
    exponential regime.
    """
    alpha = devices.decay_constant(cav)
    if not (0 < h < 1.0 / (10.0 * alpha)):
        raise ValueError("step must lie in (0, 1/(10*alpha))")
    x0 = geom.x0
    lo = _shift_magnitude(cav, osc, geom, x0 - h)
    hi = _shift_magnitude(cav, osc, geom, x0 + h)
    g_fd = (lo - hi) / (2.0 * h)
    g = coupling_rate(cav, osc, geom)
    return abs(g_fd - g) / g


def fit_exponential(curve: ShiftCurve) -> ExpFit:
    """Least-squares fit of |dw0| = A*exp(-x0/l) to a shift curve.

    Initialized by linear least squares in the log domain, refined by
    damped Gauss-Newton (Levenberg-Marquardt) in the original domain.
    """
    if len(curve.points) < 2:
        raise IllConditioned("need at least 2 points")
    pts = sorted(curve.points)
    x = np.array([p[0] for p in pts])
    y = np.array([abs(p[1]) for p in pts])
    if np.ptp(x) == 0:
        raise IllConditioned("all x0 values equal")
    if np.any(y <= 0):
        raise IllConditioned("zero-magnitude shifts cannot seed the log fit")

    # log-domain initialization: log y = log A - x / l
    coeffs = np.polyfit(x, np.log(y), 1)
    slope, intercept = coeffs[0], coeffs[1]
    if slope >= 0:
        raise IllConditioned("shift magnitudes grow with distance")
    a0, l0 = math.exp(intercept), -1.0 / slope

    def residual(p):
        return p[0] * np.exp(-x / p[1]) - y

    sol = least_squares(residual, x0=[a0, l0], method="lm",
                        xtol=1e-12, ftol=1e-12)
    if sol.status <= 0:
        raise IllConditioned(f"exponential fit did not converge: "
                             f"{sol.message}")
    amp, ell = float(sol.x[0]), float(sol.x[1])
    if ell <= 0:
        raise IllConditioned("fitted decay length non-positive")
    return ExpFit(amplitude=amp, decay_length=ell,
                  residual_norm=float(np.linalg.norm(sol.fun)))


@dataclass(frozen=True)
class StandingWaveShift:
    """Local shift and derivatives of a split standing-wave mode."""

    shift: float  # dw0(y), rad/s
    g1: float     # d(dw0)/dy, rad/s per m
    g2: float     # d^2(dw0)/dy^2, rad/s per m^2


def standing_wave_shift(cav: Microcavity, y: float, mean_shift: float,
                        branch: int = +1) -> StandingWaveShift:
    """Frequency shift profile along a standing-wave mode.

    dw0(y) = mean_shift * (1 +/- cos(2*k_g*y))/2 with k_g = 2*pi*n/lambda,
    giving a lateral period lambda/(2n). The splitting depth `mean_shift`
    is an input; there is no scattering model behind it. At nodes and
    antinodes the linear coupling g1 vanishes and the quadratic coupling
    g2 = -/+ 2*mean_shift*k_g^2*cos(2*k_g*y) is extremal.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    k_g = TWO_PI * cav.n / cav.wavelength
    phase = 2.0 * k_g * y
    shift = mean_shift * (1.0 + branch * math.cos(phase)) / 2.0
    g1 = -branch * mean_shift * k_g * math.sin(phase)
    g2 = -branch * 2.0 * mean_shift * k_g ** 2 * math.cos(phase)
    return StandingWaveShift(shift=shift, g1=g1, g2=g2)


def standing_wave_period(cav: Microcavity) -> float:
    """Lateral periodicity lambda/(2n) of the standing-wave pattern (m)."""
    return cav.wavelength / (2.0 * cav.n)
