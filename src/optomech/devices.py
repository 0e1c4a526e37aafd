"""Microcavity and nano-oscillator geometry with derived optical parameters.

The toroid's optical mode cross-section is treated as a circle of diameter
D_mode, and the evanescent field outside the rim decays as exp(-alpha*x)
with 1/alpha = (lambda/2pi)/sqrt(n^2 - 1).
"""

from __future__ import annotations

import math
from typing import Literal

from .errors import NonEvanescent, NotAString
from .units import (C_LIGHT, TWO_PI, Finite, NonNegative, Positive, record,
                    require)

Orientation = Literal["horizontal", "vertical", "sheet"]
OscillatorKind = Literal["string", "sheet"]


@record
class Microcavity:
    """Toroidal microcavity geometry and optical mode parameters.

    All lengths in metres; kappa is the energy decay rate in rad/s;
    xi is the field fraction at the cavity surface; n2 the Kerr
    coefficient in m^2/W.
    """

    R: Positive           # major radius
    r: Positive           # minor radius
    wavelength: Positive
    n: Positive           # material refractive index
    n_eff: Positive       # effective mode index
    kappa: Positive       # energy decay rate, rad/s
    D_mode: Positive      # optical mode diameter
    xi: Positive          # surface field fraction
    n2: Finite = 3e-20    # Kerr coefficient of silica, m^2/W

    def __post_init__(self):
        if self.R <= self.r:
            raise ValueError("require R > r > 0")
        if self.xi > 1:
            raise ValueError("require 0 < xi <= 1")
        if self.D_mode >= 2 * self.r:
            raise ValueError("require 0 < D_mode < 2r")

    @property
    def omega0(self) -> float:
        """Unperturbed optical resonance frequency (rad/s)."""
        return TWO_PI * C_LIGHT / self.wavelength

    @property
    def mode_area(self) -> float:
        """Optical mode cross-section pi*(D_mode/2)^2 (m^2)."""
        return math.pi * (self.D_mode / 2.0) ** 2


@record
class NanoOscillator:
    """Doubly clamped string or 2-D sheet oscillator.

    For sheets, L and w are the two lateral extents. `stress` is the
    internal tensile stress in Pa.
    """

    kind: OscillatorKind
    L: Positive
    w: Positive
    t: Positive
    rho: Positive
    stress: Positive
    n_nano: Finite
    Q: Finite

    def __post_init__(self):
        if self.Q <= 1:
            raise ValueError("require Q > 1")
        if self.n_nano < 1:     # below 1 the shift turns blue and g < 0
            raise ValueError("require n_nano >= 1")
        if self.kind not in ("string", "sheet"):
            raise ValueError(f"unknown oscillator kind {self.kind!r}")

    @property
    def physical_mass(self) -> float:
        """rho * t * w * L (kg)."""
        return self.rho * self.t * self.w * self.L


@record
class CouplingGeometry:
    """Separation and orientation of the oscillator in the near field."""

    x0: NonNegative
    orientation: Orientation

    def __post_init__(self):
        if self.orientation not in ("horizontal", "vertical", "sheet"):
            raise ValueError(f"unknown orientation {self.orientation!r}")


def decay_constant(cav: Microcavity) -> float:
    """Evanescent field decay constant alpha = 2*pi*sqrt(n^2-1)/lambda (1/m).

    The field decays as exp(-alpha*x); the intensity decay length is
    1/(2*alpha).
    """
    if cav.n <= 1:
        raise NonEvanescent("refractive index must exceed 1")
    return TWO_PI * math.sqrt(cav.n ** 2 - 1.0) / cav.wavelength


def index_for_decay_length(wavelength: float, decay_length: float) -> float:
    """Refractive index giving a target field decay length 1/alpha."""
    require("Positive", wavelength=wavelength, decay_length=decay_length)
    return math.sqrt(1.0 + (wavelength / (TWO_PI * decay_length)) ** 2)


def mode_volume(cav: Microcavity) -> float:
    """Toroid mode volume 2*pi*R * pi*(D_mode/2)^2 (m^3)."""
    return TWO_PI * cav.R * cav.mode_area


def finesse(cav: Microcavity) -> float:
    """Optical finesse F = c / (n_eff * R * kappa)."""
    return C_LIGHT / (cav.n_eff * cav.R * cav.kappa)


def detuning_sq(cav: Microcavity, delta):
    """x = (2*delta/kappa)^2 of the cavity line 1/(1 + x); delta in rad/s.
    x is inf past the float range, for a scalar as for an array."""
    x = 2.0 * delta / cav.kappa
    return x * x  # a float's ** 2 raises OverflowError instead


def sampling_lengths(cav: Microcavity) -> tuple[float, float]:
    """Transverse sampling lengths (l_x, l_y) of the evanescent field.

    l_y = sqrt(pi*R/alpha) along the whispering-gallery trajectory
    (set by the major radius), l_x = sqrt(pi*r/alpha) across it (minor
    radius), with alpha = decay_constant(cav).
    """
    alpha = decay_constant(cav)
    l_y = math.sqrt(math.pi * cav.R / alpha)
    l_x = math.sqrt(math.pi * cav.r / alpha)
    return l_x, l_y


def require_mode_index(n: int) -> None:
    # the parity of n picks the pattern: n = -1 would pass for mode 1
    if not n >= 1:
        raise ValueError(f"require mode index n >= 1, got {n!r}")


def string_mode_frequency(osc: NanoOscillator, n: int) -> float:
    """Stress-dominated string eigenfrequency f_n = (n/2L)*sqrt(S/rho) (Hz)."""
    if osc.kind != "string":
        raise NotAString("mode frequencies defined for string oscillators only")
    require_mode_index(n)
    return (n / (2.0 * osc.L)) * math.sqrt(osc.stress / osc.rho)


def infer_stress(osc: NanoOscillator, measured_f1: float) -> float:
    """Invert the fundamental frequency for tensile stress S = rho*(2L*f1)^2."""
    require("NonNegative", measured_f1=measured_f1)
    return osc.rho * (2.0 * osc.L * measured_f1) ** 2
