"""Exception hierarchy and the finiteness check shared across the package."""

from __future__ import annotations

import math


def require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first field of `obj` in `names` that is
    NaN or infinite. NaN passes every `<=` check, and a NaN integrand keeps
    the adaptive quadrature bisecting to its maximum depth."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"require finite {name}, got {value!r}")


class OptomechError(Exception):
    """Base class for all domain errors raised by this package."""


class NonEvanescent(OptomechError):
    """Refractive index <= 1: no evanescent field outside the resonator."""


class NotAString(OptomechError):
    """Operation defined only for string-type oscillators."""


class GeometryMismatch(OptomechError):
    """Oscillator kind inconsistent with the coupling orientation."""


class OutOfDomain(OptomechError):
    """Coordinate outside the oscillator extent."""


class DivergentMass(OptomechError):
    """Probe overlap with the mode shape vanishes; effective mass diverges."""


class IllConditioned(OptomechError):
    """Fit input does not constrain the model parameters."""


class ZeroPower(OptomechError):
    """Shot-noise floor undefined at zero input power."""


class NoResonanceInWindow(OptomechError):
    """Response data does not bracket the interference extremum pair."""
