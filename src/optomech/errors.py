"""The package's exception hierarchy: each domain error is an
`OptomechError`. A bad argument raises ValueError; a record's bounded
field (`units.record`) and a float argument's bound (`units.require`)
raise it in one form, `require finite x > 0, got -1.0`."""


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
