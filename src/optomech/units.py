"""Physical constants, sidedness-tagged spectral densities, and what
every module takes from here: the lazy `np` handle, `record`, the bounds
of its fields and `require`, which holds an argument to one of them.

Single-sided spectral densities (defined for positive Fourier frequencies)
carry twice the density of the double-sided convention.
"""

from __future__ import annotations

import math
import sys
from typing import Literal

# CODATA 2018 values
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K
C_LIGHT = 299792458.0   # m / s

TWO_PI = 2.0 * math.pi

Sidedness = Literal["single", "double"]

# A record field's bound, named by its annotation; to a type checker each
# is `float`. Name -> (its words in "require finite x > 0, got ...", the
# least float that meets it). No bound admits a float above _MAX, so NaN
# and both infinities fail each one, and math.ulp(0.0) is the least
# float > 0.
Finite = Positive = NonNegative = float
_MAX = sys.float_info.max
BOUNDS = {"Finite": ("", -_MAX),
          "Positive": (" > 0", math.ulp(0.0)),
          "NonNegative": (" >= 0", 0.0)}


class _Numpy:
    """numpy, imported on the first attribute read.

    numpy's import is about half of a cold CLI run, and `list-scenarios`,
    `--help` and the `coupling` analysis use no array. The first read of
    each attribute imports numpy and caches the attribute here. An `np.`
    read at import time (a module constant, a default argument) would
    import numpy on every run again.
    """

    def __getattr__(self, name):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


def _outside(name: str, words: str, value) -> ValueError:
    """The one error of a field or an argument outside its bound."""
    return ValueError(f"require finite {name}{words}, got {value!r}")


def require(bound: str, **values) -> None:
    """Raise ValueError, as a record field would, for the first name=value
    outside the BOUNDS entry `bound`: `require finite g > 0, got inf`. Any
    value but a number (which loads no numpy) is an array, and the message
    names its first element outside: `require finite omega, got nan`."""
    words, least = BOUNDS[bound]
    for name, value in values.items():
        if isinstance(value, (int, float)):
            if not least <= value <= _MAX:
                raise _outside(name, words, value)
            continue
        value = np.asarray(value)
        inside = (value >= least) & (value <= _MAX)
        if not inside.all():
            raise _outside(name, words, value.flat[inside.argmin()].item())


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


def _init(self, *args, **kwargs):
    cls = type(self)
    names = cls.__match_args__
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                        f"arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                            f"argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__name__}() got multiple values for "
                            f"argument {name!r}")
        values[name] = value
    # object.__setattr__, not self.__dict__: touching an instance's
    # __dict__ makes CPython move its attributes into a real dict, which
    # slows every later attribute read (effective_mass by ~20%)
    for name in names:
        if name in values:
            object.__setattr__(self, name, values[name])
        elif name in cls.__dict__:      # the default, a class attribute
            object.__setattr__(self, name, cls.__dict__[name])
        else:
            raise TypeError(f"{cls.__name__}() missing required argument "
                            f"{name!r}")
    for name, (words, least) in cls._bounds.items():
        value = getattr(self, name)
        if not least <= value <= _MAX:
            raise _outside(name, words, value)
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self):
    return hash(_values(self))


def _repr(self):
    fields = ", ".join(f"{name}={value!r}" for name, value
                       in zip(type(self).__match_args__, _values(self)))
    return f"{type(self).__qualname__}({fields})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a "
                         f"{type(self).__name__}")


def record(cls):
    """Make `cls` a frozen record of its annotated fields, in order.

    Installs shared methods in place of generated ones: `__match_args__`
    (the field names); an `__init__` taking fields by position or keyword,
    with class-attribute defaults, that then checks the bound of each field
    annotated `Finite`, `Positive` or `NonNegative` (in `_bounds`, field ->
    its BOUNDS entry) and calls `__post_init__` if the class has one;
    `__eq__`, `__hash__` and a `Name(field=value, ...)` `__repr__` over the
    field values; and a `__setattr__` and
    `__delattr__` that raise AttributeError. That is all the package used
    of `dataclass(frozen=True)`, which `exec`s six methods per class and
    whose import loads `inspect`: 5-7% of a cold run together.

    The annotations are read as text, which `from __future__ import
    annotations` makes them, and never evaluated: that would import numpy
    for `SpectralDensity`'s `np.ndarray`.
    """
    cls.__match_args__ = tuple(cls.__annotations__)
    cls._bounds = {name: BOUNDS[text] for name, text
                   in cls.__annotations__.items() if text in BOUNDS}
    cls.__init__, cls.__eq__, cls.__hash__ = _init, _eq, _hash
    cls.__repr__ = _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


@record
class SpectralDensity:
    """Displacement PSD samples (m^2/Hz) on an ordered grid of Fourier
    frequencies (Hz).

    The sidedness tag makes the factor-2 convention explicit: single-sided
    values are twice the double-sided ones on the positive-frequency axis.
    """

    frequencies: np.ndarray
    values: np.ndarray
    sidedness: Sidedness

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)
        if freqs.ndim != 1 or vals.shape != freqs.shape:
            raise ValueError("frequencies and values must be 1-D and congruent")
        if not (freqs[1:] > freqs[:-1]).all():     # NaN fails too
            raise ValueError("frequencies must be strictly increasing")
        if self.sidedness == "single" and freqs.size and freqs[0] <= 0:
            raise ValueError("single-sided spectra require positive frequencies")
        if self.sidedness not in ("single", "double"):
            raise ValueError(f"unknown sidedness {self.sidedness!r}")

