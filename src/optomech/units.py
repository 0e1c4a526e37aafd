"""Physical constants and sidedness-tagged spectral densities.

Single-sided spectral densities (defined for positive Fourier frequencies)
carry twice the density of the double-sided convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

# CODATA 2018 values
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K
C_LIGHT = 299792458.0   # m / s

TWO_PI = 2.0 * math.pi

Sidedness = Literal["single", "double"]


@dataclass(frozen=True)
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
        if freqs.size >= 2 and not np.all(np.diff(freqs) > 0):
            raise ValueError("frequencies must be strictly increasing")
        if self.sidedness == "single" and freqs.size and freqs[0] <= 0:
            raise ValueError("single-sided spectra require positive frequencies")
        if self.sidedness not in ("single", "double"):
            raise ValueError(f"unknown sidedness {self.sidedness!r}")


def to_sidedness(s: SpectralDensity, target: Sidedness) -> SpectralDensity:
    """Convert between single- and double-sided conventions (factor 2)."""
    if target not in ("single", "double"):
        raise ValueError(f"unknown sidedness {target!r}")
    if s.sidedness == target:
        return s
    factor = 2.0 if target == "single" else 0.5
    return SpectralDensity(s.frequencies, s.values * factor, target)
