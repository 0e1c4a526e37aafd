import numpy as np
import pytest

from optomech import SpectralDensity
from optomech.units import to_sidedness


def test_sidedness_involution_and_factor_two():
    f = np.linspace(1e6, 2e6, 101)
    v = 1e-30 / (1.0 + (f - 1.5e6) ** 2 / 1e8)
    s = SpectralDensity(f, v, "single")
    d = to_sidedness(s, "double")
    assert d.sidedness == "double"
    assert np.allclose(d.values * 2.0, s.values, rtol=1e-15)
    back = to_sidedness(d, "single")
    assert np.array_equal(back.values, s.values)
    assert to_sidedness(s, "single") is not None
    assert np.array_equal(to_sidedness(s, "single").values, s.values)


def test_spectral_density_grid_validation():
    with pytest.raises(ValueError):
        SpectralDensity(np.array([2.0, 1.0]), np.array([1.0, 1.0]),
                        "single")
    with pytest.raises(ValueError):
        SpectralDensity(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                        "single")
    with pytest.raises(ValueError):
        SpectralDensity(np.array([1.0, 2.0]), np.array([1.0]), "single")
    with pytest.raises(ValueError):
        SpectralDensity(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                        "sideways")
