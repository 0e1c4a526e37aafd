import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import optomech
from optomech import SpectralDensity
from optomech.units import BOUNDS
from conftest import make_cavity, make_string, to_sidedness


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


@pytest.mark.parametrize("freqs, increasing", [
    ([1.0, 1.0], False),
    ([1.0, 2.0, 2.0, 3.0], False),
    ([math.nan, 1.0, 2.0], False),
    ([1.0, math.nan, 2.0], False),
    ([1.0, 2.0, math.nan], False),
    ([1.0, math.inf, math.inf], False),
    ([1.0, 2.0, math.inf], True),
    ([-math.inf, 0.0, 1.0], True),
    ([1.0], True),
    ([], True),
])
def test_spectral_density_requires_strictly_increasing(freqs, increasing):
    f = np.array(freqs, dtype=float)
    if increasing:
        SpectralDensity(f, np.ones_like(f), "double")
    else:
        with pytest.raises(ValueError, match="strictly increasing"):
            SpectralDensity(f, np.ones_like(f), "double")


def _record_classes() -> dict:
    """Every class that a module of the package defines as a record."""
    classes = {}
    for info in pkgutil.iter_modules(optomech.__path__):
        module = importlib.import_module(f"optomech.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and "__match_args__" in vars(obj)):
                classes[obj.__name__] = obj
    return classes


RECORDS = _record_classes()


def _sample(name: str) -> dict:
    """Valid constructor keywords; fields with defaults are left out."""
    f = np.array([1.0, 2.0])
    psd = SpectralDensity(f, 1e-30 * f, "single")
    return {
        "SpectralDensity": dict(frequencies=f, values=1e-30 * f,
                                sidedness="single"),
        "Microcavity": vars(make_cavity()),
        "NanoOscillator": vars(make_string()),
        "CouplingGeometry": dict(x0=1e-7, orientation="horizontal"),
        "MechanicalMode": dict(omega_m=1e7, gamma_m=1e2, m_eff=1e-15),
        "ProbeProfile": dict(shape="gaussian", l_y=1e-6),
        "DriveCondition": dict(p_in=1e-4),
        "ResponseCurve": dict(frequencies_hz=f, magnitudes=f),
        "ResponseFit": dict(a1=1.0, omega_m=2.0, gamma_m=3.0, g_eff=4.0,
                            residual_norm=5.0),
        "ShiftCurve": dict(points=[(0.0, -2.0), (1e-7, -1.0)]),
        "ExpFit": dict(amplitude=1.0, decay_length=2.0, residual_norm=3.0),
        "StandingWaveShift": dict(shift=-1.0, g1=2.0, g2=3.0),
        "LeastSquaresResult": dict(x=f, fsq=5.0, nfev=3, status=1),
        "NoiseBudget": dict(signal=psd, background=psd, total=psd,
                            snr_db=1.0, imprecision=2.0),
        "BackactionResult": dict(gamma_ba=-1.0, gamma_total=2.0,
                                 regime="amplification"),
        "OscillationState": dict(amplitude=0.0, modulation_depth=0.5),
    }[name]


# a value that each record rejects, in its __post_init__ or a field's bound
BAD = {
    "SpectralDensity": ("sidedness", "sideways"),
    "Microcavity": ("xi", 2.0),
    "NanoOscillator": ("Q", 1.0),
    "CouplingGeometry": ("x0", -1e-9),
    "MechanicalMode": ("m_eff", 0.0),
    "ProbeProfile": ("l_y", -1e-6),
    "DriveCondition": ("p_in", -1.0),
    "ResponseCurve": ("magnitudes", [-1.0, 1.0]),
    "ShiftCurve": ("points", [(0.0, -1.0), (1e-7, 1.0)]),
}


# every field that a record bounds, by its bound
BOUNDED = {
    "Microcavity": {"R": "Positive", "r": "Positive",
                    "wavelength": "Positive", "n": "Positive",
                    "n_eff": "Positive", "kappa": "Positive",
                    "D_mode": "Positive", "xi": "Positive", "n2": "Finite"},
    "NanoOscillator": {"L": "Positive", "w": "Positive", "t": "Positive",
                       "rho": "Positive", "stress": "Positive",
                       "n_nano": "Finite", "Q": "Finite"},
    "CouplingGeometry": {"x0": "NonNegative"},
    "DriveCondition": {"p_in": "NonNegative", "detuning": "Finite",
                       "temperature": "Positive"},
    "MechanicalMode": {"omega_m": "Positive", "gamma_m": "Positive",
                       "m_eff": "Positive"},
    "ProbeProfile": {"l_y": "Finite", "center_offset": "Finite"},
}


def _bounded(cls) -> dict:
    return {field: text for field, text in cls.__annotations__.items()
            if text in BOUNDS}


def test_records_are_found():
    assert len(RECORDS) == 16
    for name in RECORDS:
        _sample(name)
    assert set(BAD) == {name for name, cls in RECORDS.items()
                        if hasattr(cls, "__post_init__") or _bounded(cls)}
    assert {name: _bounded(cls) for name, cls in RECORDS.items()
            if _bounded(cls)} == BOUNDED
    # the benchmark's tracer wraps these as class methods
    for cls in (optomech.ShiftCurve, optomech.ResponseCurve):
        assert isinstance(cls.__dict__["from_csv"], classmethod)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    cls = RECORDS[name]
    fields = cls.__match_args__
    assert fields == tuple(cls.__annotations__)
    # read as text: an evaluated `Positive` is `float`, and its bound lost
    assert all(isinstance(a, str) for a in cls.__annotations__.values())
    obj = cls(**_sample(name))
    values = [getattr(obj, field) for field in fields]
    twin = cls(*values)
    assert twin == obj and not twin != obj
    # what dataclass(frozen=True) wrote for the same field values
    reference = dataclasses.make_dataclass(name, fields, frozen=True)(*values)
    assert repr(obj) == repr(reference)
    assert repr(obj).startswith(f"{name}({fields[0]}=")
    assert obj != reference
    try:
        expected = hash(reference)
    except TypeError:       # a field holds an array
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == expected
    match obj:
        case cls(first):
            assert first is values[0]
    for field in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, field, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert getattr(obj, fields[0]) is values[0]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_arguments(name):
    cls = RECORDS[name]
    first, *rest = cls.__match_args__
    kwargs = _sample(name)
    values = [getattr(cls(**kwargs), field) for field in cls.__match_args__]
    with pytest.raises(TypeError, match="missing"):
        cls(**{k: v for k, v in kwargs.items() if k != first})
    with pytest.raises(TypeError, match="unexpected"):
        cls(**kwargs, not_a_field=1.0)
    with pytest.raises(TypeError, match="multiple values"):
        cls(values[0], **kwargs)
    with pytest.raises(TypeError, match="positional"):
        cls(*values, values[0])


@pytest.mark.parametrize("name", sorted(BAD))
def test_record_post_init_rejects(name):
    cls = RECORDS[name]
    field, bad = BAD[name]
    kwargs = {**_sample(name), field: bad}
    with pytest.raises(ValueError):
        cls(**kwargs)
    valid = cls(**_sample(name))
    values = [bad if f == field else getattr(valid, f)
              for f in cls.__match_args__]
    with pytest.raises(ValueError):
        cls(*values)


# each bound's words in the message, and the nearest floats outside it
# besides NaN and both infinities
OUTSIDE = {"Finite": ("", ()), "Positive": (" > 0", (0.0,)),
           "NonNegative": (" >= 0", (-5e-324,))}


@pytest.mark.parametrize("name, field, bound", [
    (name, field, bound) for name, fields in BOUNDED.items()
    for field, bound in fields.items()])
def test_record_rejects_a_value_outside_its_field_bound(name, field, bound):
    words, nearest = OUTSIDE[bound]
    for value in (math.nan, math.inf, -math.inf, *nearest):
        with pytest.raises(ValueError) as info:
            RECORDS[name](**{**_sample(name), field: value})
        assert str(info.value) == \
            f"require finite {field}{words}, got {value!r}"
