import ast
import dataclasses
import functools
import importlib
import math
import pkgutil
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optomech
from optomech import SpectralDensity, runner, scenarios
from optomech.units import BOUNDS
from conftest import OUTSIDE, make_cavity, make_string, to_sidedness


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


MODULES = [importlib.import_module(f"optomech.{info.name}")
           for info in pkgutil.iter_modules(optomech.__path__)]


def _record_classes() -> dict:
    """Every class that a module of the package defines as a record."""
    classes = {}
    for module in MODULES:
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
        "ProbeProfile": dict(l_y=1e-6),
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
    "ProbeProfile": {"l_y": "NonNegative", "center_offset": "Finite"},
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


def test_bound_message_is_formatted_only_in_units():
    # `require finite x > 0, got -1.0` is one f-string, in units.py: a
    # module that formats it itself forks the form
    found = []
    for path in sorted(Path(optomech.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.JoinedStr) and node.values
                    and isinstance(node.values[0], ast.Constant)
                    and node.values[0].value.startswith("require finite")):
                found.append(path.name)
    assert found == ["units.py"]


# A change of units: m, s, kg and K become 2^a, 2^b, 2^c and 2^d of
# themselves. Power-of-two factors commute exactly with + - * / and sqrt,
# barring overflow and subnormals, so a program correct in its units
# returns every value times the factor of its unit string, bit for bit.
# b is even, so that Hz^0.5 scales by a power of two too.

# a config key's or CSV column's unit, by suffix; the longest suffix first
SUFFIX_UNITS = {"_m2_per_w": "m^2/W", "_m_per_sqrt_hz": "m/Hz^0.5",
                "_hz2_per_nm2": "Hz^2/nm^2", "_hz_per_nm": "Hz/nm",
                "_kg_per_m3": "kg/m^3", "_kg": "kg", "_hz": "Hz", "_pa": "Pa",
                "_w": "W", "_k": "K", "_m": "m"}
DIMENSIONLESS = {"schema_version", "refractive_index", "effective_index",
                 "surface_field_fraction", "quality_factor", "points",
                 "mode_index", "branch", "h_mag"}
# the constants in SI units, rebound in every module that imports them
CONSTANT_UNITS = {"HBAR": "kg*m^2/s", "K_B": "kg*m^2/(s^2*K)",
                  "C_LIGHT": "m/s"}


def _factor(unit: str, scale) -> float:
    """The factor of a unit string such as `Hz/(Hz/nm)^2` under `scale`,
    the exponents (a, b, c, d) of m, s, kg and K."""
    m, s, kg, k = (2.0 ** e for e in scale)
    names = {"m": m, "nm": m, "s": s, "Hz": 1 / s, "kg": kg, "K": k,
             "N": kg * m / s ** 2, "Pa": kg / (m * s ** 2),
             "W": kg * m ** 2 / s ** 3, "rad": 1.0, "dB": 1.0}
    return eval(unit.replace("^", "**"), {"__builtins__": {}}, names)


def _unit(key: str, fallback: str | None = None) -> str:
    unit = next((u for suffix, u in SUFFIX_UNITS.items()
                 if key.endswith(suffix)), fallback)
    if unit is None:
        assert key in DIMENSIONLESS, f"no unit known for `{key}`"
        unit = "1"
    return unit


def _scaled(config: dict, scale) -> dict:
    """`config` with each number in the scaled units; the factor of `1` is
    the int 1, so an integer stays an integer."""
    scaled = {}
    for key, value in config.items():
        if isinstance(value, dict):
            value = _scaled(value, scale)
        elif type(value) in (int, float):
            value *= _factor(_unit(key), scale)
        scaled[key] = value
    return scaled


def _run(config: dict, scale) -> tuple[dict, dict]:
    """run_scenario's results and tables (unwritten) in the scaled units,
    the config's values given in them."""
    tables = {}
    with pytest.MonkeyPatch.context() as mp:
        for module in MODULES:
            for name, unit in CONSTANT_UNITS.items():
                if name in vars(module):
                    mp.setattr(module, name,
                               vars(module)[name] * _factor(unit, scale))
        mp.setattr(runner, "_write_tables", lambda _, t: tables.update(t))
        results = runner.run_scenario(_scaled(config, scale), Path())
    return results["results"], tables


def _response_fit(scale) -> tuple[dict, dict]:
    """The fit-response run on the response scenario's own curve, both in
    the scaled units."""
    config = scenarios.get_scenario("paper_response_interference")
    _, tables = _run(config, scale)
    with tempfile.TemporaryDirectory() as tmp:
        runner._write_tables(Path(tmp), tables)
        config.update(analysis="fit-response",
                      data_csv=str(Path(tmp) / "response.csv"))
        # `_run` scales the config's numbers; the curve is scaled already
        return _run(config, scale)


@functools.cache
def _unscaled() -> dict:
    """Each bundled scenario's and the response fit's run in SI units."""
    runs = {name: _run(scenarios.get_scenario(name), (0, 0, 0, 0))
            for name in scenarios.SCENARIOS}
    runs["fit-response"] = _response_fit((0, 0, 0, 0))
    return runs


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(st.tuples(st.integers(-40, 40),
                 st.integers(-20, 20).map(lambda k: 2 * k),
                 st.integers(-40, 40), st.integers(-40, 40)))
def test_results_rescale_exactly_with_the_units(scale):
    for name, (results, tables) in _unscaled().items():
        got, got_tables = (_response_fit(scale) if name == "fit-response"
                           else _run(scenarios.get_scenario(name), scale))
        for key, q in results.items():
            expected = (q["value"] if q["unit"] == "enum"
                        else q["value"] * _factor(q["unit"], scale))
            assert got[key]["value"] == expected, (name, key, q["unit"])
        for file, (header, columns, text) in tables.items():
            # a column without a unit in its name has the table's `unit`
            unit = dict(zip(header[len(columns):], text)).get("unit")
            for head, column, got_column in zip(header, columns,
                                                got_tables[file][1]):
                factor = _factor(_unit(head, unit), scale)
                assert np.array_equal(got_column, column * factor), \
                    (name, file, head)


def _documented_results() -> list:
    """(analysis, key, unit) of each row of README's results reference."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("#### Results")[1]
    rows, analysis = [], None
    for line in section.split("\n## ")[0].splitlines():
        if heading := re.fullmatch(r"`([a-z-]+)`", line):
            analysis = heading[1]
        elif row := re.match(r"\| `([^`]+)` \| `([^`]+)` \|", line):
            rows.append((analysis, row[1], row[2]))
    return sorted(rows)


def test_readme_lists_every_result_key_with_its_unit():
    # the bundled scenarios and the response fit with a cavity reach every
    # key of every analysis; README documents each one once
    emitted = set()
    for name, (results, _) in _unscaled().items():
        analysis = (name if name == "fit-response"
                    else scenarios.get_scenario(name)["analysis"])
        emitted |= {(analysis, key, q["unit"]) for key, q in results.items()}
    assert _documented_results() == sorted(emitted)
