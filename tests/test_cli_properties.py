"""Property tests of the CLI boundary: a bundled scenario with one key
dropped or one value replaced by a wrong type, a non-finite, negative,
vanishing or huge number, or a string still gets exit 0/1/2/3, a one-line
error on stderr that names a `$`-path on exit 2, and strict JSON on
stdout. An unknown key, and a bool or a numeric string where a number
belongs, exit 2 naming their path. A measured-data CSV of arbitrary
finite numbers sent to `fit-shift` or `fit-response` keeps the same
contract, and its exit-2 messages name `$.data_csv`."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import scenarios
from optomech.cli import main
from optomech.runner import SCHEMA


def _key_paths(config: dict, prefix=()):
    for key, value in config.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=-1e-300, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-300),
    st.integers(max_value=-1),
    st.integers(min_value=10 ** 9, max_value=10 ** 400),
)


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_mutated_scenarios_keep_the_cli_contract(data):
    config = scenarios.get_scenario(
        data.draw(st.sampled_from(sorted(scenarios.SCENARIOS))))
    *parents, key = data.draw(st.sampled_from(list(_key_paths(config))))
    section = config
    for parent in parents:
        section = section[parent]
    if data.draw(st.booleans(), label="drop"):
        del section[key]
    else:
        section[key] = data.draw(BAD_VALUES)
    code, out, err = _run(config)
    assert code in (0, 1, 2, 3)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert code != 2 or "`$" in lines[0]
        # a float overflow names its function, not Python's errno tuple
        assert code != 3 or "(34, " not in lines[0]


def _run(config: dict) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `optomech run` on `config`."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path)])
    return code, out.getvalue(), err.getvalue()


def _json_path(keys) -> str:
    return "$" + "".join(f".{key}" if key.isidentifier() else f"[{key!r}]"
                         for key in keys)


def _assert_exit_2_naming(config: dict, keys):
    code, out, err = _run(config)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"`{_json_path(keys)}`" in lines[0]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_unknown_key_exits_2_naming_its_path(data):
    config = scenarios.get_scenario(
        data.draw(st.sampled_from(sorted(scenarios.SCENARIOS))))
    sections = [()] + [(key,) for key, value in config.items()
                       if isinstance(value, dict)]
    parents = data.draw(st.sampled_from(sections))
    section, table = config, SCHEMA
    for parent in parents:
        section, table = section[parent], table[parent][0]
    key = data.draw(st.text(max_size=12).filter(lambda k: k not in table),
                    label="key")
    section[key] = data.draw(st.one_of(st.none(), st.integers(),
                                       st.text(max_size=4),
                                       st.dictionaries(st.text(max_size=3),
                                                       st.integers(),
                                                       max_size=2)))
    _assert_exit_2_naming(config, parents + (key,))


NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.sampled_from(["4", "1_0", "1_0.6e6", " 5 ", "nan", "-inf", "0x10"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers().map(str),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_bool_or_numeric_string_number_exits_2_naming_its_path(data):
    config = scenarios.get_scenario(
        data.draw(st.sampled_from(sorted(scenarios.SCENARIOS))))
    numbers = []
    for keys in _key_paths(config):
        section = config
        for parent in keys[:-1]:
            section = section[parent]
        value = section[keys[-1]]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers.append((section, keys))
    section, keys = data.draw(st.sampled_from(numbers))
    section[keys[-1]] = data.draw(NOT_NUMBERS)
    _assert_exit_2_naming(config, keys)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0]),
)
POSITIVE = FINITE.map(abs).filter(lambda v: v > 0)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_measured_csv_keeps_the_cli_contract(data):
    command = data.draw(st.sampled_from(["fit-shift", "fit-response"]))
    # positive responses and red shifts, 10 rows or more, get past the
    # input checks to the fits
    physical = data.draw(st.booleans(), label="physical")
    if not physical:
        row = st.tuples(FINITE, FINITE)
    elif command == "fit-response":
        row = st.tuples(POSITIVE, POSITIVE)
    else:
        row = st.tuples(FINITE, FINITE.map(lambda v: -abs(v)))
    rows = data.draw(st.lists(row, min_size=10 if physical else 0,
                              max_size=16))
    header = "freq_hz,h_mag" if command == "fit-response" \
        else "x0_m,dfreq_hz"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(header + "\n" + "".join(f"{a!r},{b!r}\n"
                                                 for a, b in rows))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert code != 2 or lines[0].startswith("error: `$.data_csv`: ")
