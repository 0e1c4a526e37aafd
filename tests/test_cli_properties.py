"""Property test of the CLI boundary: a bundled scenario with one key
dropped or one value replaced by a wrong type, a non-finite, negative,
vanishing or huge number, or a string still gets exit 0/1/2/3, a one-line
error on stderr, and strict JSON on stdout."""

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
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path)])
    assert code in (0, 1, 2, 3)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
