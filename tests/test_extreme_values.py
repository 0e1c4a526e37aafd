"""Every bundled scenario with one float set to an extreme value, against
the exit code and stderr line pinned in `corpus/` (see
`extreme_values.py`)."""

import json

import extreme_values


def _reject(token):
    raise ValueError(f"{token} is not JSON")


def test_extreme_values_keep_their_exit_code_and_message(tmp_path):
    pinned = extreme_values.reference()
    assert [row[:3] for row in pinned] == [
        list(case) for case in extreme_values.cases()]
    config_file, moved = tmp_path / "config.json", []
    for name, path, value, code, message in pinned:
        got, err, out = extreme_values.run(name, path, value, config_file)
        if got == 0:    # strict JSON: no NaN or Infinity token
            json.loads(out, parse_constant=_reject)
        if [got, err.rstrip("\n")] != [code, message]:
            moved.append(f"{name} {path}={value!r}: exit {got} {err!r}, "
                         f"pinned exit {code} {message!r}")
    assert not moved, f"{len(moved)} of {len(pinned)} moved:\n" + "\n".join(
        moved[:20])
