"""The exit code and stderr line of every bundled scenario with one float
set to an extreme value, pinned.

For each float-valued key of the 13 bundled scenarios, nested sections
included, and each value in `VALUES`, `optomech run CONFIG` runs the
scenario with that one value replaced. `corpus/extreme_values.json.xz`
holds one row per run, `[scenario, key path, value, exit code, stderr
line]`, with "" for an empty stderr. A change that moves an exit code or
a message on purpose rewrites the table in the same commit; the script
prints every row that moved:

    PYTHONPATH=src python tests/extreme_values.py
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus" / "extreme_values.json.xz"
VALUES = (1e300, -1e300, 1e200, 1e150, 1e-200, 1e-300, 0.0, 5e-324)


def float_keys(config: dict, prefix: str = ""):
    """The dotted path of each float value in a config, in its key order."""
    for key, value in config.items():
        if isinstance(value, dict):
            yield from float_keys(value, f"{prefix}{key}.")
        elif isinstance(value, float):
            yield prefix + key


def cases():
    """(scenario, key path, value) of every run, in the table's order."""
    from optomech import scenarios
    for name in scenarios.SCENARIOS:
        for path in float_keys(scenarios.get_scenario(name)):
            for value in VALUES:
                yield name, path, value


def run(name: str, path: str, value: float, config_file: Path
        ) -> tuple[int, str, str]:
    """(exit code, stderr, stdout) of `optomech run` on `name` with the
    value at `path` set, through one config file."""
    from optomech import cli, scenarios
    config = scenarios.get_scenario(name)
    *sections, key = path.split(".")
    section = config
    for part in sections:
        section = section[part]
    section[key] = value
    config_file.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(config_file)])
    return code, err.getvalue(), out.getvalue()


def reference() -> list[list]:
    """The pinned rows."""
    return json.loads(lzma.decompress(CORPUS.read_bytes()))


def main():
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        config_file = Path(tmp) / "config.json"
        for name, path, value in cases():
            code, err, _ = run(name, path, value, config_file)
            assert err.count("\n") <= 1, (name, path, value, err)
            rows.append([name, path, value, code, err.rstrip("\n")])
    old = ({tuple(row[:3]): row for row in reference()}
           if CORPUS.exists() else {})
    for row in rows:
        if old and old.get(tuple(row[:3])) != row:
            print(f"moved: {row}")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_bytes(lzma.compress(
        json.dumps(rows).encode("utf-8"), preset=9))
    codes = [row[3] for row in rows]
    counts = ", ".join(f"{codes.count(code)} exit {code}"
                       for code in sorted(set(codes)))
    print(f"{len(rows)} runs pinned in {CORPUS.name}: {counts}")


if __name__ == "__main__":
    main()
