"""Command-line interface.

Exit codes: 0 success, 1 I/O failure, 2 config/parse error, 3 domain
error (non-evanescent geometry, divergent mass, fit failure, arithmetic
overflow, a non-finite result, any ValueError after the config is read).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import scenarios
from .errors import OptomechError
from .runner import ConfigError, run_scenario


def _emit(payload: dict, out_dir: Path | None):
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out_dir is not None:
        (out_dir / "result.json").write_text(text + "\n", encoding="utf-8")
    print(text)


def _load_config(target: str) -> dict:
    if target in scenarios.SCENARIOS:
        return scenarios.get_scenario(target)
    path = Path(target)
    if not path.exists():
        raise FileNotFoundError(
            f"no bundled scenario or file named {target!r}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    # ValueError covers bytes that are not UTF-8 and integer literals
    # longer than Python converts; RecursionError, nesting too deep to parse
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {target}: {exc}") from exc


def _cmd_run(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    config = _load_config(args.scenario)
    result = run_scenario(config, out_dir)
    _emit(result, out_dir)
    return 0


def _cmd_list(args) -> int:
    for name, description in scenarios.list_scenarios():
        print(f"{name}\t{description}")
    return 0


def _cmd_fit(args) -> int:
    config = {"schema_version": 1, "analysis": args.command,
              "data_csv": args.csv}
    _emit(run_scenario(config), None)
    return 0


def _describe(exc: Exception) -> str:
    """A domain error's message. A float overflow or division by zero gets
    its text without the errno tuple of `**`, then the innermost package
    function it came from: `... out of range in devices.decay_constant`."""
    if not isinstance(exc, (OverflowError, ZeroDivisionError)):
        return str(exc)
    import traceback
    where = "optomech"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        name = frame.f_globals.get("__name__", "")
        if name.startswith("optomech."):
            where = f"{name.removeprefix('optomech.')}.{frame.f_code.co_name}"
    return f"{exc.args[-1] if exc.args else ''} in {where}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optomech",
        description="Near-field cavity optomechanics calculations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario (bundled name or "
                                       "JSON config path)")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="directory for result.json and CSVs")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list-scenarios", help="list bundled scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_fs = sub.add_parser("fit-shift",
                          help="fit exp decay to a shift-vs-gap CSV "
                               "(columns x0_m, dfreq_hz)")
    p_fs.add_argument("csv")
    p_fs.set_defaults(func=_cmd_fit)

    p_fr = sub.add_parser("fit-response",
                          help="fit interference model to a response CSV "
                               "(columns freq_hz, h_mag)")
    p_fr.add_argument("csv")
    p_fr.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite value is reported once, as an error, not as numpy
        # RuntimeWarnings; unlike np.errstate, this does not import numpy
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OptomechError, ArithmeticError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {_describe(exc)}",
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
