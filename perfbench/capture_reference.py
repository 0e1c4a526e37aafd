"""Regenerate reference.json: the result of every bundled scenario as the
CLI prints it, run cold with --out.

    python3 perfbench/capture_reference.py

The stored file holds the results of the commit that defined the
benchmark; the cli_cold check compares every later run against it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, child_env, import_optomech


def main() -> int:
    import_optomech()
    from optomech import scenarios
    from workloads import REFERENCE_PATH, strict_json
    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in scenarios.SCENARIOS:
            out = subprocess.run(
                [sys.executable, "-m", "optomech.cli", "run", name,
                 "--out", str(Path(tmp) / name)],
                capture_output=True, text=True, env=child_env(), check=True)
            reference[name] = strict_json(out.stdout)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
