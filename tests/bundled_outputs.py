"""The bytes of every bundled scenario's outputs, pinned.

For each of the 13 bundled scenarios, `optomech run <name> --out DIR`
writes `result.json` and its CSVs and prints the result on stdout.
`bundled/manifest.json` holds one sha256 per such file, stdout included,
beside the numpy version and CPU features of the host that wrote it;
`bundled/outputs.json.xz` holds the files themselves, so that a test can
name the first line that moved. A change that moves these bytes on
purpose rewrites both and lists the moves:

    PYTHONPATH=src python tests/bundled_outputs.py

numpy picks its SIMD kernels by CPU, so another host may write a few
ulp apart; `test_bundled_outputs.py` then compares numbers to within
`MAX_ULP` and the text between them exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import lzma
import re
import struct
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent / "bundled"
MANIFEST = HERE / "manifest.json"
OUTPUTS = HERE / "outputs.json.xz"
MAX_ULP = 4

# a decimal number as the JSON and CSV writers print it
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def host() -> dict:
    """What the bytes depend on besides the code: numpy's version and the
    SIMD features it dispatches to on this CPU."""
    from numpy._core._multiarray_umath import (
        __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    return {"numpy": np.__version__,
            "cpu_baseline": list(__cpu_baseline__),
            "cpu_features": [f for f in __cpu_dispatch__
                             if __cpu_features__.get(f)]}


def generate(out_dir: Path) -> dict[str, bytes]:
    """Run every bundled scenario into `out_dir`; its files and stdout by
    path relative to `out_dir` (`<scenario>/stdout` for stdout)."""
    from optomech import cli, scenarios
    for name in scenarios.SCENARIOS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["run", name, "--out", str(out_dir / name)]) == 0
        (out_dir / name / "stdout").write_text(stdout.getvalue(),
                                               encoding="utf-8")
    return {path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference() -> dict[str, str]:
    """The pinned files' text by relative path."""
    return json.loads(lzma.decompress(OUTPUTS.read_bytes()))


def ulps(a: float, b: float) -> int:
    """How many doubles apart a and b are."""
    def ordinal(x: float) -> int:
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(ordinal(a) - ordinal(b))


def line_ulps(line: str, ref: str) -> int | None:
    """The largest ulp distance between the numbers of two lines, or None
    if the text around the numbers differs."""
    parts, ref_parts = _NUMBER.split(line), _NUMBER.split(ref)
    if len(parts) != len(ref_parts) or parts[::2] != ref_parts[::2]:
        return None
    return max((ulps(float(a), float(b))
                for a, b in zip(parts[1::2], ref_parts[1::2])), default=0)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        outputs = generate(Path(tmp))
    old = (json.loads(MANIFEST.read_text(encoding="utf-8"))["sha256"]
           if MANIFEST.exists() else {})
    hashes = {path: sha256(data) for path, data in outputs.items()}
    for path in sorted(set(old) | set(hashes)):
        if old.get(path) != hashes.get(path):
            print(f"moved: {path}")
    HERE.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"host": host(), "sha256": hashes},
                                   indent=1) + "\n", encoding="utf-8")
    text = {path: data.decode("utf-8") for path, data in outputs.items()}
    OUTPUTS.write_bytes(lzma.compress(json.dumps(text).encode("utf-8"),
                                      preset=9))
    print(f"{len(hashes)} files pinned in {MANIFEST.name} and {OUTPUTS.name}")


if __name__ == "__main__":
    main()
