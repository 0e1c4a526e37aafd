"""Every bundled scenario's result.json, CSVs and stdout, against the bytes
pinned in `bundled/` (see `bundled_outputs.py`)."""

import json

import numpy as np

import bundled_outputs
from bundled_outputs import MAX_ULP, line_ulps, sha256


def test_reference_matches_manifest():
    manifest = json.loads(bundled_outputs.MANIFEST.read_text())
    reference = bundled_outputs.reference()
    assert len(manifest["sha256"]) == 33
    assert {path: sha256(text.encode("utf-8"))
            for path, text in reference.items()} == manifest["sha256"]
    assert manifest["host"].keys() == bundled_outputs.host().keys()


def test_bundled_outputs_match_manifest(tmp_path):
    manifest = json.loads(bundled_outputs.MANIFEST.read_text())
    outputs = bundled_outputs.generate(tmp_path)
    assert sorted(outputs) == sorted(manifest["sha256"])
    moved = [path for path, data in outputs.items()
             if sha256(data) != manifest["sha256"][path]]
    if not moved:
        return
    # bytes are pinned on the host that wrote them; elsewhere numpy's SIMD
    # kernels may round differently, so numbers get a few ulp
    same_host = manifest["host"] == bundled_outputs.host()
    reference = bundled_outputs.reference()
    worst = 0
    for path in moved:
        lines = outputs[path].decode("utf-8").splitlines()
        ref_lines = reference[path].splitlines()
        assert len(lines) == len(ref_lines), \
            f"{path}: {len(lines)} lines, pinned {len(ref_lines)}"
        for number, (line, ref) in enumerate(zip(lines, ref_lines), 1):
            if line == ref:
                continue
            distance = line_ulps(line, ref)
            where = f"{path}, line {number}: {line!r}, pinned {ref!r}"
            assert distance is not None, f"{where}: text differs"
            assert not same_host, f"{where}: {distance} ulp on the host " \
                "that pinned it"
            assert distance <= MAX_ULP, f"{where}: {distance} ulp"
            worst = max(worst, distance)
    print(f"{len(moved)} files within {worst} ulp of the pinned bytes")


def test_line_ulps():
    x = 24.643810799253806
    y = float(np.nextafter(np.nextafter(x, np.inf), np.inf))
    assert line_ulps(f"{x!r},{-x!r}", f"{y!r},{-y!r}") == 2
    assert line_ulps(f"{x!r}", f"{x!r}") == 0
    assert line_ulps('"a": 1e-07', '"a": 1.0000000000000001e-07') == 1
    assert line_ulps("0.0", "-0.0") == 0
    assert line_ulps("5e-324", "-5e-324") == 2
    assert line_ulps("f2a,1.0", "f2b,1.0") is None
    assert line_ulps("1.0,2.0", "1.0") is None

