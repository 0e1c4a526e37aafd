"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at its smallest size, untraced and traced, and checks
that the printed metric names and units match BENCHMARK.json. Then feeds
each workload's check a deliberately corrupted output and checks that the
loop counts it as a failure. Exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace),
         "--smallest"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_printed(workload: str):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (workload, key, set(got) ^ set(want))
        for name, m in result["metrics"].items():
            assert math.isfinite(m["value"]), (workload, name)
            if trace == 0:
                assert m["value"] > 0, (workload, name)


def corrupt_cli(workload, output):
    code, stdout, stderr, out = output
    bad = re.sub(r'"value": [-0-9.e+]+', '"value": NaN', stdout, count=1)
    (out / "result.json").write_text(bad, encoding="utf-8")
    return code, bad, stderr, out


def corrupt_mass(workload, result):
    result["results"]["effective_mass_kg"]["value"] *= 1.001
    return result


def corrupt_artifacts(workload, result):
    path = workload.out / result["artifacts"][0]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    return result


def corrupt_fit(workload, result):
    key = "decay_length_m" if result["analysis"] == "fit-shift" \
        else "omega_m_hz"
    result["results"][key]["value"] *= 1.2
    return result


class Corrupted:
    """A workload whose outputs are corrupted before they are checked."""

    def __init__(self, inner, corrupt, keep):
        self.inner, self.corrupt, self.keep = inner, corrupt, keep
        self.span = inner.span
        self.speed_reference = inner.speed_reference

    def ops(self):
        return (op for op in self.inner.ops() if self.keep(op))

    def execute(self, op):
        return self.corrupt(self.inner, self.inner.execute(op))

    def verify(self, op, output):
        return self.inner.verify(op, output)


def check_corruption_counted():
    every = lambda op: True  # noqa: E731
    cases = {
        "cli_cold": (corrupt_cli, every),
        "sweep_derived": (corrupt_mass,
                          lambda op: op["oscillator"]["mode_index"] == 1),
        "artifacts_write": (corrupt_artifacts, every),
        "fit_measured": (corrupt_fit, every),
    }
    work = run.BUILD / "perfbench" / "smoke"
    for name, (corrupt, keep) in cases.items():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            inner = workloads.WORKLOADS[name](0, work, True, run.child_env())
            loop = run.run_loop(Corrupted(inner, corrupt, keep), 0.0)
            assert loop.failed == len(loop.op_s) == 1, (name, loop.errors)
            assert loop.errors[0].startswith("CheckFailed"), loop.errors
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    run.import_optomech()
    import workloads
    for w in SPEC["workloads"]:
        check_printed(w["name"])
        print(f"ok: {w['name']} prints the metrics of BENCHMARK.json")
    check_corruption_counted()
    print("ok: corrupted outputs are counted as failures")
