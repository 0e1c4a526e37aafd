"""The CI workflow, checked where the tests run: its `Console script` step
runs here, through an `optomech` shim, so a step that breaks fails these
tests before a remote runner sees it; and the `dependency-floors` job
pins the floors that pyproject.toml states. The workflow is read by
indentation, as PyYAML is not a dependency."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _block(header: str) -> list[str]:
    """The lines below the workflow line `header` (stripped) that are
    indented deeper than it, up to the first that is not."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == header)
    block = []
    for line in lines[start + 1:]:
        if line.strip() and _indent(line) <= _indent(lines[start]):
            break
        block.append(line)
    return block


def test_console_script_step_runs(tmp_path):
    first, *script = _block("- name: Console script")
    assert first.strip() == "run: |"
    bin_dir, work = tmp_path / "bin", tmp_path / "work"
    bin_dir.mkdir()
    work.mkdir()
    # the installed entry point, which logs each call's exit code, and
    # `python`, both this interpreter
    codes = tmp_path / "codes.txt"
    shims = {
        "optomech": f'"{sys.executable}" -m optomech.cli "$@"\n'
                    f'code=$?\necho "$code" >> "{codes}"\nexit "$code"\n',
        "python": f'exec "{sys.executable}" "$@"\n',
    }
    for name, body in shims.items():
        shim = bin_dir / name
        shim.write_text("#!/bin/sh\n" + body)
        shim.chmod(0o755)
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=pythonpath)
    proc = subprocess.run(
        ["bash", "-e", "-c", textwrap.dedent("\n".join(script))], cwd=work,
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (work / "rt" / "response.csv").exists()
    # one call per outcome: the runs, the fit, a config error and a
    # domain error, each exit code as the entry point returned it
    assert codes.read_text().split() == ["0", "0", "0", "0", "2", "3"]


def test_dependency_floors_match_pyproject():
    tomllib = pytest.importorskip("tomllib")    # Python >= 3.11
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floors = dict(line.strip().split(": ", 1)
                  for line in _block("- name: dependency-floors"))
    python = floors["python"].strip('"')
    assert project["requires-python"] == f">={python}"
    pins = floors["pins"].strip("'").split()
    requirements = (project["dependencies"]
                    + project["optional-dependencies"]["test"])
    for package in ("numpy", "scipy", "mpmath"):
        floor = next(r for r in requirements if r.startswith(package + ">="))
        assert f'"{package}=={floor.split(">=")[1]}.*"' in pins, package
