"""Every source file parses as the oldest Python that pyproject.toml
accepts (3.10), whatever Python runs the tests.

This checks syntax only: a call to a library function that Python 3.10 or
numpy 2.0 lacks still passes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


def _parse_as_3_10(text: str, filename: str = "<string>"):
    return ast.parse(text, filename, feature_version=(3, 10))


def test_sources_parse_as_python_3_10():
    assert len(SOURCES) > 20
    for path in SOURCES:
        _parse_as_3_10(path.read_text(encoding="utf-8"), str(path))


def test_python_3_11_syntax_fails_the_check():
    with pytest.raises(SyntaxError):
        _parse_as_3_10("try:\n    pass\nexcept* ValueError:\n    pass\n")
