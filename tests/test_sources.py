import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "seidelab").glob("*.py"))


def _python_floor() -> tuple[int, int]:
    """The requires-python floor pyproject.toml declares, as (major, minor)."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def test_floor_is_declared():
    assert _python_floor() == (3, 10) and SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_python_floor(path):
    # syntax newer than the declared floor (a PEP 695 type alias, an except*
    # clause, ...) fails here even when the running interpreter accepts it
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_python_floor())
