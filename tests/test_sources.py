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


def _module_imports(tree: ast.Module, lines: list[str]):
    """(bound name, line number) of each name a module-level import binds,
    skipping __future__ imports and imports marked # noqa: F401 on any of
    their lines."""
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    # every name a module-level import binds is read somewhere in the module;
    # __init__.py re-exports, and # noqa: F401 marks the names kept importable
    # for bench/tracing.py
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imports = _module_imports(tree, text.splitlines())
    unused = [(name, line) for name, line in imports if name not in read]
    assert not unused, f"{path.name}: unused imports {unused}"
