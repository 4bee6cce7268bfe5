import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


# arguments for each lru_cache'd function in src/, by module and name
CACHED_CALLS = {
    ("graphs", "_endpoints"): [(1,), (7,), (62,)],
    ("graphs", "_edge_numbers"): [(1,), (7,), (62,)],
    ("search", "_free_edges"): [(3,), (8,)],
    ("search", "_orbit_offsets"): [(1,), (2,), (7,)],
    ("search", "_parent_relabelings"): [(3,), (7,), (8,)],
    ("search", "_boundary_table"): [(11,), (22,)],
    ("spectral", "_crt_primes"): [(7,), (62,)],
    ("spectral", "_sk_fits_int64"): [(6, 5), (6, 16)],
    ("spectral", "_ones_band"): [(6, 5, np.dtype(np.int64)), (6, 16, np.dtype(object))],
    ("verify", "_sk_bounds"): [(7, np.dtype(np.int64)), (30, np.dtype(object))],
}


def _arrays(value):
    """The numpy arrays in a returned value, looking into tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_cached_tables_are_read_only():
    # a cached array is shared by every later call in the process, so one
    # stray write would corrupt every later scan: each is read-only
    cached = {
        (path.stem, name)
        for path in MODULES
        for name, fn in vars(importlib.import_module(f"seidelab.{path.stem}")).items()
        if hasattr(fn, "cache_info") and fn.__module__ == f"seidelab.{path.stem}"
    }
    assert cached == set(CACHED_CALLS)
    for (module, name), calls in CACHED_CALLS.items():
        fn = getattr(importlib.import_module(f"seidelab.{module}"), name)
        for args in calls:
            writeable = [a.shape for a in _arrays(fn(*args)) if a.flags.writeable]
            assert not writeable, f"{module}.{name}{args} returns writeable arrays {writeable}"


# Run in a fresh interpreter, where pytest has imported nothing: after each
# step, the pool's modules it has loaded.  Each cli.main call prints to
# stdout, so the result is the last line.
_POOL_IMPORT_STEPS = """
import json, sys

def pool_modules():
    prefixes = ("multiprocessing", "_multiprocessing", "concurrent")
    return sorted(m for m in sys.modules if m.startswith(prefixes))

seen = {}
import seidelab
seen["import seidelab"] = pool_modules()
from seidelab import cli, search
seen["import seidelab.cli"] = pool_modules()
seidelab.run_checks(seidelab.complete_graph(6))
seen["run_checks"] = pool_modules()
cli.main(["energy", "--g6", "DUW"])
seen["cli energy"] = pool_modules()
cli.main(["verify", "--all-n", "1..6", "--format", "json"])
seen["cli verify --all-n 1..6"] = pool_modules()
search.CHUNK_SIZE = 64
seidelab.scan(seidelab.AllGraphs(6), collect_rows=True)
seen["two-chunk scan, workers=1"] = pool_modules()
search.ProcessPoolExecutor(1).shutdown()
seen["a pool built"] = pool_modules()
print(json.dumps(seen))
"""


def test_only_a_pool_imports_multiprocessing():
    # multiprocessing and the ~30 modules it pulls in (socket, subprocess,
    # logging, ...) load only when a scan builds its pool; pytest's pythonpath
    # setting does not reach a child process, so PYTHONPATH names src
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_IMPORT_STEPS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("a pool built")  # the guard sees the modules a pool loads
    assert seen == dict.fromkeys(seen, [])
