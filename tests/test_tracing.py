"""The benchmark's traced run wraps seidelab functions by name; a name that
moves or goes makes its span table fail to install."""

import importlib.util
from pathlib import Path

import numpy as np

from seidelab import cli, graphs, search, seidel, spectral, verify

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_tables_install_and_uninstall():
    tracing = _tracing()
    for table, chunk_entry in [
        (tracing.SCAN_SPANS, tracing.CHUNK_ENTRY),
        (tracing.CLI_SPANS, None),
    ]:
        tracer = tracing.Tracer()
        tracer.install(table, chunk_entry)  # raises MissingSpanTarget for a lost name
        try:
            owners = [(tracing._resolve(s.owner), s.attr) for s in table if ".np." not in s.owner]
            wrapped = [(o, a, getattr(o, a).__wrapped__) for o, a in owners]
        finally:
            tracer.uninstall()
        assert all(getattr(o, a) is f for o, a, f in wrapped)
    assert search.np is np
    assert verify.eigenvalues is spectral.eigenvalues


def test_names_kept_for_tracing_are_the_defining_functions():
    # a span on a rebound name would time something else without an error
    assert search.encode_graph6 is graphs.encode_graph6
    for module in (search, verify, cli):
        assert module.count_odd_pairs is seidel.count_odd_pairs
        assert module.is_sc_equivalent_to_complete is seidel.is_sc_equivalent_to_complete
