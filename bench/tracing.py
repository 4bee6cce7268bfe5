"""Spans around seidelab's public functions, recorded from outside the package.

Each function is wrapped in the namespace where its caller looks it up
(``seidelab.search.charpoly_batch_i64``, ``seidelab.verify.eigenvalues``,
...), not only where it is defined, because ``from .x import f`` copies the
name.  Local imports inside a function (``search._sk_batch`` imports
``char_poly_exact``, ``search._seidel_int`` imports ``seidel_matrix``) read
the defining module at call time, so wrapping the definition covers them.

A span's self time is its duration minus the durations of the spans it
encloses.  Installing a table fails if any wrapped name no longer exists,
so a rename shows up as a benchmark error, not as a layer reading zero.
"""

from __future__ import annotations

import importlib
import pickle
from collections import Counter
from time import perf_counter
from typing import Callable, NamedTuple


class MissingSpanTarget(RuntimeError):
    """A wrapped name is gone from the program."""


def _batch(a, *args, **kwargs) -> int:
    shape = getattr(a, "shape", ())
    return shape[0] if len(shape) == 3 else 1


def _scanned(counters: Counter, report) -> None:
    counters["search.graphs"] += report.graphs_scanned


def _reverified(counters: Counter, reports) -> None:
    # the scan's batch path flagged a graph and re-ran the exact checks on it
    counters["search.flagged"] += 1
    counters["verify.confirmed"] += any(not r.passed for r in reports)


class Span(NamedTuple):
    owner: str  # dotted path of the namespace the caller reads the name from
    attr: str
    name: str  # span name, "<defining module>.<function>"
    items: Callable | None = None  # matrices in a batch call
    hook: Callable | None = None  # counts taken from the result


SCAN_SPANS = [
    Span("seidelab", "scan", "search.scan", hook=_scanned),
    Span("seidelab", "run_checks", "verify.run_checks"),
    Span("seidelab", "energy_by_integral", "analytic.energy_by_integral"),
    Span("seidelab", "parse_graph6", "graphs.parse_graph6"),
    Span("seidelab.search", "charpoly_batch_i64", "spectral.charpoly_batch_i64", _batch),
    Span("seidelab.search", "count_odd_pairs", "seidel.count_odd_pairs"),
    Span("seidelab.search", "is_sc_equivalent_to_complete", "seidel.is_sc_equivalent_to_complete"),
    Span("seidelab.search", "encode_graph6", "graphs.encode_graph6"),
    Span("seidelab.search", "parse_graph6", "graphs.parse_graph6"),
    Span("seidelab.search", "run_checks", "verify.run_checks", hook=_reverified),
    Span("seidelab.search.ScanReport", "write_csv", "search.ScanReport.write_csv"),
    Span("seidelab.search.np.linalg", "eigvalsh", "spectral.eigvalsh", _batch),
    Span("seidelab.verify", "eigenvalues", "spectral.eigenvalues"),
    Span("seidelab.verify", "elementary_symmetric_A2", "spectral.elementary_symmetric_A2"),
    Span("seidelab.verify", "count_odd_pairs", "seidel.count_odd_pairs"),
    Span("seidelab.verify", "is_sc_equivalent_to_complete", "seidel.is_sc_equivalent_to_complete"),
    Span("seidelab.verify", "encode_graph6", "graphs.encode_graph6"),
    Span("seidelab.spectral", "char_poly_exact", "spectral.char_poly_exact"),
    Span("seidelab.spectral", "seidel_matrix", "graphs.seidel_matrix"),
    Span("seidelab.graphs", "seidel_matrix", "graphs.seidel_matrix"),
    Span("seidelab.graphs.Graph", "__post_init__", "graphs.Graph"),
]

CLI_SPANS = [
    Span("seidelab.cli", "main", "cli.main"),
    Span("seidelab.cli", "parse_graph6", "graphs.parse_graph6"),
    Span("seidelab.cli", "eigenvalues", "spectral.eigenvalues"),
    Span("seidelab.cli", "elementary_symmetric_A2", "spectral.elementary_symmetric_A2"),
    Span("seidelab.cli", "energy_by_integral", "analytic.energy_by_integral"),
    Span("seidelab.cli", "count_odd_pairs", "seidel.count_odd_pairs"),
    Span("seidelab.cli", "is_sc_equivalent_to_complete", "seidel.is_sc_equivalent_to_complete"),
    Span("seidelab.cli", "scan", "search.scan", hook=_scanned),
    Span("seidelab.cli", "run_checks", "verify.run_checks"),
]

# Counted, not timed: each chunk a scan evaluates and the pickled size of its
# arguments, which is what a worker pool ships per chunk.
CHUNK_ENTRY = ("seidelab.search", "_eval_chunk_star")


class _View:
    """Stands in for numpy inside one seidelab module, so a numpy function
    can be wrapped for that caller without patching numpy for everyone."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _resolve(path: str):
    """The object named by a dotted path: the longest importable module
    prefix, then attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                raise MissingSpanTarget(f"{path}: no attribute {name!r}")
            obj = getattr(obj, name)
        return obj
    raise MissingSpanTarget(f"{path}: not importable")


class _Frame:
    __slots__ = ("path", "child", "excluded")

    def __init__(self, path: str):
        self.path = path
        self.child = 0.0
        self.excluded = 0.0


class Tracer:
    """Wraps a span table, aggregates calls, items and self time per span
    name and per call path, and restores every original on ``uninstall``."""

    def __init__(self):
        self.calls = Counter()
        self.items = Counter()
        self.self_s = Counter()
        self.tree: dict[str, list] = {}  # "a/b/c" -> [calls, total_s, self_s]
        self.counters = Counter()
        self.top_level_s = 0.0  # time inside spans that no other span encloses
        self.excluded_s = 0.0  # the tracer's own bookkeeping, kept out of spans
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, table, chunk_entry=None) -> None:
        try:
            for span in table:
                self._patch(self._owner(span.owner), span.attr, self._span(span))
                self.calls[span.name] += 0
                self.self_s[span.name] += 0.0
                if span.items is not None:
                    self.items[span.name] += 0
            if chunk_entry is not None:
                owner, attr = chunk_entry
                self._patch(_resolve(owner), attr, self._chunk_counter)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _owner(self, path: str):
        if ".np." not in path:
            return _resolve(path)
        module_path, _, rest = path.partition(".np.")
        module = _resolve(module_path)
        if not hasattr(module, "np"):
            raise MissingSpanTarget(f"{module_path}.np is gone")
        self._patches.append((module, "np", module.np))
        module.np = _View(module.np)
        view = module.np
        for name in rest.split("."):
            if not hasattr(view, name):
                raise MissingSpanTarget(f"{path}: no attribute {name!r}")
            setattr(view, name, _View(getattr(view, name)))
            view = getattr(view, name)
        return view

    def _patch(self, owner, attr: str, make) -> None:
        if not hasattr(owner, attr):
            raise MissingSpanTarget(f"{getattr(owner, '__name__', owner)}.{attr} is gone")
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    # -- wrappers -----------------------------------------------------------

    def _span(self, span: Span):
        name, items, hook = span.name, span.items, span.hook

        def make(orig):
            def wrapper(*args, **kwargs):
                stack = self._stack
                frame = _Frame(f"{stack[-1].path}/{name}" if stack else name)
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    duration = perf_counter() - t0 - frame.excluded
                    stack.pop()
                    own = duration - frame.child
                    if stack:
                        stack[-1].child += duration
                    else:
                        self.top_level_s += duration
                    self.calls[name] += 1
                    self.self_s[name] += own
                    node = self.tree.setdefault(frame.path, [0, 0.0, 0.0])
                    node[0] += 1
                    node[1] += duration
                    node[2] += own
                if items is not None:
                    self.items[name] += items(*args, **kwargs)
                if hook is not None:
                    hook(self.counters, result)
                return result

            wrapper.__wrapped__ = orig
            return wrapper

        return make

    def _chunk_counter(self, orig):
        def wrapper(args):
            t0 = perf_counter()
            size = len(pickle.dumps(args))
            spent = perf_counter() - t0
            for frame in self._stack:
                frame.excluded += spent
            self.excluded_s += spent
            self.counters["search.chunks"] += 1
            self.counters["search.ipc_bytes"] += size
            return orig(args)

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in self.items:
            out[f"{name}.matrices"] = self.items[name]
        out["graphs.Graph.built"] = self.calls["graphs.Graph"]
        for key in ("search.chunks", "search.ipc_bytes", "search.graphs", "search.flagged"):
            out[key] = self.counters[key]
        flagged = self.counters["search.flagged"]
        out["verify.confirmed_ratio"] = self.counters["verify.confirmed"] / flagged if flagged else 0.0
        return out
