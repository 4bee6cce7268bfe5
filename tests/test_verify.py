import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings

from seidelab import graphs, seidel
from seidelab.graphs import Graph, complete_graph, cycle_graph, parse_graph6, path_graph
from seidelab.verify import (
    CHECK_NAMES,
    STRICT_MARGIN,
    require_applicable,
    run_checks,
)

from conftest import graph_strategy


class TestSkBasic:
    def test_c5_all_pass(self):
        reports = run_checks(cycle_graph(5), ("sk-basic",))
        assert [r.passed for r in reports] == [True] * 5
        # k = 2: S_2 = 150 against the bound 20 * C(3,1) = 60
        assert reports[1].lhs == "150" and reports[1].rhs == "60"

    def test_complete_tight_at_k1(self):
        r = run_checks(complete_graph(7), ("sk-basic",))[0]
        assert r.passed and r.margin == 0.0 and r.lhs == r.rhs == "42"

    def test_too_small(self):
        with pytest.raises(ValueError, match="sk-basic needs at least 2 vertices"):
            require_applicable(complete_graph(1).n, ("sk-basic",))
        assert run_checks(complete_graph(1), ("sk-basic",)) == []

    @given(graph_strategy(min_n=2, max_n=7))
    @settings(max_examples=60)
    def test_always_passes(self, g):
        assert all(r.passed for r in run_checks(g, ("sk-basic",)))


class TestSkOddpairs:
    def test_c5_k2(self):
        # S_2 = 150 >= 20*3 + 4*20*1 = 140
        r = run_checks(cycle_graph(5), ("sk-oddpairs",))[1]
        assert r.passed and r.lhs == "150" and r.rhs == "140"
        assert r.metadata["N_op"] == 20

    def test_single_edge_on_four(self):
        # N_op = 4, so S_2 >= 12*2 + 16 = 40
        g = Graph.from_edges(4, [(0, 1)])
        r = run_checks(g, ("sk-oddpairs",))[1]
        assert r.passed and r.rhs == "40"

    def test_complete_reduces_to_basic(self):
        reports = run_checks(complete_graph(7), ("sk-oddpairs",))
        assert all(r.metadata["N_op"] == 0 for r in reports)
        assert all(r.passed for r in reports)

    @given(graph_strategy(min_n=4, max_n=7))
    @settings(max_examples=60)
    def test_always_passes(self, g):
        assert all(r.passed for r in run_checks(g, ("sk-oddpairs",)))


class TestOddpairLower:
    def test_complete(self):
        (r,) = run_checks(complete_graph(7), ("oddpair-lower",))
        assert r.passed and r.lhs == "0" and r.metadata["sc_equivalent"]

    def test_c5(self):
        (r,) = run_checks(cycle_graph(5), ("oddpair-lower",))
        assert r.passed and r.lhs == "20" and r.rhs == "8"

    @given(graph_strategy(min_n=4, max_n=7))
    @settings(max_examples=60)
    def test_always_passes(self, g):
        (r,) = run_checks(g, ("oddpair-lower",))
        assert r.passed


class TestTheorem1:
    def test_c5_at_one(self):
        (r,) = run_checks(cycle_graph(5), ("theorem1",), (1.0,))
        assert r.passed
        assert r.margin == pytest.approx(4 * math.sqrt(5) - 7, abs=1e-9)

    def test_p_validation(self):
        for p in [0.0, 2.0, -1.0, 2.5]:
            with pytest.raises(ValueError):
                run_checks(cycle_graph(5), ("theorem1",), (p,))

    def test_complete_margin(self):
        # E_1(K_n) = 2n - 2 sits exactly 1 above the bound (n-1) + (n-2)
        (r,) = run_checks(complete_graph(5), ("theorem1",), (1.0,))
        assert r.passed and r.margin == pytest.approx(1.0, abs=1e-9)

    @given(graph_strategy(min_n=2, max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_always_passes(self, g):
        reports = run_checks(g, ("theorem1",), (0.5, 1.0, 1.5))
        assert [r.metadata["p"] for r in reports] == [0.5, 1.0, 1.5]
        assert all(r.passed for r in reports)


class TestTheorem2:
    def test_complete_equality(self):
        (r,) = run_checks(complete_graph(6), ("theorem2",))
        assert r.passed and r.metadata["branch"] == "equality-class"
        assert abs(r.margin) < 1e-8

    def test_c5_strict(self):
        (r,) = run_checks(cycle_graph(5), ("theorem2",))
        assert r.passed and r.metadata["branch"] == "strict"
        assert r.margin == pytest.approx(4 * math.sqrt(5) - 8, abs=1e-9)

    def test_single_vertex(self):
        (r,) = run_checks(Graph(1, 0), ("theorem2",))
        assert r.passed

    @given(graph_strategy(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_always_passes(self, g):
        (r,) = run_checks(g, ("theorem2",))
        assert r.passed


class TestRunChecks:
    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown"):
            run_checks(path_graph(3), checks=("nonsense",))

    def test_checks_are_distinct_names_not_a_string(self):
        with pytest.raises(ValueError, match="name each check once"):
            run_checks(path_graph(3), checks=("theorem2", "theorem2"))
        with pytest.raises(ValueError, match="not the string 'theorem2'"):
            run_checks(path_graph(3), checks="theorem2")

    def test_checks_may_be_an_iterator(self):
        # taken whole before validation, which would otherwise use it up
        g = complete_graph(4)
        got = run_checks(g, (c for c in ["theorem2", "sk-basic"]))
        assert [r.as_dict() for r in got] == [r.as_dict() for r in run_checks(g, ("theorem2", "sk-basic"))]

    def test_p_grid_may_be_an_iterator(self):
        got = run_checks(cycle_graph(5), ("theorem1",), (p for p in [0.5, 1.0]))
        want = run_checks(cycle_graph(5), ("theorem1",), (0.5, 1.0))
        assert [r.as_dict() for r in got] == [r.as_dict() for r in want]
        assert [r.metadata["p"] for r in got] == [0.5, 1.0]

    def test_all_checks_on_c5(self):
        reports = run_checks(cycle_graph(5), CHECK_NAMES, p_grid=(0.5, 1.0))
        names = [r.check for r in reports]
        # 5 sk-basic + 5 sk-oddpairs + 1 oddpair-lower + 2 theorem1 + 1 theorem2
        assert len(reports) == 14
        assert names.count("theorem1") == 2
        assert all(r.passed for r in reports)

    def test_small_orders_skip_inapplicable(self):
        reports = run_checks(path_graph(3), CHECK_NAMES)
        assert {r.check for r in reports} == {"sk-basic", "theorem1", "theorem2"}

    def test_reports_serialize(self):
        for r in run_checks(cycle_graph(5)):
            d = r.as_dict()
            assert json.loads(json.dumps(d)) == d

    def test_builds_one_stack(self, monkeypatch):
        calls, original = [], graphs._edge_bits

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graphs, "_edge_bits", counting)
        monkeypatch.setattr(seidel, "_edge_bits", counting)
        run_checks(parse_graph6("DUW"), CHECK_NAMES, (0.5, 1.0))
        assert len(calls) == 2  # the graph6 line and the Seidel matrix

    def test_reports_match_committed(self):
        # every report of five graphs (n = 5, 10, 10, 30, 60), committed
        # with the graph6 line as key; json.dumps also rejects numpy scalars
        doc = json.loads((Path(__file__).parent / "data" / "run-checks.json").read_text())
        for g6, want in doc.items():
            got = [r.as_dict() for r in run_checks(parse_graph6(g6), CHECK_NAMES, (0.5, 1.0))]
            assert [r.pop("graph6") for r in got] == [g6] * len(want)
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
