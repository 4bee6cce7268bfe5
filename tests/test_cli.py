import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from seidelab import cli, graphs, seidel, spectral, verify
from seidelab.analytic import QuadratureSpec
from seidelab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_NUMERIC_ERROR,
    EXIT_OK,
    main,
)

from conftest import random_graph, reference_encode_graph6


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnergy:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--g6", "Bw")
        assert code == EXIT_OK
        assert "n        3" in out
        assert "eig=4" in out

    def test_json_both_backends(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--g6", "DUW", "--backend", "both",
            "--format", "json", "-p", "1.0", "-p", "0.5",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 5
        assert len(doc["energies"]) == 2
        for entry in doc["energies"]:
            assert entry["integral_backend"] == pytest.approx(
                entry["eigenvalue_backend"], rel=1e-8, abs=1e-8
            )

    @pytest.mark.parametrize("backend", ["eig", "integral", "both"])
    def test_builds_seidel_matrix_once(self, capsys, monkeypatch, backend):
        built, original = [], graphs.seidel_matrix

        def counting(g):
            built.append(g)
            return original(g)

        monkeypatch.setattr(graphs, "seidel_matrix", counting)
        monkeypatch.setattr(spectral, "seidel_matrix", counting)
        code, _, _ = run_cli(capsys, "energy", "--g6", "DUW", "--backend", backend)
        assert code == EXIT_OK
        assert len(built) == 1

    def test_builds_one_stack(self, capsys, monkeypatch):
        # N_op and the SC flag are read off the one Seidel matrix
        calls, original = [], graphs._edge_bits

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graphs, "_edge_bits", counting)
        monkeypatch.setattr(seidel, "_edge_bits", counting)
        code, _, _ = run_cli(capsys, "energy", "--g6", "DUW", "--backend", "both")
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_small_p_integral(self, capsys):
        # the right tail's leading terms are summed in closed form, so the
        # node count does not grow like 1/p
        code, out, _ = run_cli(
            capsys, "energy", "--g6", "I~~~~~~~w", "-p", "0.0005", "--backend", "both"
        )
        assert code == EXIT_OK
        (line,) = [x for x in out.splitlines() if x.startswith("E_")]
        values = dict(part.split("=") for part in line.split()[1:])
        assert float(values["integral"]) == pytest.approx(float(values["eig"]), rel=1e-6)

    def test_near_two_integral(self, capsys):
        # the left tail's leading term is summed in closed form, so the
        # node count does not grow like 1/(2 - p)
        code, out, _ = run_cli(
            capsys, "energy", "--g6", "I~~~~~~~w", "-p", "1.999", "-p", "1.99999",
            "--backend", "both", "--format", "json",
        )
        assert code == EXIT_OK
        energies = json.loads(out)["energies"]
        assert [e["p"] for e in energies] == [1.999, 1.99999]
        for entry in energies:
            assert entry["integral_backend"] == pytest.approx(entry["eigenvalue_backend"], rel=1e-9)

    def test_p2_has_no_integral(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--g6", "Bw", "--backend", "both",
            "--format", "json", "-p", "2.0",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["energies"][0]["integral_backend"] is None
        assert doc["energies"][0]["eigenvalue_backend"] == pytest.approx(6.0)

    def test_bad_graph6(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--g6", "Bww")
        assert code == EXIT_INPUT_ERROR
        assert "error" in err

    def test_bad_p(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--g6", "Bw", "-p", "3.0")
        assert code == EXIT_INPUT_ERROR


class TestVerify:
    def test_single_graph_plain(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--g6", "DUW")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "theorem2" in out

    def test_single_graph_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--g6", "Bw", "--checks", "theorem2",
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc) == 1 and doc[0]["check"] == "theorem2"
        assert doc[0]["pass"] is True

    def test_all_n_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--all-n", "1..4", "--checks", "theorem2"
        )
        assert code == EXIT_OK
        assert "all(n=4): 64 graphs, 0 failures" in out

    def test_all_n_too_large(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--all-n", "9")
        assert code == EXIT_INPUT_ERROR
        assert "range" in err

    def test_boundary_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--boundary-family", "11", "--checks", "theorem2"
        )
        assert code == EXIT_OK
        assert "0 failures" in out

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--g6", "Bw", "--checks", "nope")
        assert code == EXIT_INPUT_ERROR
        assert err == "error: unknown checks: ['nope']\n"

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_named_check_below_its_order(self, capsys, fmt):
        # a check named with --checks must apply; the default set skips
        code, out, err = run_cli(
            capsys, "verify", "--g6", "Bw", "--checks", "oddpair-lower", "--format", fmt
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == "error: oddpair-lower needs at least 4 vertices\n"
        code, out, _ = run_cli(capsys, "verify", "--g6", "Bw", "--format", fmt)
        assert code == EXIT_OK
        checks = [r["check"] for r in json.loads(out)] if fmt == "json" else [
            line.split()[1] for line in out.splitlines()
        ]
        assert list(dict.fromkeys(checks)) == ["sk-basic", "theorem1", "theorem2"]

    def test_theorem1_p_domain(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--g6", "DUW", "--checks", "theorem1", "-p", "2.0"
        )
        assert code == EXIT_INPUT_ERROR
        assert "(0, 2)" in err

    def test_g6_file_strict_and_lenient(self, capsys, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text("Bw\nBww\nB?\n")
        code, _, err = run_cli(
            capsys, "verify", "--g6-file", str(p), "--checks", "theorem2"
        )
        assert code == EXIT_INPUT_ERROR
        assert "line 2" in err
        code, out, _ = run_cli(
            capsys, "verify", "--g6-file", str(p), "--checks", "theorem2",
            "--skip-bad-lines",
        )
        assert code == EXIT_OK
        assert "2 graphs" in out

    def test_g6_file_non_ascii(self, capsys, tmp_path):
        # a non-ASCII byte is a malformed line, not a decoding crash
        p = tmp_path / "bad.g6"
        p.write_bytes(b"C~\n\xff\nC~\n")
        code, out, err = run_cli(capsys, "verify", "--g6-file", str(p))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == "error: line 2: byte 255 out of range [63,126] at offset 0\n"
        code, out, _ = run_cli(capsys, "verify", "--g6-file", str(p), "--skip-bad-lines")
        assert code == EXIT_OK
        assert "2 graphs, 0 failures" in out

    @pytest.mark.parametrize(
        "source", [("--all-n", "5..3"), ("--boundary-family", "14..12")]
    )
    def test_reversed_range(self, capsys, source):
        code, out, err = run_cli(capsys, "verify", *source, "--format", "json")
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert f"empty range {source[1]}" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--g6-file", "/nonexistent.g6", "--checks", "theorem2"
        )
        assert code == EXIT_INPUT_ERROR

    def test_json_deterministic_without_timing(self, capsys):
        argv = (
            "verify", "--all-n", "4", "--checks", "theorem2",
            "--format", "json", "--no-timing",
        )
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        doc = json.loads(out1)
        assert "timing" not in doc[0]
        assert doc[0]["counts"]["graphs_scanned"] == 64

    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--all-n", "3", "--checks", "theorem2",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("graph6,n,E_S,N_op")
        assert len(lines) == 9

    @pytest.mark.parametrize(
        "source, counts",
        [
            (("--all-n", "3..4"), {"3": 8, "4": 64}),
            (("--boundary-family", "11..12"), {"11": 250, "12": 322}),
        ],
    )
    def test_csv_one_header_over_sources(self, capsys, tmp_path, source, counts):
        # at n = 3 a row has no oddpair-lower margin: blank under the shared header
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "verify", *source, "--checks", "theorem2,oddpair-lower",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == EXIT_OK
        with open(out_path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == [
            "graph6", "n", "E_S", "N_op",
            "theorem2_min_margin", "oddpair-lower_min_margin",
        ]
        assert Counter(row["n"] for row in rows) == counts
        for row in rows:
            assert row["theorem2_min_margin"]
            assert (row["oddpair-lower_min_margin"] == "") == (int(row["n"]) < 4)

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    def test_single_graph_to_file(self, capsys, tmp_path, fmt):
        argv = ("verify", "--g6", "Bw", "--format", fmt)
        _, want, _ = run_cli(capsys, *argv)
        out_path = tmp_path / "r.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert out_path.read_text() == want

    @pytest.mark.parametrize("source", [("--all-n", "3"), ("--g6", "Bw")])
    def test_bad_out_path_fails_before_checking(self, capsys, tmp_path, monkeypatch, source):
        def refuse(*args, **kwargs):
            raise AssertionError("checked a graph before opening --out")

        monkeypatch.setattr(cli, "scan", refuse)
        monkeypatch.setattr(cli, "run_checks", refuse)
        bad = tmp_path / "missing" / "x.csv"
        fmt = "csv" if source[0] == "--all-n" else "json"
        code, out, err = run_cli(capsys, "verify", *source, "--format", fmt, "--out", str(bad))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err

    def test_csv_needs_a_scan_source(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys, "verify", "--g6", "G", "--format", "csv", "--out", str(out_path)
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == "error: --format csv writes scan rows; use json or plain with --g6\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "text, flags", [("", ()), ("Bww\n~\n\nC\n", ("--skip-bad-lines",))]
    )
    def test_json_without_graphs_is_strict(self, capsys, tmp_path, text, flags):
        # no graph, no minimum energy: null, not Infinity, which JSON lacks
        p = tmp_path / "none.g6"
        p.write_text(text)
        code, out, _ = run_cli(capsys, "verify", "--g6-file", str(p), *flags, "--format", "json")
        assert code == EXIT_OK

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        (doc,) = json.loads(out, parse_constant=refuse)
        assert doc["counts"]["graphs_scanned"] == 0
        assert doc["min_energy"] == {"graph6": None, "value": None}

    @pytest.mark.parametrize(
        "text, flags", [("", ()), ("Bww\n~\n\nC\n", ("--skip-bad-lines",))]
    )
    def test_plain_without_graphs(self, capsys, tmp_path, text, flags):
        # no graph, no minimum energy: "none", as the JSON report's null
        p = tmp_path / "none.g6"
        p.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--g6-file", str(p), *flags)
        assert (code, err) == (EXIT_OK, "")
        assert out == f"graph6-stream({p}): 0 graphs, 0 failures, min E_S = none\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, capsys, tmp_path, monkeypatch, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("scanned with workers < 1")

        monkeypatch.setattr(cli, "scan", refuse)
        out_path = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys, "verify", "--all-n", "3", "--workers", workers, "--out", str(out_path)
        )
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == f"error: --workers {workers}: need at least 1\n"
        assert not out_path.exists()

    def test_closed_stdout_pipe(self):
        # `verify ... | head -1`: the reader leaves after one line
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        with subprocess.Popen(
            [sys.executable, "-m", "seidelab.cli", "verify", "--all-n", "1..6", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.readline().startswith(b"graph6,n,E_S,N_op,")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == EXIT_INPUT_ERROR
        assert err == b""

    def test_workers_match_serial(self, capsys):
        argv = (
            "verify", "--all-n", "5", "--checks", "theorem2",
            "--format", "json", "--no-timing",
        )
        _, serial, _ = run_cli(capsys, *argv)
        _, parallel, _ = run_cli(capsys, *argv, "--workers", "3")
        assert serial == parallel


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "report, argv",
    [
        (
            "all-n-1-7.json",
            ["--all-n", "1..7", "--checks", "sk-basic,sk-oddpairs,oddpair-lower,theorem1,theorem2",
             "-p", "0.5", "-p", "1", "-p", "1.5"],
        ),
        (
            "boundary-11-16.json",
            ["--boundary-family", "11..16",
             "--checks", "sk-basic,sk-oddpairs,oddpair-lower,theorem2"],
        ),
    ],
)
def test_scan_reports_match_golden_json(capsys, report, argv):
    # committed reports of the orbit scans, which evaluate each distinct
    # Seidel char poly once per chunk: the JSON must not move by a byte
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json", "--no-timing")
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / report).read_bytes()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--all-n", "1..6"], "55d1e49bfcd09c881c39f2bfe64213f947c85db182e3f3f1f33f580425e8f49f"),
        (
            ["--boundary-family", "11..22"],
            "6f3ccf2151d048dbaf8c8fecb33f5aa914f010fbe2820ac2d7ba898e3b43ab01",
        ),
    ],
)
def test_orbit_scan_csv_matches_pinned_sha256(capsys, argv, digest):
    # the orbit sources' CSV rows, which the golden JSON does not cover,
    # pinned by the sha256 of their bytes: every cell must not move
    checks = "sk-basic,sk-oddpairs,oddpair-lower,theorem2"
    code, out, _ = run_cli(capsys, "verify", *argv, "--checks", checks, "--format", "csv")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _mixed_stream(path: Path) -> None:
    """A seeded graph6 file of orders 1..20, shuffled: from n = 18 the exact
    char polys are object dtype; some graphs repeat, and blank and malformed
    lines lie between them."""
    rng = np.random.default_rng(27)
    lines = [reference_encode_graph6(random_graph(rng, int(n))) for n in rng.integers(1, 21, 150)]
    lines += lines[:12] + ["", "   ", "Bww", "C", "~~~", "Dw", "Cw!"]
    path.write_text("\n".join(lines[k] for k in rng.permutation(len(lines))) + "\n")


@pytest.mark.parametrize(
    "checks, digest",
    [
        # reads S_k: rows are grouped by their exact char poly
        ("sk-basic,theorem2", "a526dbdcada2c1493139543ff6a1345ba00f492ee4411bd97fa4b30817eb203a"),
        # reads no S_k: every row is evaluated on its own
        ("theorem2,oddpair-lower", "c8b27c4cbae471a934ff975388f1fba3ca34820e148bc1bd49635c2ad82c826d"),
    ],
)
def test_stream_csv_matches_pinned_sha256(capsys, tmp_path, checks, digest):
    # a stream's CSV rows pinned by the sha256 of their bytes, as the orbit
    # sources' are above
    p = tmp_path / "mixed.g6"
    _mixed_stream(p)
    code, out, _ = run_cli(
        capsys, "verify", "--g6-file", str(p), "--skip-bad-lines", "--checks", checks,
        "--format", "csv",
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestNumericError:
    """A spectrum that fails its residual check exits with code 3."""

    @pytest.fixture(autouse=True)
    def perturbed_eigh(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a):
            w, q = eigh(a)
            return w, q + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)

    def test_energy(self, capsys):
        code, out, err = run_cli(capsys, "energy", "--g6", "DUW", "--backend", "both")
        assert code == EXIT_NUMERIC_ERROR
        assert out == ""
        assert "residual" in err

    def test_verify_single_graph(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--g6", "DUW")
        assert code == EXIT_NUMERIC_ERROR
        assert out == ""
        assert "residual" in err


class TestConstants:
    def test_half(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "-p", "0.5")
        assert code == EXIT_OK
        assert f"closed-form={1 / (2 * math.pi):.12g}" in out

    def test_out_of_domain(self, capsys):
        code, _, err = run_cli(capsys, "constants", "-p", "1.5")
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("tol", ["abc", "0.5", "0", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [("constants", "-p", "0.5"), ("energy", "--g6", "DUW", "--backend", "both")],
    )
    def test_bad_quad_tol(self, capsys, monkeypatch, tol, argv):
        monkeypatch.setenv("SEIDELAB_QUAD_TOL", tol)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("error: SEIDELAB_QUAD_TOL=")

    def test_quad_tol_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SEIDELAB_QUAD_TOL", "1e-6")
        code, out, _ = run_cli(capsys, "constants", "-p", "0.5")
        assert code == EXIT_OK
        assert "quadrature=" in out
        # the eigenvalue backend ignores the setting
        monkeypatch.setenv("SEIDELAB_QUAD_TOL", "abc")
        assert run_cli(capsys, "energy", "--g6", "DUW")[0] == EXIT_OK

    def test_quadrature_near_one(self, capsys):
        code, out, err = run_cli(capsys, "constants", "-p", "0.99", "-p", "0.9999", "-p", "0.99999")
        assert (code, err) == (EXIT_OK, "")
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == ["C_0.99", "C_0.9999", "C_0.99999"]
        for line in lines:
            values = dict(part.split("=") for part in line.split()[1:])
            assert float(values["quadrature"]) == pytest.approx(
                float(values["closed-form"]), rel=1e-9
            )


class TestErrorMapping:
    """main alone turns exceptions into exit codes and one error: line."""

    def test_trace_violation_is_numeric(self, capsys, monkeypatch):
        # the top eigenvalue 1e-6 too large, its eigenvector scaled so that
        # the eigenpairs still reconstruct the matrix
        eigh = np.linalg.eigh

        def shifted(a):
            w, q = eigh(a)
            q[:, -1] *= math.sqrt(w[-1] / (w[-1] + 1e-6))
            w[-1] += 1e-6
            return w, q

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(spectral.SpectrumError, match="trace"):
            spectral.eigenvalues(graphs.parse_graph6("DUW"))
        code, out, err = run_cli(capsys, "energy", "--g6", "DUW")
        assert (code, out) == (EXIT_NUMERIC_ERROR, "")
        assert err.startswith("error: ") and "trace" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [("energy", "--g6", "DUW", "--backend", "both"), ("constants", "-p", "0.5")],
    )
    def test_quadrature_error_is_numeric(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("SEIDELAB_QUAD_TOL", raising=False)
        monkeypatch.setattr(cli, "DEFAULT_SPEC", QuadratureSpec(max_nodes=2))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_NUMERIC_ERROR, "")
        assert err.startswith("error: ") and "max_nodes=2 " in err and err.count("\n") == 1

    def test_spectrum_error_in_scan_is_numeric(self, capsys, monkeypatch):
        # a zero batch spectrum flags every graph; re-verifying one fails
        def refuse(s):
            raise spectral.SpectrumError("refused")

        monkeypatch.setattr(np.linalg, "eigvalsh", lambda s: np.zeros(s.shape[:-1]))
        monkeypatch.setattr(verify, "eigenvalues", refuse)
        code, out, err = run_cli(capsys, "verify", "--all-n", "4")
        assert (code, out, err) == (EXIT_NUMERIC_ERROR, "", "error: refused\n")

    @pytest.mark.parametrize(
        "code, setup, argv",
        [
            (EXIT_INPUT_ERROR, "", ["energy", "--g6", "Bww"]),
            (
                EXIT_NUMERIC_ERROR,
                "cli.DEFAULT_SPEC = QuadratureSpec(max_nodes=2)",
                ["constants", "-p", "0.5"],
            ),
        ],
    )
    def test_one_error_line_without_traceback(self, code, setup, argv):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        env.pop("SEIDELAB_QUAD_TOL", None)
        script = (
            "import sys\nfrom seidelab import cli\nfrom seidelab.analytic import QuadratureSpec\n"
            f"{setup}\nsys.exit(cli.main({argv!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
        assert b"Traceback" not in proc.stderr
