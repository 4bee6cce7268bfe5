"""Command-line front end.

Subcommands: `energy` (single-graph spectrum and p-energies), `verify`
(checker scans over graphs, files, or generators), `constants` (C_p by
closed form and quadrature).  Exit codes: 0 all pass, 1 check failure,
2 input/parse error or an output pipe closed early, 3 numeric failure (a
spectrum that fails its residual check or a trace identity, or a
quadrature that needs more nodes than its budget).  Commands raise; `main`
alone maps an exception to its exit code and one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .analytic import (
    DEFAULT_SPEC,
    QuadratureError,
    QuadratureSpec,
    cp_constant,
    cp_constant_quadrature,
    energy_by_integral,
)
from . import graphs
from .graphs import parse_graph6
# unused here; kept importable as seidelab.cli.<name> for bench/tracing.py
from .seidel import count_odd_pairs, is_sc_equivalent_to_complete  # noqa: F401
from .seidel import _odd_pairs, _sc_to_complete
from .search import (
    BOUNDARY_MAX_N,
    BOUNDARY_MIN_N,
    ENUM_MAX_N,
    AllGraphs,
    BoundaryFamily,
    Graph6Stream,
    scan,
)
from .spectral import SpectrumError, eigenvalues, elementary_symmetric_A2, p_energy
from .verify import CHECK_NAMES, require_applicable, run_checks, validate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _quad_spec() -> QuadratureSpec:
    tol = os.environ.get("SEIDELAB_QUAD_TOL")
    if tol is None:
        return DEFAULT_SPEC
    try:
        return QuadratureSpec(rel_tol=float(tol))
    except ValueError:
        raise ValueError(f"SEIDELAB_QUAD_TOL={tol!r} is not a number in (0, 1e-4]") from None


def cmd_energy(args) -> int:
    g = parse_graph6(args.g6)
    s = graphs.seidel_matrix(g)  # through the module, so a wrapper there sees it
    spectrum = eigenvalues(s)
    sc = bool(_sc_to_complete(s[None])[0])
    nop = int(_odd_pairs(s[None])[0])
    out = {
        "graph6": args.g6.strip(),
        "n": g.n,
        "spectrum": [float(v) for v in spectrum.values],
        "residual": spectrum.residual,
        "N_op": nop,
        "sc_equivalent_to_complete": sc,
        "energies": [],
    }
    sk = elementary_symmetric_A2(s) if args.backend in ("integral", "both") else None
    for p in args.p:
        entry = {"p": p}
        if args.backend in ("eig", "both"):
            entry["eigenvalue_backend"] = p_energy(spectrum, p)
        if args.backend in ("integral", "both"):
            if 0.0 < p < 2.0:
                entry["integral_backend"] = energy_by_integral(sk, p, args.spec)
            else:
                entry["integral_backend"] = None  # identity only holds on (0,2)
        out["energies"].append(entry)
    if args.format == "json":
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"graph6   {out['graph6']}")
        print(f"n        {g.n}")
        print("spectrum " + " ".join(_fmt(v) for v in spectrum.values))
        print(f"residual {_fmt(spectrum.residual)}")
        print(f"N_op     {nop}")
        print(f"SC-equivalent-to-complete {str(sc).lower()}")
        for entry in out["energies"]:
            parts = [f"E_{_fmt(entry['p'])}"]
            if "eigenvalue_backend" in entry:
                parts.append(f"eig={_fmt(entry['eigenvalue_backend'])}")
            if entry.get("integral_backend") is not None:
                parts.append(f"integral={_fmt(entry['integral_backend'])}")
            print(" ".join(parts))
    return EXIT_OK


def _parse_range(spec: str, lo: int, hi: int) -> list[int]:
    if ".." in spec:
        a, b = spec.split("..", 1)
        values = list(range(int(a), int(b) + 1))
        if not values:
            raise ValueError(f"empty range {spec}: the lower end exceeds the upper")
    else:
        values = [int(spec)]
    for v in values:
        if not lo <= v <= hi:
            raise ValueError(f"{v} outside supported range {lo}..{hi}")
    return values


def cmd_verify(args) -> int:
    checks = tuple(args.checks.split(",")) if args.checks else CHECK_NAMES
    p_grid = tuple(args.p)
    validate(checks, p_grid)
    if args.workers < 1:
        raise ValueError(f"--workers {args.workers}: need at least 1")
    sources = []
    if args.g6 is not None:
        if args.format == "csv":
            raise ValueError("--format csv writes scan rows; use json or plain with --g6")
    elif args.all_n is not None:
        for n in _parse_range(args.all_n, 1, ENUM_MAX_N):
            sources.append(AllGraphs(n))
    elif args.boundary_family is not None:
        for n in _parse_range(args.boundary_family, BOUNDARY_MIN_N, BOUNDARY_MAX_N):
            sources.append(BoundaryFamily(n))
    else:
        sources.append(Graph6Stream(args.g6_file, strict=args.strict_parse))
    # opened before any graph is checked, as a shell redirection would be
    output = contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w")
    with output as out:
        if args.g6 is not None:
            return _verify_single(args, checks, p_grid, out)
        reports = [
            scan(
                src,
                checks=checks,
                p_grid=p_grid,
                workers=args.workers,
                collect_rows=args.format == "csv",
            )
            for src in sources
        ]
        if args.format == "json":
            payload = [r.as_dict(include_timing=not args.no_timing) for r in reports]
            print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        elif args.format == "csv" and reports:
            reports[0].write_csv(out, *reports[1:])
        else:
            for r in reports:
                low = "none"  # no graph, no minimum, as the JSON report's null
                if r.graphs_scanned:
                    low = f"{_fmt(r.min_energy)} at {r.min_energy_graph6}"
                print(
                    f"{r.source}: {r.graphs_scanned} graphs, "
                    f"{r.total_failures} failures, min E_S = {low}",
                    file=out,
                )
                for f in r.failures:
                    print(
                        f"  FAIL {f['graph6']} {f['check']} "
                        f"lhs={f['lhs']} rhs={f['rhs']} margin={f['margin']}",
                        file=out,
                    )
    failed = sum(r.total_failures for r in reports)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _verify_single(args, checks, p_grid, out) -> int:
    g = parse_graph6(args.g6)
    require_applicable(g.n, checks if args.checks else ())  # named checks must apply
    reports = run_checks(g, checks, p_grid)
    if args.format == "json":
        print(json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True), file=out)
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{status} {r.check} lhs={r.lhs} rhs={r.rhs} margin={_fmt(r.margin)}", file=out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_constants(args) -> int:
    for p in args.p:
        closed = cp_constant(p)
        quad = cp_constant_quadrature(p, args.spec)
        print(
            f"C_{_fmt(p)} closed-form={_fmt(closed)} "
            f"quadrature={_fmt(quad)} diff={_fmt(abs(closed - quad))}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seidelab",
        description="Seidel energy laboratory: spectra, lemma checkers, scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("energy", help="spectrum and p-energies of one graph")
    pe.add_argument("--g6", required=True, help="graph6 string")
    pe.add_argument("-p", type=float, action="append", default=None)
    pe.add_argument("--backend", choices=("eig", "integral", "both"), default="eig")
    pe.add_argument("--format", choices=("json", "plain"), default="plain")
    pe.set_defaults(func=cmd_energy)

    pv = sub.add_parser("verify", help="run lemma/theorem checkers")
    src = pv.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", help="single graph6 string")
    src.add_argument("--g6-file", help="file of graph6 lines")
    src.add_argument("--all-n", help=f"exhaustive scan, n or lo..hi (n <= {ENUM_MAX_N})")
    src.add_argument(
        "--boundary-family",
        help="clique-plus-two-apexes family, n or lo..hi "
        f"({BOUNDARY_MIN_N}..{BOUNDARY_MAX_N})",
    )
    pv.add_argument("--checks", help="comma-separated subset of " + ",".join(CHECK_NAMES))
    pv.add_argument("-p", type=float, action="append", default=None)
    pv.add_argument("--workers", type=int, default=1)
    pv.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    pv.add_argument("--out", help="write the report here instead of stdout")
    pv.add_argument("--no-timing", action="store_true", help="omit wall time from JSON")
    pv.add_argument(
        "--skip-bad-lines",
        dest="strict_parse",
        action="store_false",
        help="skip malformed graph6 lines instead of aborting",
    )
    pv.set_defaults(func=cmd_verify, strict_parse=True)

    pc = sub.add_parser("constants", help="C_p by closed form and quadrature")
    pc.add_argument("-p", type=float, action="append", required=True)
    pc.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "p", None) is None:
        args.p = [1.0]
    try:
        for p in args.p:
            if args.command in ("energy", "verify") and not 0.0 < p <= 2.0:
                raise ValueError(f"p={p} outside (0, 2]")
        if args.command == "constants" or getattr(args, "backend", "eig") != "eig":
            args.spec = _quad_spec()
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point it at devnull so
        # the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    except (SpectrumError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except (ValueError, OSError) as exc:
        # input rejections: graph6, checks, ranges, --workers, p domains and
        # files that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
