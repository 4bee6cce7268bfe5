"""seidelab benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The last stdout line is the result object (``correct``,
``attempted``, ``failed``, ``metrics``), with the metrics that
``BENCHMARK.json`` lists for ``--trace 0`` (end to end) or ``--trace 1``
(per layer).  The line before it is the full record (machine facts,
per-group latencies, wrong results); it is also written under
``.bench_build/bench/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process, for this process and every child it starts.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "bench"

SETUP_SAMPLES = 11
COLD_START_SAMPLES = 5  # recorded, not a bounded metric
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 60
MAX_WRONG_SHOWN = 20

SETUP_SNIPPET = "import seidelab, workloads; workloads.warmup(seidelab)"
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import seidelab.cli; "
    "print(time.perf_counter() - t)"
)


class Run:
    """Tallies of one benchmark run: operations and the facts they broke."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def timed(self, call, probe=None):
        """(result, wall seconds) of one call, or (None, None) if it raised;
        timed under ``probe`` when one is given."""
        self.attempted += 1
        try:
            if probe is None:
                t0 = perf_counter()
                return call(), perf_counter() - t0
            with probe:
                result = call()
            return result, probe.last_s
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, None

    def run_pass(self, ops, times, probe=None) -> tuple[float, int]:
        """All operations once, in order, each output checked: (wall
        seconds, graphs verified).  Per-call seconds go to ``times``."""
        spent, graphs = 0.0, 0
        for op in ops:
            result, elapsed = self.timed(op.call, probe)
            if elapsed is None:
                continue
            self.wrong += op.check(result)
            times.setdefault(op.label, []).append(elapsed)
            spent += elapsed
            graphs += op.graphs
        return spent, graphs

    def child(self, argv: list[str], probe=None, check=None) -> tuple[float, str] | None:
        """Run a fresh interpreter from ``bench/``; return (wall seconds,
        stdout), or None if it failed."""

        def call():
            return subprocess.run(
                argv, cwd=BENCH, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )

        proc, elapsed = self.timed(call, probe)
        if proc is None:
            return None
        if proc.returncode != 0:
            self.failed += 1
            sys.stderr.write(proc.stderr)
            return None
        if check is not None:
            self.wrong += check(proc.stdout)
        return elapsed, proc.stdout


def median(values):
    return statistics.median(values) if values else float("nan")


def latency_summary(samples: list[float]) -> dict:
    """Median and the highest listed percentile with >= 10 samples beyond it."""
    out = {"count": len(samples), "median_ms": 1e3 * median(samples)}
    ordered = sorted(samples)
    for q in (99.9, 99, 95, 90):
        if len(ordered) * (1 - q / 100) >= 10:
            out[f"p{q:g}_ms"] = 1e3 * ordered[int(len(ordered) * q / 100)]
            break
    return out


def peak_rss_mib(children_before: int) -> tuple[float, float]:
    """(this process, largest child waited for since ``children_before`` was
    read), in MiB; the child figure is 0 if no child grew past that mark."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024, (kids if kids > children_before else 0) / 1024


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.rglob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "git_commit": git_commit(),
        "source_fingerprint": source_fingerprint(),
        "seed": seed,
    }


def check_cli_energy(line: str):
    """Reference facts for `seidelab energy --g6 <line> --backend both`."""
    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        adj = ref.decode(line)
        want = ref.p_energies(adj, [1.0])[0]
        entry = out["energies"][0]
        wrong = []
        if out["n"] != adj.shape[0] or out["N_op"] != ref.odd_pairs(adj):
            wrong.append(f"cli energy {line}: n or N_op differs from reference")
        for backend in ("eigenvalue_backend", "integral_backend"):
            if abs(entry[backend] - want) > 1e-6 * max(1.0, want):
                wrong.append(f"cli energy {line}: {backend} {entry[backend]!r} vs {want!r}")
        return wrong

    return check


def cli_argv(line: str) -> list[str]:
    return ["energy", "--g6", line, "-p", "1.0", "--backend", "both", "--format", "json"]


def check_counts(workload: str, seed: int, fingerprint: str, counts: dict) -> list[str]:
    """Counts must repeat exactly for the same code, workload and seed."""
    path = OUT / "counts" / f"{fingerprint}-{workload}-{seed}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return [
            f"count drift: {key} was {before.get(key)}, now {counts.get(key)}"
            for key in sorted(set(before) | set(counts))
            if before.get(key) != counts.get(key)
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def timed_run(args, run: Run, ops, cli_line) -> tuple[dict, dict]:
    """Passes with tracing off until the next one would end past --seconds,
    then fresh-interpreter setup and CLI cold-start samples.  Times are in
    reference seconds (see speed.py); the record keeps the wall seconds."""
    times: dict[str, list[float]] = {}
    passes: list[float] = []
    walls: list[float] = []
    graphs = 0
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    t_start = perf_counter()
    while True:
        probe, pass_times = speed.Probe(), {}
        spent, done = run.run_pass(ops, pass_times, probe)
        for label, values in pass_times.items():
            times.setdefault(label, []).extend(v * probe.scale for v in values)
        passes.append(spent * probe.scale)
        walls.append(spent)
        graphs += done
        if perf_counter() - t_start + median(walls) > args.seconds:
            break
    phase_s = perf_counter() - t_start
    parent_mib, worker_mib = peak_rss_mib(children_before)  # before other children run

    def sample(argv, count, check=None):
        """Median reference seconds of ``count`` fresh interpreters, and their
        wall times.  Child and probe share one CPU, so the probe sees the
        speed the child gets; the two CPUs of a shared host can differ."""
        probe, walls = speed.Probe(), []
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            for _ in range(count):
                done = run.child(argv, probe, check)
                if done:
                    walls.append(done[0])
        finally:
            os.sched_setaffinity(0, allowed)
        return median(walls) * probe.scale, walls

    setup_s, setup_walls = sample([sys.executable, "-c", SETUP_SNIPPET], SETUP_SAMPLES)
    cold_s, cold_walls = sample(
        [sys.executable, "-m", "seidelab.cli", *cli_argv(cli_line)],
        COLD_START_SAMPLES,
        check_cli_energy(cli_line),
    )
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(passes),
        "graphs_per_s": graphs / sum(passes),
        "cold_start_s": cold_s,
        "peak_rss_mb": parent_mib + worker_mib,
    }
    detail = {
        "timed_phase_s": phase_s,
        "passes": len(passes),
        "pass_s": passes,
        "pass_wall_s": walls,
        "graphs": graphs,
        "setup_wall_s": setup_walls,
        "cold_start_wall_s": cold_walls,
        "peak_rss_parent_mb": parent_mib,
        "peak_rss_largest_worker_mb": worker_mib,
        "latency": {label: latency_summary(v) for label, v in times.items()},
    }
    return metrics, detail


def traced_run(run: Run, ops, cli_line) -> tuple[dict, dict]:
    """One pass untraced, then the same pass traced, then one traced CLI call."""
    t_plain, _ = run.run_pass(ops, {})
    tracer = tracing.Tracer()
    tracer.install(tracing.SCAN_SPANS, tracing.CHUNK_ENTRY)
    try:
        t_traced, _ = run.run_pass(ops, {})
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = t_traced
    metrics["trace.overhead_ratio"] = t_traced / t_plain
    metrics["trace.unattributed_s"] = t_traced - tracer.top_level_s - tracer.excluded_s

    imports = [run.child([sys.executable, "-c", IMPORT_SNIPPET]) for _ in range(IMPORT_SAMPLES)]
    imports = [float(r[1]) for r in imports if r]
    metrics["cli.import_s"] = median(imports)

    import seidelab.cli

    cli_tracer = tracing.Tracer()
    cli_tracer.install(tracing.CLI_SPANS)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code, _ = run.timed(lambda: seidelab.cli.main(cli_argv(cli_line)))
    finally:
        cli_tracer.uninstall()
    if code == 0:
        run.wrong += check_cli_energy(cli_line)(out.getvalue())
    elif code is not None:
        run.failed += 1
    metrics["cli.main.self_s"] = cli_tracer.self_s["cli.main"]
    return metrics, {"untraced_pass_s": t_plain, "span_tree": tracer.tree}


COUNT_SUFFIXES = (".calls", ".matrices", ".built")
COUNT_KEYS = ("search.chunks", "search.graphs", "search.ipc_bytes", "search.flagged")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seidelab" / "__init__.py").is_file():
        print(f"error: no seidelab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    sys.path.insert(0, str(SRC))
    import seidelab as lab

    if Path(lab.__file__).resolve().parent != SRC / "seidelab":
        print(f"error: imported seidelab from {lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = Run()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.warmup(lab)
        workers = 1 if args.trace else workloads.WORKERS[args.workload]
        ops = workloads.WORKLOAD_OPS[args.workload](lab, args.seed, workdir, workers)
        cli_line = workloads.random_graph6(np.random.default_rng(args.seed), [10])[0]
        if args.trace:
            metrics, detail = traced_run(run, ops, cli_line)
        else:
            metrics, detail = timed_run(args, run, ops, cli_line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts(args.seed)
    if args.trace:
        counts = {
            k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES) or k in COUNT_KEYS
        }
        run.wrong += check_counts(args.workload, args.seed, facts["source_fingerprint"], counts)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "workers": workers,
        "machine": facts,
        "wrong_results": len(run.wrong),
        "error_ratio": run.failed / max(run.attempted, 1),
        "metrics": metrics,
        "detail": detail,
    }
    for message in run.wrong[:MAX_WRONG_SHOWN]:
        print(f"wrong: {message}", file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "detail"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
