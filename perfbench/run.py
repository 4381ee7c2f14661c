"""zetawalk benchmark: fixed workloads through the public entry points.

    python3 perfbench/run.py --workload exact-arc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The loop is closed with one client: jobs run one after another in
this single process, each calling `zetawalk.cli.entrypoint(argv)` with stdout
captured (or a library function, for the one operation with no
subcommand). A pass is one trip through the workload's job list; the run
repeats whole passes until `--seconds` have gone by and reports per-pass
medians. The seed fixes the job order within a pass and every rational
evaluation point. Each job's output is checked against computations made
apart from the program (see checks.py).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate between untraced and
traced (see tracer.py) and the JSON carries the per-layer metrics.
"""

from __future__ import annotations

import os

# one thread: numpy's BLAS would otherwise start a thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# reference time of the calibration kernel: normalized seconds are seconds on
# a machine where the kernel takes this long (about one 2.1 GHz Xeon core)
CALIBRATION_S = 0.009

# graph name -> `zetawalk gen` arguments
GRAPHS = {
    "petersen": ["--family", "petersen"],
    "complete-4": ["--family", "complete", "--N", "4"],
    "complete-6": ["--family", "complete", "--N", "6"],
    "complete-8": ["--family", "complete", "--N", "8"],
    "torus-2-3": ["--family", "torus", "--d", "2", "--N", "3"],
    "torus-2-4": ["--family", "torus", "--d", "2", "--N", "4"],
    "torus-2-6": ["--family", "torus", "--d", "2", "--N", "6"],
    "torus-2-16": ["--family", "torus", "--d", "2", "--N", "16"],
    "torus-3-7": ["--family", "torus", "--d", "3", "--N", "7"],
    "hypercube-4": ["--family", "hypercube", "--d", "4"],
    "hypercube-5": ["--family", "hypercube", "--d", "5"],
    "hypercube-8": ["--family", "hypercube", "--d", "8"],
}

WORKLOADS = ("exact-arc", "cycle-series", "spectral-limit")

# end-to-end metric for the jobs of each kind
KIND_METRIC = {
    "verify": "verify_s",
    "charpoly": "charpoly_s",
    "zeta_eval": "zeta_eval_s",
    "series": "series_s",
    "consistency": "series_s",
    "torus_limit": "torus_limit_s",
    "converge": "converge_s",
}

# per-layer metrics the harness adds to the tracer's
HARNESS_METRICS = {"cli.stdout_bytes": "bytes", "traced.pass_s": "s", "trace.overhead_s": "s",
                   "trace.unaccounted_s": "s", "trace.spans": "count"}
# the layers' self times, which account for a traced pass
ACCOUNTED = ("graphs.self_s", "operators.assembly_s", "rational.self_s",
             "polynomials.self_s", "zeta.self_s", "limits.self_s", "cli.self_s")

# the evaluation point 1 - 10^-20, where the exact determinant on torus(2,4)
# is about 1e-346 and a float conversion underflows
NEAR_ONE = "99999999999999999999/100000000000000000000"


@dataclass
class Job:
    kind: str
    argv: list[str] | None  # None: the library call named by kind
    spec: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if self.argv is None:
            return f"zeta_series_consistency {self.spec['graph']} order {self.spec['order']}"
        return " ".join(Path(arg).stem if arg.endswith(".json") else arg for arg in self.argv)


def _u(rng: random.Random, low: int, high: int) -> Fraction:
    """A rational point k/1000 with low <= k <= high."""
    return Fraction(rng.randint(low, high), 1000)


def build_workload(name: str, seed: int, workdir: Path) -> tuple[list[Job], list[Job]]:
    """The jobs of one pass, in seeded order, and the set-up warm-up jobs."""
    rng = random.Random(f"{name}:{seed}")

    def path(graph: str) -> str:
        return str(workdir / f"{graph}.json")

    def cli(kind: str, argv: list[str], **spec) -> Job:
        if "graph" in spec:
            spec["path"] = path(spec["graph"])
        return Job(kind, argv, spec)

    def verify(graph: str) -> Job:
        return cli("verify", ["verify", "konno-sato", "--json", "--graph", path(graph)], graph=graph)

    def charpoly(graph: str, matrix: str, u0: Fraction) -> Job:
        argv = ["charpoly", "--graph", path(graph), "--matrix", matrix]
        return cli("charpoly", argv, graph=graph, matrix=matrix, u0=u0)

    def zeta_eval(graph: str, u: str, method: str, family: tuple) -> Job:
        argv = ["zeta-eval", "--graph", path(graph), "--u", u, "--method", method, "--json"]
        return cli("zeta_eval", argv, graph=graph, u=Fraction(u), method=method, family=family)

    def series(graph: str, which: str, order: int) -> Job:
        argv = ["series", "--graph", path(graph), "--order", str(order), "--which", which, "--json"]
        return cli("series", argv, graph=graph, which=which, order=order)

    def consistency(graph: str, order: int) -> Job:
        return Job("consistency", None, {"graph": graph, "path": path(graph), "order": order})

    def torus_limit(d: int, u: Fraction, which: str, grid: int) -> Job:
        argv = ["torus-limit", "--d", str(d), "--u", str(u), "--which", which,
                "--grid", str(grid), "--json"]
        return cli("torus_limit", argv, d=d, u=u, which=which, grid=grid)

    def converge(d: int, u: Fraction, sides: list[int]) -> Job:
        argv = ["converge", "--d", str(d), "--u", str(u),
                "--N", ",".join(map(str, sides)), "--json"]
        return cli("converge", argv, d=d, u=u, which="grover", sides=sides)

    def ihara_u(d: int) -> Fraction:
        # 20-50 % of the CLI's default ihara-kind margin 0.9 / (2d - 1)
        return Fraction(9, 10 * (2 * d - 1)) * Fraction(rng.randint(20, 50), 100)

    if name == "exact-arc":
        u0 = _u(rng, 100, 900)
        u = str(_u(rng, 50, 600))
        jobs = [verify(g) for g in ("petersen", "torus-2-3", "torus-2-4", "complete-6")]
        jobs += [
            charpoly(g, matrix, u0)
            for g in ("petersen", "torus-2-4", "complete-6")
            for matrix in ("grover", "positive-support", "bass")
        ]
        jobs += [zeta_eval(g, u, "both", ("slogdet",)) for g in ("hypercube-4", "complete-6")]
        # fails on every pass: the value underflows to 0.0 before its log
        jobs.append(zeta_eval("torus-2-4", NEAR_ONE, "charpoly", ("exact-torus-4", 2)))
        warmups = [
            verify("complete-4"),
            charpoly("complete-4", "grover", u0),
            zeta_eval("complete-4", "1/5", "both", ("slogdet",)),
        ]
    elif name == "cycle-series":
        jobs = [
            series(g, which, order)
            for g, order in (("torus-2-6", 12), ("complete-8", 9), ("hypercube-5", 6))
            for which in ("grover", "ihara")
        ]
        jobs += [consistency(g, 12) for g in ("petersen", "torus-2-3")]
        warmups = [series("complete-4", "grover", 6), consistency("complete-4", 6)]
    elif name == "spectral-limit":
        jobs = [
            torus_limit(2, _u(rng, 100, 450), "grover", 64),
            torus_limit(2, ihara_u(2), "ihara", 64),
            torus_limit(3, _u(rng, 100, 450), "grover", 128),
            torus_limit(3, ihara_u(3), "ihara", 128),
            torus_limit(4, _u(rng, 100, 450), "grover", 64),
            torus_limit(4, ihara_u(4), "ihara", 32),
            converge(2, _u(rng, 100, 450), [4, 8, 16, 32]),
            converge(3, _u(rng, 100, 450), [4, 8, 16]),
        ]
        jobs += [
            zeta_eval(g, str(_u(rng, 100, 600)), "spectral", family)
            for g, family in (
                ("torus-2-16", ("torus", 2, 16)),
                ("torus-3-7", ("torus", 3, 7)),
                ("hypercube-8", ("hypercube", 8)),
            )
        ]
        warmups = [
            torus_limit(2, Fraction(1, 5), "grover", 16),
            converge(2, Fraction(1, 5), [4]),
            zeta_eval("complete-4", "1/5", "spectral", ("slogdet",)),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(jobs)
    return jobs, warmups


@dataclass
class Outcome:
    job: Job
    seconds: float
    output: dict | None  # None when the job failed
    stdout_bytes: int = 0
    error: str = ""


def run_job(job: Job, zw) -> Outcome:
    """Run one job; time only the call into the program."""
    if job.argv is None:
        start = time.perf_counter()
        try:
            report = zw.zeta.zeta_series_consistency(
                zw.graphs.load_graph(job.spec["path"]), job.spec["order"]
            )
        except Exception:
            return Outcome(job, time.perf_counter() - start, None, error=traceback.format_exc())
        seconds = time.perf_counter() - start
        output = {
            "holds": report.holds,
            "log": list(report.log_coefficients),
            "scaled": list(report.scaled_counts),
        }
        return Outcome(job, seconds, output)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = zw.cli.entrypoint(job.argv)
    except Exception:
        return Outcome(job, time.perf_counter() - start, None, error=traceback.format_exc())
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if code not in (0, 1):
        return Outcome(job, seconds, None, len(text.encode()), f"exit {code}: {err.getvalue().strip()}")
    output = json.loads(text)
    # exit 1 is a verification that did not hold: an output, but a wrong one
    output["exit_code"] = code
    return Outcome(job, seconds, output, len(text.encode()))


class Program:
    """The zetawalk modules, looked up by attribute so a tracer can wrap them."""

    def __init__(self):
        import zetawalk
        import zetawalk.cli

        source = (ROOT / "src").resolve()
        if source not in Path(zetawalk.__file__).resolve().parents:
            raise ImportError(f"zetawalk was imported from {zetawalk.__file__}, not {source}")
        self.cli = zetawalk.cli
        self.graphs = zetawalk.graphs
        self.zeta = zetawalk.zeta


def setup(jobs: list[Job], warmups: list[Job], workdir: Path) -> tuple[float, Program]:
    """Import, graph generation and loading, and one warm-up job of each kind."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    zw = Program()
    for graph in sorted({job.spec["graph"] for job in jobs + warmups if "graph" in job.spec}):
        target = workdir / f"{graph}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = zw.cli.entrypoint(["gen", *GRAPHS[graph], "--out", str(target)])
        if code != 0:
            raise RuntimeError(f"zetawalk gen failed for {graph}")
        zw.graphs.load_graph(target)
    for job in warmups:
        outcome = run_job(job, zw)
        if outcome.output is None:
            raise RuntimeError(f"warm-up job {job.label} failed: {outcome.error}")
    return time.perf_counter() - start, zw


def setup_in_child(args: argparse.Namespace) -> float:
    """Set-up time of a fresh interpreter, which pays every cold cost again."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _kernel_matrix() -> list[list[int]]:
    """A fixed nonsingular 48 x 48 integer matrix for the calibration kernel."""
    rng = random.Random(0)
    return [[rng.randint(-9, 9) for _ in range(48)] for _ in range(48)]


KERNEL_MATRIX = _kernel_matrix()


def calibrate() -> float:
    """Seconds taken by fraction-free elimination of KERNEL_MATRIX.

    The kernel is big-integer Python arithmetic, the kind of work that
    dominates the exact routes. It is the benchmark's own code.
    """
    start = time.perf_counter()
    a = [row[:] for row in KERNEL_MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next(i for i in range(k + 1, n) if a[i][k])
            a[k], a[i] = a[i], a[k]
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1 :]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return time.perf_counter() - start


def run_pass(jobs: list[Job], zw, calibrated: bool) -> tuple[float, float, list[Outcome]]:
    """Run the jobs once: wall seconds, normalized seconds and outcomes.

    The machine's speed drifts by tens of percent over tens of seconds when
    other tenants load it. With `calibrated`, the kernel is timed just before
    each job, and the job's time is scaled by CALIBRATION_S over that kernel
    time. The wall time leaves the kernel's own time out.
    """
    outcomes = []
    normalized = spent = 0.0
    start = time.perf_counter()
    for job in jobs:
        kernel = CALIBRATION_S
        if calibrated:
            kernel = calibrate()
            spent += kernel
        outcome = run_job(job, zw)
        outcomes.append(outcome)
        normalized += outcome.seconds * CALIBRATION_S / kernel
    return time.perf_counter() - start - spent, normalized, outcomes


def check_outcomes(outcomes: list[Outcome], checks, first_pass: bool) -> list[str]:
    """Problems with the outputs of one pass; on the first pass, also confirm
    that every checker rejects a perturbed copy of its job's output."""
    problems = []
    for o in outcomes:
        if o.output is None:
            continue
        if o.output.get("exit_code", 0) != 0:
            problems.append(f"{o.job.label}: exit code {o.output['exit_code']}")
        problem = checks.check(o.job.kind, o.job.spec, o.output)
        if problem:
            problems.append(f"{o.job.label}: {problem}")
        if first_pass:
            bad = checks.perturb(o.job.kind, o.output)
            if checks.check(o.job.kind, o.job.spec, bad) is None:
                problems.append(f"{o.job.label}: checker accepted a perturbed output")
    problems += checks.check_pass([(o.job, o.output) for o in outcomes])
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zetawalk" / "__init__.py").is_file():
        print(f"error: no zetawalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH))
    try:
        jobs, warmups = build_workload(args.workload, args.seed, workdir)
        if args.setup_only:
            seconds, _ = setup(jobs, warmups, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        setup_samples = []
        if not args.trace:
            setup_samples = [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
        seconds, zw = setup(jobs, warmups, workdir)
        setup_samples.append(seconds)
        return measure(args, jobs, zw, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args: argparse.Namespace, jobs: list[Job], zw, setup_samples: list[float]) -> int:
    import checks
    import tracer as tracing

    tracer = tracing.Tracer()
    passes = []  # (traced, wall seconds, per-pass metrics)
    attempted = failed = 0
    problems: list[str] = []
    failures: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        first_span = len(tracer.spans)
        if traced:
            tracer.install()
        try:
            wall, normalized, outcomes = run_pass(jobs, zw, calibrated=not args.trace)
        finally:
            tracer.uninstall()
        attempted += len(outcomes)
        for o in outcomes:
            if o.output is None:
                failed += 1
                failures[o.job.label] = o.error.strip().splitlines()[-1] if o.error else "?"
        problems += check_outcomes(outcomes, checks, first_pass=not passes)
        metrics = {"pass_s": wall, "pass_norm_s": normalized,
                   "cli.stdout_bytes": sum(o.stdout_bytes for o in outcomes)}
        for o in outcomes:
            name = KIND_METRIC[o.job.kind]
            metrics[name] = metrics.get(name, 0.0) + o.seconds
        if traced:
            metrics.update(tracer.layer_metrics(first_span, len(tracer.spans)))
            metrics["trace.spans"] = len(tracer.spans) - first_span
        passes.append((traced, wall, metrics))
        enough = not args.trace or len(passes) >= 2
        if enough and time.perf_counter() - start >= args.seconds:
            break

    for label, reason in sorted(failures.items()):
        print(f"failed on every pass: {label}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    untraced = [m for t, _, m in passes if not t]
    if args.trace:
        traced = [m for t, _, m in passes if t]
        for m in traced:
            m["traced.pass_s"] = m["pass_s"]
            m["trace.unaccounted_s"] = m["pass_s"] - sum(m[name] for name in ACCOUNTED)
        final = {
            name: _metric(statistics.median([m[name] for m in traced]), unit)
            for name, unit in {**tracing.METRICS, **HARNESS_METRICS}.items()
            if name != "trace.overhead_s"
        }
        overhead = final["traced.pass_s"]["value"] - statistics.median(
            [m["pass_s"] for m in untraced]
        )
        final["trace.overhead_s"] = _metric(overhead, "s")
        shown = final
    else:
        kinds = sorted({KIND_METRIC[job.kind] for job in jobs})
        shown = {
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "pass_norm_s": _metric(statistics.median([m["pass_norm_s"] for m in untraced]), "s"),
            "pass_s": _metric(statistics.median([m["pass_s"] for m in untraced]), "s"),
            **{name: _metric(statistics.median([m[name] for m in untraced]), "s") for name in kinds},
            "peak_rss_mib": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
            ),
        }
        final = {name: shown[name] for name in ("pass_norm_s", "setup_s", "peak_rss_mib")}

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(jobs)} jobs; set-up samples {', '.join(f'{s:.3f}' for s in setup_samples)} s")
    print(f"  pass walls {', '.join(f'{w:.3f}' + ('t' if t else '') for t, w, _ in passes)} s")
    for name, metric in shown.items():
        print(f"  {name:28s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": final,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
