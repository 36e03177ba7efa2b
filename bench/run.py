"""End-to-end and per-layer benchmark of evidentia.

One run measures one workload in one process:

    python3 bench/run.py --workload eval-large --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report of the run (environment, sizes, tail
percentile, failures, per-layer table) goes to ``.bench_out/``.

    python3 bench/run.py --quick             # smoke test, under 30 s
    python3 bench/run.py --stability 10      # two sets of runs per workload

The package is imported from ``src/`` of the checkout this file sits in;
nothing needs to be installed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import inspect
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("eval-large", "eval-wide", "check", "field")

# Fixed work per run.  A run does the same operations whatever the speed of
# the program, so two commits are timed on identical work.  These constants,
# in reference seconds (below), size it so that a run measures about
# --seconds seconds at the commit that introduced the benchmark.
LARGE_PASS_S = 5.6  # one pass over the eval-large models
WIDE_PASS_S = 6.2  # one pass over the eval-wide models
FIELD_BATCHES_PER_S = 40.0
CHECK_OPS_PER_S = 1.6  # 24 checks at 15 s, so the tail has 14 samples below it
SETUP_RUNS = 11

# The machines this runs on drift in speed by a fifth or more over tens of
# seconds, whole runs at a time.  Every timing is therefore scaled by the
# machine's speed at that moment, measured with a fixed unit of interpreter
# work timed between operations: a reported second is a second on a machine
# where the unit takes REFERENCE_S.  Raw timings go to the report file.
REFERENCE_S = 0.007
GAUGE_EVERY_S = 0.1  # time between two speed samples


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    run: Callable[[], object]
    check: Callable[[object], str | None]
    work: int
    root: str = "cli"


@dataclass
class Work:
    ops: list[Op]
    passes: int
    sizes: dict
    problems: list[str] = field(default_factory=list)  # failed self-checks of the inputs


def reference_unit() -> int:
    """Fixed interpreter work: small-integer arithmetic in a loop.  It
    allocates nothing that outlives an iteration, so the program's heap
    does not change how long it takes."""
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


# A set-up child times the reference unit itself before it imports, so its
# time is scaled by the speed of the CPU it ran on.
SETUP_CODE = inspect.getsource(reference_unit) + """
import sys, time
samples = []
for _ in range(3):
    start = time.perf_counter()
    reference_unit()
    samples.append(time.perf_counter() - start)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import evidentia.cli
evidentia.cli.build_arg_parser()
print(time.perf_counter() - start, sorted(samples)[1])
"""


class SpeedGauge:
    """Samples of how long the reference unit takes, each tagged with the
    number of operations done before it."""

    def __init__(self):
        self.positions: list[int] = []
        self.seconds: list[float] = []

    def sample(self, position: int):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_unit()
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.positions.append(position)
        self.seconds.append(elapsed)

    def scale(self, op: int) -> float:
        """Factor turning the raw time of operation ``op`` into reference
        seconds: from the median of the three samples taken before it and
        the three taken after it."""
        cut = bisect.bisect_right(self.positions, op)
        near = self.seconds[max(0, cut - 3) : cut + 3]
        return REFERENCE_S / statistics.median(near)


def import_evidentia():
    if not (SRC / "evidentia" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'evidentia'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import evidentia
    import evidentia.cli
    import evidentia.oracle
    import evidentia.suites

    resolved = Path(evidentia.__file__).resolve()
    if SRC.resolve() not in resolved.parents:
        raise SystemExit(f"error: imported evidentia from {resolved}, not from {SRC}")
    return evidentia


def run_cli(cli, argv: list[str]):
    """``cli.main(argv)`` with its output captured: (exit code, stdout, stderr).
    A traceback or an exit through SystemExit shows up in the exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    except Exception:
        code = "traceback"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


# -- workloads ---------------------------------------------------------------------------


def eval_large(ev, rng: random.Random, seconds: float, quick: bool, workdir: Path) -> Work:
    """Models of 10^4 to 3*10^4 atoms, log-spaced, one per stratum; the
    continuum grows from 10^2 to 10^4 tranches with the atom count."""
    import models

    strata = 3 if quick else 10
    top = 2 * 10**4 if quick else 3 * 10**4
    ops, sizes = [], {"models": strata, "atoms": [], "queries": []}
    built = []
    for i in range(strata):
        share = i / (strata - 1)
        atoms = round(10**4 * (top / 10**4) ** share)
        tranches = round(100 * 100**share)
        queries = 20 + round(10 * ((i * 0.618) % 1))
        model = models.large_model(rng, f"large{i}", atoms, tranches, queries, i)
        built.append(model)
        path = str(workdir / f"large{i}.evd")
        Path(path).write_text(model.text, encoding="utf-8")
        sizes["atoms"].append(model.atoms)
        sizes["queries"].append(len(model.queries))
        ops.append(
            Op(
                run=lambda p=path: run_cli(ev.cli, ["eval", p]),
                check=lambda outcome, m=model, p=path: models.mismatch(m, p, *outcome),
                work=len(model.queries),
            )
        )
    problems = models.oracle_disagreements(ev.oracle, built[0], every=5)
    passes = 1 if quick else max(1, round(seconds / LARGE_PASS_S))
    return Work(ops, passes, sizes, problems)


def eval_wide(ev, rng: random.Random, seconds: float, quick: bool, workdir: Path) -> Work:
    """Small spaces with long sources; a quarter each of finite text, finite
    JSON, scaled text and scaled JSON; one model in ten carries an error."""
    import models

    count = 6 if quick else 30
    errors = {count * k // 3 + 1: kind for k, kind in enumerate(models.ERROR_KINDS)}
    ops, sizes = [], {"models": count, "errors": len(errors), "atoms": [], "queries": [], "bytes": []}
    problems = []
    for i in range(count):
        scaled, as_json = i % 2 == 1, (i // 2) % 2 == 1
        # Sizes spread evenly over their ranges, so every run holds the same mix.
        labels = 150 + round(180 * ((i * 0.618) % 1))
        queries = 40 + i if quick else 100 + round(60 * ((i * 0.414) % 1))
        model = models.wide_model(rng, f"wide{i}", labels, queries, scaled, as_json, errors.get(i))
        if model.error is None:
            problems += models.oracle_disagreements(ev.oracle, model, every=20)
        path = str(workdir / f"wide{i}.evd")
        Path(path).write_text(model.text, encoding="utf-8")
        argv = ["eval", path] + (["--scaled"] if scaled else []) + (["--format", "json"] if as_json else [])
        sizes["atoms"].append(model.atoms)
        sizes["queries"].append(len(model.queries))
        sizes["bytes"].append(len(model.text))
        ops.append(
            Op(
                run=lambda a=argv: run_cli(ev.cli, a),
                check=lambda outcome, m=model, p=path: models.mismatch(m, p, *outcome),
                work=0 if model.error else len(model.queries),
            )
        )
    passes = 1 if quick else max(1, round(seconds / WIDE_PASS_S))
    return Work(ops, passes, sizes, problems)


def check_workload(ev, rng: random.Random, seconds: float, quick: bool, workdir: Path) -> Work:
    """`evidentia check` over seeds drawn from the recorded pool, one per
    cost stratum."""
    import check

    count = 2 if quick else max(11, round(seconds * CHECK_OPS_PER_S))
    picked = check.pick(check.load_pool(), rng, count)
    ops = [
        Op(
            run=lambda s=entry["seed"]: run_cli(ev.cli, ["check", "--seed", str(s), "--instances", str(check.INSTANCES)]),
            check=lambda outcome, e=entry: check.mismatch(e, *outcome),
            work=sum(entry["cases"].values()),
        )
        for entry in picked
    ]
    sizes = {"seeds": [e["seed"] for e in picked], "instances": check.INSTANCES}
    return Work(ops, 1, sizes)


def field_workload(ev, rng: random.Random, seconds: float, quick: bool, workdir: Path) -> Work:
    """Batches of field operations over a seeded operand pool."""
    import field as fw
    import models

    hyper = ev.hyperrational
    pool = fw.operand_pool(rng)
    values = [hyper.Hyperrational.parse(text) for text, _, _ in pool]
    problems = []
    for k, value in enumerate(values):
        problem = fw.check_result("parse", value, k, k, pool, values, ev.suites.substitution_bound, models.approx_text)
        if problem:
            problems.append(f"operand {problem}")
    distinct = 4 if quick else 32
    batches = fw.make_batches(rng, pool, values, distinct, hyper)

    def checker(batch):
        reference = []

        def check(results):
            if reference:
                same = [fw.signature(r) for r in results] == reference[0]
                return None if same else "batch results changed between runs"
            for (name, _, _, _, i, j), result in zip(batch, results):
                problem = fw.check_result(name, result, i, j, pool, values, ev.suites.substitution_bound, models.approx_text)
                if problem:
                    return problem
            reference.append([fw.signature(r) for r in results])
            return None

        return check

    ops = [Op(run=lambda b=b: fw.run_batch(b), check=checker(b), work=fw.BATCH_SIZE, root="field.batch") for b in batches]
    passes = 1 if quick else max(1, round(seconds * FIELD_BATCHES_PER_S / distinct))
    sizes = {"operands": len(pool), "batches": distinct, "ops_per_batch": fw.BATCH_SIZE}
    return Work(ops, passes, sizes, problems)


MAKE_WORK = {
    "eval-large": eval_large,
    "eval-wide": eval_wide,
    "check": check_workload,
    "field": field_workload,
}


# -- measuring -------------------------------------------------------------------------------


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Seconds a fresh interpreter takes to import evidentia.cli and build
    its argument parser, once per run after one unrecorded warm-up; raw and
    scaled by the speed each child measured."""
    raw, scaled = [], []
    for k in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        elapsed, reference = (float(x) for x in proc.stdout.split())
        if k:
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / reference)
    return raw, scaled


def execute(work: Work, passes: int, tracer=None):
    """Run every op ``passes`` times, sampling the machine's speed between
    ops.  Returns (raw times, scaled times, failures, work done)."""
    times, failures, done = [], [], 0
    gauge = SpeedGauge()
    gc.collect()
    gauge.sample(0)
    since = 0.0
    for _ in range(passes):
        for k, op in enumerate(work.ops):
            if tracer is not None:
                tracer.op_id = k
                span = tracer.begin(op.root)
            start = time.perf_counter()
            outcome = op.run()
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.finish(span)
                if op.root == "cli":
                    tracer.counts["cli.out_bytes"] += len(outcome[1].encode("utf-8"))
                    tracer.counts["cli.diagnostics"] += outcome[2].count(": error: ")
            times.append(elapsed)
            problem = op.check(outcome)
            if problem:
                failures.append(problem)
            else:
                done += op.work
            since += elapsed
            if since >= GAUGE_EVERY_S:
                gauge.sample(len(times))
                since = 0.0
    gauge.sample(len(times))
    gauge.sample(len(times))
    scaled = [t * gauge.scale(k) for k, t in enumerate(times)]
    return times, scaled, failures, done, gauge


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above
    it; the maximum when there are fewer than eleven samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def git_state() -> tuple[str, bool | None]:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown", None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return head.stdout.strip() or "unknown", bool(status.stdout.strip())


def environment(ev, args, sizes: dict) -> dict:
    commit, dirty = git_state()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "commit": commit,
        "dirty": dirty,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "evidentia_file": ev.__file__,
        "sizes": sizes,
        "quick": args.quick,
        "comparable": not args.quick,
    }


def run_workload(args) -> int:
    ev = import_evidentia()
    import tracing

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_raw, setup = ([], []) if args.trace else measure_setup(2 if args.quick else SETUP_RUNS)
        rng = random.Random(f"{args.workload}:{args.seed}")
        work = MAKE_WORK[args.workload](ev, rng, args.seconds, args.quick, workdir)
        report = {"failures": list(work.problems)}
        if args.trace:
            _, plain, failures, _, _ = execute(work, 1)
            tracer = tracing.Tracer()
            tracer.install(ev)
            try:
                _, traced, more, _, gauge = execute(work, 1, tracer)
            finally:
                tracer.uninstall()
            failures += more
            probes = tracer.probe_compiles(ev)
            overhead = sum(traced) / sum(plain) - 1
            speed = REFERENCE_S / statistics.median(gauge.seconds)
            metrics = tracer.metrics(len(work.ops), probes, overhead, speed)
            report["speed_scale"] = speed
            report["spans"] = tracer.span_table()
            report["counts"] = dict(tracer.counts)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
            attempted = len(plain) + len(traced)
            units = {name: unit for name, unit, _ in tracing.METRICS}
        else:
            raw, times, failures, done, gauge = execute(work, work.passes)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            value, percentile = tail(times)
            metrics = {
                "setup_s": statistics.median(setup),
                "op_s.p50": statistics.median(times),
                "op_s.tail": value,
                "work_per_s": done / sum(times),
                "peak_rss_mb": peak_mb,
            }
            report.update(
                tail_percentile=percentile,
                samples=len(times),
                failed_ratio=len(failures) / len(times),
                raw={
                    "setup_s": statistics.median(setup_raw),
                    "op_s.p50": statistics.median(raw),
                    "op_s.tail": tail(raw)[0],
                    "work_per_s": done / sum(raw),
                },
                times=raw,
                scaled_times=times,
                setup_samples=setup_raw,
                reference_samples=gauge.seconds,
            )
            attempted = len(times)
            units = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
        report["failures"] += failures
        result = {
            "correct": not report["failures"],
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        report["environment"] = environment(ev, args, work.sizes)
        report["result"] = result
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
        with open(OUT / name, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        if args.trace:
            print(f"{'span':28} {'calls/op':>10} {'self s/op':>11} {'total s/op':>11}", file=sys.stderr)
            rows = sorted(report["spans"].items(), key=lambda item: -item[1]["self_s"])
            for span, row in rows:
                ops = len(work.ops)
                print(f"{span:28} {row['calls'] / ops:10.1f} {row['self_s'] * speed / ops:11.6f} "
                      f"{row['total_s'] * speed / ops:11.6f}", file=sys.stderr)
            print(f"tracing overhead {overhead:+.1%}", file=sys.stderr)
        for problem in report["failures"][:10]:
            print(f"FAILED: {problem}", file=sys.stderr)
        if args.quick:
            print("quick run: these numbers are never comparable", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- modes over many runs ---------------------------------------------------------------------


def child_run(workload: str, seed: int, seconds: int, trace: int, quick: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--quick"] if quick else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quick(args) -> int:
    """Every workload once at tiny sizes, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = child_run(workload, args.seed, 1, trace, True)
            ok &= result["correct"]
            shown = {k: round(v["value"], 6) for k, v in result["metrics"].items() if trace == 0 or k == "trace.overhead"}
            print(f"{workload:10} trace={trace} correct={result['correct']} attempted={result['attempted']} {shown}")
    print("quick mode: numbers are never comparable")
    return 0 if ok else 1


def _spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def stability(args) -> int:
    """Two sets of ``runs`` runs per workload on distinct seeds.  A metric
    agrees when each set's quartile spread stays within its bound (set-up
    time exempt) and the second median is no worse than the first by more
    than the bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    runs = args.stability
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    summary, ok = {}, True
    for workload in workloads:
        sets = []
        for k in range(2):
            results = [child_run(workload, args.seed + k * runs + r, seconds, 0, False) for r in range(runs)]
            ok &= all(r["correct"] for r in results)
            sets.append(results)
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([r["metrics"][name]["value"] for r in s] for s in sets)
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            spreads = [_spread(first), _spread(second)]
            agrees = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= agrees
            rows[name] = {"medians": [m1, m2], "worse": worse, "spreads": spreads, "bound": bound, "agrees": agrees}
            print(f"{workload:10} {name:12} medians {m1:.6g} {m2:.6g} worse {worse:+.3f} "
                  f"spreads {spreads[0]:.3f} {spreads[1]:.3f} bound {bound} {'ok' if agrees else 'DISAGREE'}")
        summary[workload] = rows
    OUT.mkdir(exist_ok=True)
    (OUT / "stability.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark evidentia end to end and layer by layer.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="length of one run's measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny smoke run; numbers are never comparable")
    parser.add_argument("--stability", type=int, metavar="RUNS", help="two sets of RUNS runs per workload")
    args = parser.parse_args(argv)
    if args.stability:
        return stability(args)
    if args.workload is None:
        if args.quick:
            return quick(args)
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = 1 if args.quick else 15
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
