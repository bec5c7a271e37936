#!/usr/bin/env python3
"""Benchmark of the deltaprobe CLI, run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root. The benchmark imports `deltaprobe` from
`src/` next to this directory and calls `deltaprobe.cli.main(argv)` with its
standard output captured, so interpreter start-up and imports are paid once,
in `setup_s`. It then runs whole rounds of the workload's operations until
`--seconds` have passed, checks every output against `oracle`, and prints
one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the per-layer ones of `tracing`. The line before it names the workload, the
run's counts and the Python and numpy versions and `nproc`; the same report
with per-operation detail is written under `.bench_results/`. `--smoke` runs
one round of every workload at a tiny size, untraced and traced, with every
output check, and exits 0 only if all of them pass.

See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS would otherwise start a worker per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy

import echo
import tracing
import workloads
from oracle import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_REPEATS = 5

# Nominal time of one pass of `speed_kernel` (ns); see `speed_kernel`.
KERNEL_NOMINAL_NS = 300_000
SESSION_MIX = ("simulate", "estimate", "estimate_csv", "stats", "stats_series")

# Metric names, units and bounds are declared in BENCHMARK.json.
SPEC = ROOT / "BENCHMARK.json"

# Time metrics of one CLI command: (metric, operation).
OP_METRICS = (
    ("simulate_s", "simulate"),
    ("estimate_s", "estimate"),
    ("estimate_csv_s", "estimate_csv"),
    ("stats_s", "stats"),
    ("stats_series_s", "stats_series"),
    ("calibrate_s", "calibrate"),
    ("probe_session_s", "probe"),
)


class _Row:
    __slots__ = ("seq", "rtt_s")

    def __init__(self, seq, rtt_s):
        self.seq = seq
        self.rtt_s = rtt_s


def speed_kernel() -> float:
    """Time (ns, median of 5) of a fixed piece of interpreter work of the
    kind the CLI does: small objects, JSON text and float arithmetic.

    On a shared virtual machine (2 vCPUs) the speed at which Python runs
    was seen to swing by up to 1.8x over seconds, with CPU time swinging
    along with wall time. Each call's time is therefore reported scaled to a
    nominal machine speed, `wall * KERNEL_NOMINAL_NS / kernel`, where
    `kernel` is the mean of this kernel's times just before and just after
    the call; the raw wall times are kept in the run's report. The kernel
    is benchmark code, so no change to the program moves it.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        rows = [{"seq": i, "rtt_s": i * 1.5e-3, "lost": False} for i in range(20)]
        text = "\n".join(json.dumps(r, sort_keys=True) for r in rows)
        objs = [_Row(o["seq"], o["rtt_s"]) for o in map(json.loads, text.splitlines())]
        sum(o.rtt_s for o in objs) + sum(i * i for i in range(800))
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


class Call(NamedTuple):
    op: str
    wall_ns: int
    cpu_ns: int
    samples: int  # probe samples the call carried
    probes: int  # probes the call sent
    kernel_ns: float  # speed kernel around the call

    def scaled(self, ns: float) -> float:
        """A time of this call at the nominal machine speed."""
        return ns * KERNEL_NOMINAL_NS / self.kernel_ns


class Bench:
    """Calls the CLI in-process, times each call and keeps the run's counts."""

    def __init__(self, cli, echo_seam, work: Path):
        self.cli = cli
        self.echo = echo_seam
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.calls: list[Call] = []
        self.kernel_ns = speed_kernel()

    def call(self, op, argv, samples=0, probes=0) -> tuple[int, str]:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # every call starts from the same collector state
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        wall = time.perf_counter_ns() - t0
        cpu = time.process_time_ns() - c0
        kernel_before, self.kernel_ns = self.kernel_ns, speed_kernel()
        self.attempted += 1
        self.calls.append(Call(op, wall, cpu, samples, probes,
                               (kernel_before + self.kernel_ns) / 2))
        if code not in (0, 3):
            raise CheckFailed(f"{op}: deltaprobe {' '.join(argv)} exited {code}: "
                              f"{err.getvalue().strip()}")
        return code, out.getvalue()

    def json_call(self, op, argv, samples=0, probes=0):
        """The call's JSON output, or None when it ended with the estimation
        failure exit (3), which a caller compares with its reference."""
        code, text = self.call(op, argv, samples, probes)
        return json.loads(text) if code == 0 else None

    def count_failure(self, op: str, message: str) -> None:
        """An operation that ran but whose output shows a known program fault."""
        self.failed += 1
        self.failures[op] = self.failures.get(op, 0) + 1
        if self.failed == 1:
            print(f"counted failure: {message}", file=sys.stderr)


def median(values):
    return statistics.median(values) if values else float("nan")


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def end_to_end(calls, setup_s) -> dict:
    metrics = {"setup_s": setup_s}
    by_op: dict[str, list] = {}
    for call in calls:
        by_op.setdefault(call.op, []).append(call)
    for name, op in OP_METRICS:
        # a probe session is paced by its send schedule, not by the CPU
        times = [c.wall_ns if op == "probe" else c.scaled(c.wall_ns) for c in by_op[op]]
        metrics[name] = median(times) / 1e9
    metrics["probe_cpu_us"] = median([c.scaled(c.cpu_ns) / 1e3 / c.probes
                                      for c in by_op["probe"]])
    # each session-mix call counted at its command's median time, so that the
    # rate is as steady as those medians
    mix = [c for c in calls if c.op in SESSION_MIX]
    busy_s = sum(metrics[f"{c.op}_s"] for c in mix)
    metrics["samples_per_s"] = sum(c.samples for c in mix) / busy_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(tracer, traced_deltas, traced_walls, untraced_walls) -> dict:
    """Busy seconds and counts per round (median over traced rounds), the
    probe RTT figures (median over sessions) and the tracing overhead."""
    names = set().union(*traced_deltas)
    metrics = {name: median([d.get(name, 0) for d in traced_deltas]) for name in names}
    metrics["probe.rtt_floor_us"] = median(tracer.rtt_floor_us)
    metrics["probe.size_bias_us"] = median(tracer.size_bias_us)
    metrics["trace.overhead_pct"] = (median(traced_walls) / median(untraced_walls) - 1) * 100
    return metrics


def run_workload(modules, name, seed, seconds, trace, smoke) -> tuple:
    """Set up, warm up, then measure whole rounds; returns (result, report)."""
    workload = workloads.WORKLOADS[name](seed, smoke)
    run_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    echo_seam = echo.EchoSeam(modules["probe"])
    tracer = tracing.Tracer(modules)
    correct, error = True, None
    bench = None
    rounds, traced_deltas, traced_walls, untraced_walls = [], [], [], []
    try:
        # set-up, several times: a fresh interpreter imports the CLI, then
        # the seeded inputs are made; the last inputs made are used
        setup_times = []
        repeats = 1 if smoke else SETUP_REPEATS
        for k in range(repeats):
            inputs = run_dir / f"inputs{k}"
            inputs.mkdir(parents=True)
            t0 = time.perf_counter_ns()
            import_in_child()
            t1 = time.perf_counter_ns()
            kernel = speed_kernel()
            t2 = time.perf_counter_ns()
            workload.setup(inputs)
            t3 = time.perf_counter_ns()
            kernel = (kernel + speed_kernel()) / 2
            # the child's import is not scaled: it follows process start-up,
            # file and page-mapping costs more than interpreter speed
            setup_times.append((t1 - t0 + (t3 - t2) * KERNEL_NOMINAL_NS / kernel) / 1e9)
        setup_s = median(setup_times)
        bench = Bench(modules["cli"], echo_seam, run_dir / f"inputs{repeats - 1}")
        workload.round(bench, 0)  # warm-up: lazy imports, first-touch pages
        bench.attempted = bench.failed = 0
        bench.failures.clear()
        bench.calls.clear()
        gc.collect()
        gc.freeze()

        start = time.perf_counter()
        r = 0
        # a traced run needs a traced and an untraced round at the least
        while r < 1 + trace or (not smoke and time.perf_counter() - start < seconds):
            # traced runs alternate traced and untraced rounds, so the
            # overhead compares rounds made under the same conditions
            traced = trace and r % 2 == 0
            if traced:
                tracer.install()
                before = tracer.snapshot()
            first_call = len(bench.calls)
            t0 = time.perf_counter()
            try:
                workload.round(bench, r + 1)
            finally:
                if traced:
                    tracer.remove()
            round_calls = bench.calls[first_call:]
            rounds.append(round_calls)
            scale = KERNEL_NOMINAL_NS / median([c.kernel_ns for c in round_calls])
            wall = (time.perf_counter() - t0) * scale
            if traced:
                after = tracer.snapshot()
                traced_deltas.append({k: (v - before.get(k, 0)) * (scale if k.endswith("_s") else 1)
                                      for k, v in after.items()})
                traced_walls.append(wall)
            else:
                untraced_walls.append(wall)
            r += 1
    except Exception as exc:  # any fault ends the run as incorrect
        correct = False
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        tracer.remove()
        echo_seam.restore()
        gc.unfreeze()
        shutil.rmtree(run_dir, ignore_errors=True)

    if not correct or not rounds:
        return {"correct": False, "attempted": max(1, bench.attempted if bench else 1),
                "failed": bench.failed if bench else 0, "metrics": {}}, {"error": error}
    if trace:
        metrics = per_layer(tracer, traced_deltas, traced_walls, untraced_walls)
    else:
        metrics = end_to_end(bench.calls, setup_s)
    declared = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(f"bench: measured {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")
    result = {
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    by_op: dict[str, list] = {}
    for call in bench.calls:
        by_op.setdefault(call.op, []).append(call)
    report = {
        "rounds": len(rounds),
        "failures": bench.failures,
        "kernel_ns": median([c.kernel_ns for c in bench.calls]),
        "ops": {op: {"calls": len(cs),
                     "wall_s": quartiles([c.wall_ns / 1e9 for c in cs]),
                     "scaled_s": quartiles([c.scaled(c.wall_ns) / 1e9 for c in cs])}
                for op, cs in by_op.items()},
    }
    return result, report


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def import_in_child() -> None:
    """Start a fresh interpreter that imports the CLI, as every CLI call does,
    and wait for it: the import part of set-up, repeatable within one run."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import deltaprobe.cli", str(SRC)], check=True, timeout=60)


def import_program() -> dict:
    """Import deltaprobe from this checkout's src/."""
    if not (SRC / "deltaprobe" / "cli.py").is_file():
        sys.exit(f"bench: no deltaprobe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from deltaprobe import cli, estimator, intercept, probe, simulator, stats, store

    if Path(cli.__file__).resolve().parent != SRC / "deltaprobe":
        sys.exit(f"bench: imported deltaprobe from {cli.__file__}, not {SRC}")
    return {"cli": cli, "estimator": estimator, "intercept": intercept, "probe": probe,
            "simulator": simulator, "stats": stats, "store": store}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny round of every workload, untraced and traced")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    modules = import_program()
    env = environment()
    if args.smoke:
        ok = True
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                t0 = time.perf_counter()
                result, report = run_workload(modules, name, args.seed, 0, trace, True)
                ok &= result["correct"]
                print(f"smoke {name} trace={trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"({time.perf_counter() - t0:.1f} s) {report.get('error') or ''}")
        return 0 if ok else 1

    result, report = run_workload(modules, args.workload, args.seed, args.seconds,
                                  args.trace, False)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "attempted": result["attempted"],
            "failed": result["failed"], **env, **report}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
