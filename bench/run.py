"""Closed-loop benchmark of the cartanflow pipeline.

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 20 --trace 0

One caller runs the workload's ops back to back (a closed loop: the next op
starts when the last has returned) until their summed latency reaches
--seconds.  Each op's correctness check runs after it, outside the timed
region.  Before the timed pass, set-up is measured in fresh processes that
import numpy, scipy and cartanflow and run the warm-up op; then this
process runs the warm-up op itself.

An op counts as failed in the result line only when it raises, exits with
an unexpected code or returns output that contradicts the benchmark's own
checks.  A `verify` report whose identity checks fail is a valid result:
those verdicts are the program's, so they lower `ok_frac` and show on the
`#` lines instead.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op twice,
traced and untraced in alternating order, prints the per-layer metrics and
the tracing overhead, and writes every span to bench/traces/.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The program is imported from ../src; without it the benchmark
exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH / "traces"
SETUP_PROBES = 5
# the pass stops starting ops after this much wall time, checks included
PASS_WALL_LIMIT_S = 120.0
TAIL_BEYOND = 10

# One BLAS thread: with OpenBLAS's default threads, the first eigen-solves of
# some fresh processes were seen to stall for 0.16-0.29 s each, and one
# thread removed the stall.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if not (SRC / "cartanflow" / "__init__.py").is_file():
    sys.exit(f"error: no cartanflow sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(BENCH))

import cartanflow  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

if Path(cartanflow.__file__).resolve().parent != SRC / "cartanflow":
    sys.exit(f"error: imported cartanflow from {cartanflow.__file__}, not {SRC}")


@dataclass
class Pass:
    """Outcome of one timed pass."""

    labels: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # untraced seconds per op
    traced: list = field(default_factory=list)     # traced seconds per op (--trace 1)
    flagged: int = 0  # ops with any failing check, the program's own verdicts included
    wrong: int = 0    # ops that raised, exited unexpectedly or returned wrong output
    tally: Counter = field(default_factory=Counter)
    bytes_out: int = 0


def _timed(op):
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
        return None, time.perf_counter() - start, exc
    return out, time.perf_counter() - start, None


def timed_pass(ops, seconds: float, tracer: Tracer | None = None) -> Pass:
    """Run ops until their summed latency reaches `seconds`, checking each."""
    result = Pass()
    busy = 0.0
    wall_start = time.monotonic()
    while busy < seconds and time.monotonic() - wall_start < PASS_WALL_LIMIT_S:
        op = next(ops, None)
        if op is None:
            break
        index = len(result.labels)
        if tracer is None:
            out, latency, error = _timed(op)
            busy += latency
        else:
            tracer.op_id = index
            runs = {}
            for traced in (True, False) if index % 2 == 0 else (False, True):
                if traced:
                    tracer.install()
                try:
                    runs[traced] = _timed(op)
                finally:
                    tracer.uninstall()
            out, traced_latency, error = runs[True]
            latency = runs[False][1]
            result.traced.append(traced_latency)
            busy += traced_latency + latency
        result.labels.append(op.label)
        result.latencies.append(latency)
        if error is not None:
            failures, wrong = [f"raised {type(error).__name__}"], True
        else:
            if isinstance(out, workloads.CliResult):
                result.bytes_out += len(out.out.encode())
            try:
                failures, wrong = op.check(out)
            except Exception as exc:  # unreadable output fails the op
                failures, wrong = [f"check raised {type(exc).__name__}"], True
        result.flagged += bool(failures)
        result.wrong += wrong
        result.tally.update(failures)
    return result


def tail(latencies: list) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Time from spawning a fresh process to the end of its imports and warm-up.

    The probe prints its CLOCK_MONOTONIC reading when the warm-up returns;
    that clock is shared by all processes.  Timing the child's exit from here
    instead would be quantised by subprocess's 50 ms polling under a timeout.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe"] + (["--tiny"] if tiny else [])
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - start


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library if possible."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
    except OSError:
        git = []
    if len(git) == 2 and Path(git[0]).resolve() == ROOT:
        commit = git[1]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "commit": commit,
    }


def run_warmup(workload) -> None:
    for op in workload:
        op.call()


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its metrics and the pass details."""
    workload = workloads.workloads(tiny)[name]
    setup = [] if trace else [probe_setup(name, seed, tiny) for _ in range(SETUP_PROBES)]
    run_warmup(workload.warmup(seed))
    tracer = Tracer() if trace else None
    result = timed_pass(workload.ops(seed), seconds, tracer)
    n = len(result.latencies)
    if trace:
        traced_s, untraced_s = sum(result.traced), sum(result.latencies)
        metrics = tracer.layer_metrics(n, result.bytes_out)
        metrics["trace.overhead_s"] = (traced_s - untraced_s) / n
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    else:
        metrics = end_to_end(result, setup)
    return {"metrics": metrics, "pass": result, "tracer": tracer, "setup": setup}


def end_to_end(result: Pass, setup: list) -> dict:
    n = len(result.latencies)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / sum(result.latencies),
        "op_p50_s": statistics.median(result.latencies),
        "op_tail_s": tail(result.latencies)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (n - result.flagged) / n,
    }


UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s",
         "peak_rss_mb": "MB", "ok_frac": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.probe:
        run_warmup(workloads.workloads(args.tiny)[args.workload].warmup(args.seed))
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    env = environment(args.seed)
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    result, metrics = run["pass"], run["metrics"]
    n = len(result.latencies)
    print(f"# workload {args.workload} seed {args.seed}: {n} ops, "
          f"{sum(result.latencies):.3f} s untraced op time, {result.flagged} with failing "
          f"checks (fail_frac {result.flagged / n:.4f}), {result.wrong} failed ops")
    if result.tally:
        print("# failures: " + ", ".join(f"{k} x{v}" for k, v in result.tally.most_common()))
    print(f"# env {json.dumps(env)}")
    if args.trace:
        tracer = run["tracer"]
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        overhead = {k: metrics[k] for k in ("trace.overhead_s", "trace.overhead_frac")}
        tracer.write(path, {
            "workload": args.workload, "env": env, "overhead": overhead,
            "ops": [{"id": i, "label": label, "traced_s": t, "untraced_s": u}
                    for i, (label, t, u) in enumerate(
                        zip(result.labels, result.traced, result.latencies))]})
        print("# per-layer self time over the traced pass:")
        for line in tracer.table().splitlines():
            print("# " + line)
        print(f"# tracing overhead: {sum(result.traced) - sum(result.latencies):.4f} s "
              f"({metrics['trace.overhead_frac']:.2%}); spans in {path.relative_to(ROOT)}")
        units = {k: Tracer.unit(k) for k in metrics}
    else:
        _, pct = tail(result.latencies)
        print(f"# op_tail_s is p{pct:.2f} of {n} ops ({min(TAIL_BEYOND, n - 1)} beyond it); "
              f"setup runs: {', '.join(f'{s:.4f}' for s in run['setup'])}")
        units = UNITS
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": n,
        "failed": result.wrong,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
