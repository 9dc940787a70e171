#!/usr/bin/env python3
"""Benchmark of the multispace library and CLI.

    python3 perfbench/run.py --workload audit-total --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One caller issues ops in a closed loop: the next op starts after the previous
one returns.  The run times ops for `--seconds` seconds of op time, then checks
every result outside timing.  Human-readable metric lines go to stdout and the
last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts timed ops whose output is wrong or that raised an error other
than one of the library's caps.  An op that hits a cap (exit code 2 for the
CLI) has given the library's documented answer, so it is not failed; the
share of such ops is reported as `ok_ratio` (1 - fail_ratio).  `--trace 0`
reports the end-to-end metrics; `--trace 1` runs the
workload once untraced and once with a span around every call into each layer
and reports the per-layer metrics.  The exit code is non-zero if any output is
wrong or the program cannot be found.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
SETUP_REPEATS = 11
SETUP_OPS = 8
WARMUP_S = 0.5
# op indices of the warm-up and of the untraced half of a traced run, disjoint
# from the timed ops 0, 1, 2, ... so no cache is warmed on a timed input
WARMUP_START = 1 << 40
UNTRACED_START = 1 << 41

# Other processes on a shared machine slow this one down by 20-50% for seconds
# at a time.  After every WINDOW_S of op time the runner times a fixed
# pure-Python reference loop REF_REPEATS times, and scales the op times of the
# window by REF_NOMINAL_S / (median reference time just before and after it).
# Reported times are thus those of a machine on which the reference loop takes
# REF_NOMINAL_S.  The program never runs the reference loop, and the collector
# is off while it runs so the program's heap cannot change its time.
WINDOW_S = 0.2
REF_REPEATS = 5
REF_NOMINAL_S = 250e-6
# Set-up is mostly a fresh interpreter, which runs on whichever core is free,
# so the in-process reference above does not see its slowdowns.  Set-up is
# scaled instead by a fresh interpreter that runs the reference loop
# REF_CHILD_LOOPS times, timed just before and just after each set-up, to a
# machine on which that child takes REF_CHILD_NOMINAL_S.
REF_CHILD_LOOPS = 1000
REF_CHILD_NOMINAL_S = 70e-3
# ops_per_s leaves out the slowest 1/TRIM of the ops (op_tail_ms reports
# them), so a rare op that runs for seconds does not decide the figure
TRIM = 100

# check verdicts that are not wrong outputs (see workloads.py)
NOT_WRONG = ("ok", "cap", "unsampled", "unverified")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith((".share", "_share", "_ratio")) or "_per_" in name:
        return "ratio"
    if name == "trace.ops":
        return "count"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith(".bytes"):
        return "bytes/op"
    return "count/op"


def _import_program() -> None:
    """Put the checkout's src/ first on the path and import the library from it."""
    if not (SRC / "multispace" / "__init__.py").is_file():
        raise SystemExit(f"error: no multispace package under {SRC}")
    sys.path.insert(0, str(SRC))
    import multispace

    if Path(multispace.__file__).resolve().parent != (SRC / "multispace").resolve():
        raise SystemExit(f"error: multispace imported from {multispace.__file__}, not {SRC}")


def _reference_loop() -> None:
    row = list(range(48))
    for k in range(60):
        row = [(x * 7 + k) % 101 for x in row]


# the same loop, for a fresh interpreter to run REF_CHILD_LOOPS times
REF_CHILD_SOURCE = f"""\
def loop():
    row = list(range(48))
    for k in range({REF_CHILD_LOOPS}):
        row = [(x * 7 + k) % 101 for x in row]
loop()
"""


def reference_times() -> list[float]:
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - t0)
        return times
    finally:
        if enabled:
            gc.enable()


def speed_factor(before: list[float], after: list[float]) -> float:
    return REF_NOMINAL_S / statistics.median(before + after)


def child_reference_time() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_CHILD_SOURCE], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def measure_setup(spec, seed: int, workdir: Path) -> float:
    """Median over repeats of: a fresh interpreter importing multispace, plus
    generating and writing the workload's first inputs.  The import is scaled
    by the child reference times just before and just after it, and the
    inputs, made in this process, by the in-process reference."""
    snippet = "import sys; sys.path.insert(0, sys.argv[1]); import multispace"
    times = []
    before = child_reference_time()
    for r in range(SETUP_REPEATS):
        where = workdir / f"setup{r}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", snippet, str(SRC)], check=True, cwd=ROOT)
        imported = time.perf_counter() - t0
        refs = reference_times()
        t0 = time.perf_counter()
        stream = spec.stream(seed, where)
        for i in range(SETUP_OPS):
            stream.make(i)
        made = time.perf_counter() - t0
        made *= speed_factor(refs, reference_times())
        after = child_reference_time()
        times.append(imported * REF_CHILD_NOMINAL_S / ((before + after) / 2) + made)
        before = after
        shutil.rmtree(where, ignore_errors=True)
    return statistics.median(times)


@dataclass
class Run:
    n: int = 0
    caps: int = 0
    tally: Counter = field(default_factory=Counter)  # verdicts of the checks
    errors: list = field(default_factory=list)  # wrong outputs
    deferred: list = field(default_factory=list)  # checks to run after timing
    latencies: list = field(default_factory=list)  # op times, scaled
    raw_s: float = 0.0  # op time as measured

    def record(self, v) -> None:
        if callable(v):
            self.deferred.append(v)
        elif v in NOT_WRONG:
            self.tally[v] += 1
        else:
            self.errors.append(v)

    def finish(self) -> None:
        """Run the deferred checks."""
        while self.deferred:
            self.record(self.deferred.pop(0)())


def verdict(stream, op, result):
    """"ok", "cap", "unsampled", "unverified", what is wrong, or a deferred check."""
    import workloads

    if result[0] == "error":
        return f"op {op.index} ({op.kind}): {result[1]}"
    checked = stream.check(op, result)
    return "cap" if result == workloads.CAP and checked == workloads.OK else checked


def run_ops(stream, start: int, budget_s: float, tracer=None, min_ops: int = 1) -> Run:
    """Closed loop from op `start` until `budget_s` seconds of op time are spent.

    Each result is checked right after its op, outside the timed region, and
    then dropped, so the run's memory does not grow with the number of ops.
    Costly checks are deferred to `Run.finish`.
    """
    run = Run()
    i = start
    refs = reference_times()
    while run.raw_s < budget_s or run.n < min_ops:
        window, window_s = [], 0.0
        while window_s < WINDOW_S and (run.raw_s + window_s < budget_s or run.n < min_ops):
            op = stream.make(i)
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # any non-cap failure is a wrong output
                result = ("error", f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            window.append(dt)
            window_s += dt
            run.n += 1
            v = verdict(stream, op, result)
            run.caps += v == "cap"
            run.record(v)
            i += 1
        after = reference_times()
        factor = speed_factor(refs, after)
        run.latencies += [dt * factor for dt in window]
        run.raw_s += window_s
        refs = after
    return run


def tail_latency(latencies: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < 10:
        print(f"warning: only {beyond} ops beyond p{pct:g}", file=sys.stderr)
    return ordered[rank - 1]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import workloads

    spec = workloads.WORKLOADS[name]
    workdir = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    try:
        setup_s = measure_setup(spec, seed, workdir)
        warm = spec.stream(seed, workdir / "warm")
        runs = [run_ops(warm, WARMUP_START, WARMUP_S, min_ops=len(spec.kinds))]
        stream = spec.stream(seed, workdir / "timed")
        if traced:
            metrics, timed, base = traced_run(spec, stream, seed, seconds, workdir)
            runs.append(base)
        else:
            timed = run_ops(stream, 0, seconds)
            kept = sorted(timed.latencies)[: timed.n - timed.n // TRIM]
            metrics = {
                "ops_per_s": len(kept) / sum(kept),
                "op_p50_ms": statistics.median(timed.latencies) * 1e3,
                "op_tail_ms": tail_latency(timed.latencies, spec.tail_pct) * 1e3,
                "ok_ratio": (timed.n - timed.caps) / timed.n,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            print(f"ops {timed.n}  tail percentile p{spec.tail_pct:g}"
                  f"  fail_ratio {timed.caps / timed.n:.6f}")
        runs.append(timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    for run in runs:
        run.finish()
    failed = len(timed.errors)
    tally = sum((r.tally for r in runs), Counter())
    errors = [e for r in runs for e in r.errors]
    print(f"verify {name} seed={seed}: " + " ".join(f"{k}={v}" for k, v in sorted(tally.items()))
          + f" mismatches={len(errors)}", file=sys.stderr)
    for message in errors[:20]:
        print(f"mismatch: {message}", file=sys.stderr)

    units = END_TO_END_UNITS if not traced else {k: _layer_unit(k) for k in metrics}
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": timed.n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if errors else 0


def traced_run(spec, stream, seed, seconds, workdir):
    """An untraced third of the budget on other ops, then the traced ops 0, 1, ..."""
    import tracer as tracing

    base = run_ops(spec.stream(seed, workdir / "untraced"), UNTRACED_START, seconds / 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_ops(stream, 0, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    for missing in tracer.missing:
        print(f"trace: {missing} not found, not traced", file=sys.stderr)
    metrics = tracer.metrics(traced.raw_s, traced.n)
    metrics["trace.overhead_ratio"] = statistics.mean(traced.latencies) / statistics.mean(base.latencies)
    tracer.write(ROOT / ".perfbench_out" / f"{spec.name}.spans.csv")
    return metrics, traced, base


def run_all(seed: int, seconds: float, traced: int) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    import workloads

    status = 0
    summary: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(traced)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if "ok_ratio" in result["metrics"]:
            print(f"[{name}] fail_ratio {1 - result['metrics']['ok_ratio']['value']:.6f} ratio")
        for key, metric in result["metrics"].items():
            print(f"[{name}] {key} {metric['value']:.6g} {metric['unit']}")
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="audit-total, audit-closed, dim-lattice, enum-validate or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
