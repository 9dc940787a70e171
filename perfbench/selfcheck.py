#!/usr/bin/env python3
"""Tiny-size check of the benchmark itself, with no timing threshold.

    python3 perfbench/selfcheck.py

Runs a few ops of every workload and checks that the correctness gate passes
them, that it catches a tampered output, that the tracer records well-formed
spans and restores the library afterwards, and that run.py prints exactly the
metrics BENCHMARK.json names.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, _import_program, run_ops, verdict


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def resolved(v):
    return v() if callable(v) else v


def tampered(result: tuple) -> tuple:
    if result[0] != "ok":
        return result
    if len(result) == 2:  # linear_span: the closure as a set of coordinates
        return ("ok", result[1] | {("x",)})
    if isinstance(result[1], int) and isinstance(result[2], tuple):  # audit draw
        return ("ok", result[1] + 1, result[2])
    return ("ok", result[1], result[2] + "x")  # CLI stdout


def check_gate(workloads, tmp: Path) -> None:
    for spec in workloads.WORKLOADS.values():
        audit = isinstance(spec, workloads.AuditSpec)
        # seed 0 has recorded digests; seed 123 has none, so its sampled draws
        # (every SAMPLE_EVERY-th) go to the oracles
        every = workloads.AuditStream.SAMPLE_EVERY
        for seed in (0, 123) if audit else (0,):
            stream = spec.stream(seed, tmp / f"{spec.name}-{seed}")
            ops = [stream.make(i) for i in (range(0, 6 * every, every) if audit else range(len(spec.kinds)))]
            results = [op.call() for op in ops]
            verdicts = [resolved(verdict(stream, op, r)) for op, r in zip(ops, results)]
            check(set(verdicts) <= {"ok", "cap", "unsampled"}, f"{spec.name} seed {seed}: {verdicts}")
            check("ok" in verdicts, f"{spec.name} seed {seed}: nothing verified ({verdicts})")
            stream = spec.stream(seed, tmp / f"{spec.name}-{seed}-bad")
            bad = [resolved(verdict(stream, op, tampered(r))) for op, r in zip(ops, results)]
            check(set(bad) - {"ok", "cap", "unsampled"},
                  f"{spec.name} seed {seed}: tampered outputs passed the gate")


def check_tracer(workloads, tmp: Path) -> None:
    import multispace
    import tracer as tracing

    original = multispace.subspace.rref
    for spec in workloads.WORKLOADS.values():
        t = tracing.Tracer()
        t.install()
        try:
            stream = spec.stream(0, tmp / f"{spec.name}-traced")
            traced = run_ops(stream, 0, 0.0, tracer=t, min_ops=2)
        finally:
            t.uninstall()
        check(not t.missing, f"tracer could not find {t.missing}")
        n = len(t.start)
        check(n > 0, f"{spec.name}: no spans recorded")
        check(all(-1 <= t.parent[i] < i for i in range(n)), f"{spec.name}: bad parent ids")
        check(all(t.start[i] <= t.end[i] for i in range(n)), f"{spec.name}: span ends before start")
        m = t.metrics(traced.raw_s, traced.n)
        check(all(m[k] >= 0 for k in m), f"{spec.name}: negative metric")
        layers = sum(m[f"{layer}.share"] for layer in tracing.LAYERS)
        check(0 < layers <= 1.0 + 1e-9, f"{spec.name}: layer shares sum to {layers}")
        t.write(tmp / "spans.csv")
    check(multispace.subspace.rref is original, "uninstall left a wrapper in place")


def check_command() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    for workload in bench["workloads"]:
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload["name"],
                 "--seed", "3", "--seconds", "0.3", "--trace", str(traced)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            check(proc.returncode == 0, f"run.py {workload['name']} --trace {traced} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] and result["attempted"] >= 1, f"{workload['name']}: {result}")
            check(set(result["metrics"]) == wanted[traced],
                  f"{workload['name']} --trace {traced}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ wanted[traced])}")


def main() -> int:
    _import_program()
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp_") as tmp:
        check_gate(workloads, Path(tmp))
        check_tracer(workloads, Path(tmp))
    check_command()
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
