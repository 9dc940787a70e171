"""A recorded corpus of CLOSED outputs: CLI runs and greedy bases.

    PYTHONPATH=src python3 tests/closed_corpus.py

writes tests/closed_corpus.json.  The instances are seeded `random_instance`
draws at p in {2, 3, 5, 7}, written as TOTAL instance files.  Each is run
through `basis`, `dim` and `compare --other <same file>`, all three with
`--policy CLOSED`, in-process, and recorded as one sha256 over (argv, exit
code, stdout, stderr); some of them exceed the chain-search step cap and exit
2.  Each instance's CLOSED `greedy_basis` under one seeded `removal_order` is
recorded the same way.  Record only at a commit whose outputs are taken as
correct: `tests/test_closed_corpus.py` replays the corpus and fails at the
first entry that differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from multispace import (
    CapExceeded,
    GeneratorConfig,
    OperationPolicy,
    component_basis_vectors,
    format_instance,
    greedy_basis,
    random_instance,
)
from multispace.cli import main as cli_main

CORPUS = Path(__file__).resolve().parent / "closed_corpus.json"

# (p, draws, largest ambient dimension, most components); the draws at p = 7
# include lists over the chain-search step cap
SHAPES = ((2, 38, 4, 4), (3, 38, 4, 4), (5, 38, 4, 5), (7, 38, 5, 6))


def instances():
    """(file name, instance) for every draw of the corpus, in order."""
    for p, draws, max_dim, max_components in SHAPES:
        cfg = GeneratorConfig(
            primes=(p,),
            max_ambient_dim=max_dim,
            max_components=max_components,
            max_ambients=1,
            seed=p,
        )
        for draw in range(draws):
            yield f"p{p}_{draw:02d}.ms", random_instance(cfg, draw)


def commands(name: str) -> list[list[str]]:
    return [
        ["basis", name, "--policy", "CLOSED"],
        ["dim", name, "--policy", "CLOSED"],
        ["compare", name, "--other", name, "--policy", "CLOSED"],
    ]


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def run_command(argv: list[str]) -> tuple[int, str]:
    """The exit code of one in-process CLI run, and the digest of (argv, exit
    code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, _digest(argv, code, out.getvalue(), err.getvalue())


def run_greedy(name: str, instance) -> tuple[int, str]:
    """The CLOSED greedy basis under a removal order seeded by the file name,
    or the refusal when a cap is exceeded, as the CLI's exit code (0 or 2)
    and a digest."""
    closed = replace(instance, policy=OperationPolicy.CLOSED)
    size = len(component_basis_vectors(closed))
    order = random.Random(name).sample(range(size), size)
    try:
        code, result = 0, [[v.ambient.label, list(v.coords)] for v in greedy_basis(closed, order)]
    except CapExceeded as exc:
        code, result = 2, [type(exc).__name__, str(exc)]
    return code, _digest(["greedy_basis", name, order], result)


def entries():
    """(label, [exit code, digest]) for every entry of the corpus.  It writes
    the instance files into the working directory and runs there, so that
    no path but the file name enters an argv."""
    for name, instance in instances():
        Path(name).write_text(format_instance(instance) + "\n", encoding="utf-8")
        for argv in commands(name):
            yield " ".join(argv), list(run_command(argv))
        yield f"greedy_basis {name}", list(run_greedy(name, instance))


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            recorded = dict(entries())
        finally:
            os.chdir(cwd)
    lines = ",\n".join(f"{json.dumps(label)}: {json.dumps(v)}" for label, v in recorded.items())
    CORPUS.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    print(f"wrote {len(recorded)} entries to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
