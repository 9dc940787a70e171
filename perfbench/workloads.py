"""Workloads of the multispace benchmark.

A workload is an endless stream of ops numbered 0, 1, 2, ...; op i is fixed
by (workload, seed, i), so one seed always gives the same inputs.  A stream
builds op i with `make(i)` outside any timed region (this is where instance
files are written), the runner times `op.call()`, and `check(op, result)`
verifies the result afterwards, also outside timing.

The library is reached through module attributes (`core.greedy_basis`, not a
name imported here), so a tracer that rebinds those attributes sees every call.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path
from typing import Any, Callable

from multispace import cli, core, instancefile, oracle, search
from multispace.errors import EnumerationTooLarge, SearchTooLarge, TooManyComponents

CAP_ERRORS = (SearchTooLarge, EnumerationTooLarge, TooManyComponents)
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# result of an op that hit one of the library's caps; never a mismatch
CAP = ("cap",)

# check() returns one of these, an error message, or a function of no
# arguments returning either; the runner calls that after the timed ops, so
# costly checks do not add to the run's peak memory
OK = "ok"
UNSAMPLED = "unsampled"
UNVERIFIED = "unverified"

# the note line `multispace validate` prints at the seed commit
VALIDATE_NOTE = (
    "scalar axiom checked in its distributive reading (k1+k2)*a = k1*a + k2*a; "
    "the reading that adds a scalar to a vector is not well-typed for "
    "coordinate vectors and is recorded here instead of being checked"
)


@dataclass
class Op:
    index: int
    kind: str
    call: Callable[[], tuple]
    expect: Any = None
    defer: bool = False  # check after the timed ops: it needs an oracle run


def digest(result: tuple) -> bytes:
    return hashlib.sha256(repr(result).encode()).digest()[:3]


CAP_DIGEST = digest(CAP)


# --------------------------------------------------------------------------
# audit-total / audit-closed: the `search` inner loop, one draw per op


class AuditStream:
    """random_instance, then dim_inclusion_exclusion, then the greedy basis.

    `dim_greedy` is `len(greedy_basis(...))`; the op calls `greedy_basis` so
    the basis coordinates can be checked.
    """

    # every SAMPLE_EVERY-th draw without a recorded digest is checked against
    # the brute-force oracles, up to ORACLE_CHECKS draws per stream and only
    # where the vectors the oracle searches have at most ORACLE_TUPLES coefficient tuples
    SAMPLE_EVERY = 25
    ORACLE_CHECKS = 200
    ORACLE_TUPLES = 5_000

    def __init__(self, spec: AuditSpec, seed: int, workdir: Path):
        self.cfg = search.GeneratorConfig(seed=seed, **spec.config)
        self.golden = load_golden(spec.name, seed)
        self.oracle_checks = 0

    def make(self, i: int) -> Op:
        return Op(i, "draw", lambda: self._draw(i))

    def _draw(self, i: int) -> tuple:
        try:
            instance = search.random_instance(self.cfg, i)
            ie = core.dim_inclusion_exclusion(instance)
            basis = core.greedy_basis(instance)
        except CAP_ERRORS:
            return CAP
        return ("ok", ie, tuple((v.ambient.label, v.coords) for v in basis))

    def check(self, op: Op, result: tuple):
        if self.golden is not None and op.index < len(self.golden):
            recorded = self.golden[op.index]
            if digest(result) == recorded or result == CAP:
                return OK
            if recorded != CAP_DIGEST:
                return f"draw {op.index}: output differs from the recorded output"

            def recorded_cap():
                verdict = self._oracle_check(op.index, result)
                return UNVERIFIED if verdict == UNSAMPLED else verdict

            return recorded_cap
        if result == CAP:
            return OK
        if op.index % self.SAMPLE_EVERY or self.oracle_checks >= self.ORACLE_CHECKS:
            return UNSAMPLED
        self.oracle_checks += 1
        return lambda: self._oracle_check(op.index, result)

    def _oracle_check(self, i: int, result: tuple) -> str:
        """Inclusion-exclusion against enumerated meets; the basis as below.

        Under TOTAL any independent spanning subset is a correct basis, so the
        basis is checked for both by the oracles.  Under CLOSED the greedy
        result need not span the union, so the procedure itself is replayed
        with `brute_dependent` as the dependence test and must give the same
        vectors.
        """
        _, ie, basis_keys = result
        instance = search.random_instance(self.cfg, i)
        stacked = core.component_basis_vectors(instance)
        by_key = {(v.ambient.label, v.coords): v for v in stacked}
        if not set(basis_keys) <= set(by_key):
            return f"draw {i}: basis vector outside the stacked component bases"
        closed = instance.policy is core.OperationPolicy.CLOSED
        tested = stacked if closed else [by_key[k] for k in basis_keys]
        tuples = 1
        for v in tested:
            tuples *= v.ambient.p
        if tuples > self.ORACLE_TUPLES:
            return UNSAMPLED
        try:
            expected_ie = brute_inclusion_exclusion(instance)
            if closed:
                expected_basis = oracle_greedy_basis(instance, stacked)
            else:
                dependent, _ = oracle.brute_dependent(instance, tested)
                spanned = oracle.brute_span(instance, tested)
        except CAP_ERRORS:
            return UNSAMPLED
        if ie != expected_ie:
            return f"draw {i}: inclusion-exclusion {ie}, oracle {expected_ie}"
        if closed:
            if basis_keys != expected_basis:
                return f"draw {i}: greedy basis {basis_keys}, oracle replay {expected_basis}"
            return OK
        if dependent:
            return f"draw {i}: greedy basis is dependent by the oracle"
        union = {
            core.TaggedVector(c.ambient, x)
            for c in instance.components
            for x in oracle.brute_intersection(c, c)
        }
        if not union <= spanned:
            return f"draw {i}: greedy basis does not span the union by the oracle"
        return OK


def oracle_greedy_basis(instance, stacked) -> tuple:
    """The greedy procedure with `brute_dependent` as its dependence test.

    While the list is dependent, drop the participant of the lexicographically
    first witness with the smallest (ambient label, p, n, coords), earliest
    position on ties.
    """
    alive = list(range(len(stacked)))
    while alive:
        dependent, witness = oracle.brute_dependent(instance, [stacked[j] for j in alive])
        if not dependent:
            break
        participants = [alive[k] for k, c in enumerate(witness) if c]
        alive.remove(min(participants, key=lambda j: (
            stacked[j].ambient.label, stacked[j].ambient.p, stacked[j].ambient.n, stacked[j].coords, j
        )))
    return tuple((stacked[j].ambient.label, stacked[j].coords) for j in alive)


def brute_inclusion_exclusion(instance) -> int:
    """The alternating sum, with every meet taken as a set of enumerated vectors."""
    comps = instance.components
    elements = [oracle.brute_intersection(c, c) for c in comps]
    total = 0
    for size in range(1, len(comps) + 1):
        for chosen in combinations(range(len(comps)), size):
            if len({comps[j].ambient for j in chosen}) > 1:
                continue
            meet = set.intersection(*(elements[j] for j in chosen))
            dim = 0
            while comps[chosen[0]].ambient.p ** dim < len(meet):
                dim += 1
            total += dim if size % 2 else -dim
    return total


def load_golden(name: str, seed: int) -> list[bytes] | None:
    path = EXPECTED_DIR / f"{name}.json"
    if not path.is_file():
        return None
    raw = json.loads(path.read_text())["seeds"].get(str(seed))
    if raw is None:
        return None
    blob = base64.b64decode(raw)
    return [blob[j : j + 3] for j in range(0, len(blob), 3)]


@dataclass(frozen=True)
class AuditSpec:
    name: str
    config: dict
    tail_pct: float
    record_draws: int
    kinds: tuple[str, ...] = ("draw",)

    def stream(self, seed: int, workdir: Path) -> AuditStream:
        return AuditStream(self, seed, workdir)


# --------------------------------------------------------------------------
# dim-lattice / enum-validate: instance files written by the benchmark
#
# Every component is a "planted" subspace: the span of rows A_i of a random
# invertible matrix B, handed to the program as random invertible combinations
# of those rows.  Intersections are then spans of B[A_i ∩ A_j ∩ ...] and every
# expected output follows from the index sets, with no elimination in the
# benchmark.  The index sets are fixed per shape (A_i is d cyclically
# consecutive indices starting at i * step), so every op of a kind does the
# same amount of work and only the numbers differ.


def _invertible(rng: random.Random, p: int, n: int) -> list[list[int]]:
    """L @ U with L unit lower triangular and U upper with a nonzero diagonal."""
    lower = [[1 if i == j else rng.randrange(p) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [
        [rng.randrange(1, p) if i == j else rng.randrange(p) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    return [[sum(lower[i][t] * upper[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class Shape:
    p: int
    n: int
    k: int
    d: int
    step: int

    def supports(self) -> list[tuple[int, ...]]:
        return [tuple(sorted((i * self.step + t) % self.n for t in range(self.d))) for i in range(self.k)]


@dataclass
class Planted:
    p: int
    n: int
    supports: list[tuple[int, ...]]
    frame: list[list[int]]
    generators: list[list[list[int]]]

    @classmethod
    def draw(cls, rng: random.Random, shape: Shape) -> Planted:
        p, n, d = shape.p, shape.n, shape.d
        frame = _invertible(rng, p, n)
        supports = shape.supports()
        generators = []
        for support in supports:
            mix = _invertible(rng, p, d)
            generators.append([
                [sum(mix[i][t] * frame[support[t]][j] for t in range(d)) % p for j in range(n)]
                for i in range(d)
            ])
        return cls(p, n, supports, frame, generators)

    def text(self, policy: str, components: list[int] | None = None) -> str:
        chosen = range(len(self.supports)) if components is None else components
        lines = [f"policy {policy}", f"ambient A p={self.p} n={self.n}"]
        for slot, i in enumerate(chosen, 1):
            gens = "; ".join(",".join(map(str, row)) for row in self.generators[i])
            lines.append(f"space V{slot} in A gen {gens}")
        return "\n".join(lines) + "\n"

    def union_rank(self) -> int:
        return len(set().union(*self.supports))

    def elements(self, i: int) -> frozenset[tuple[int, ...]]:
        p, rows = self.p, [self.frame[j] for j in self.supports[i]]
        out = set()
        for coeffs in product(range(self.p), repeat=len(rows)):
            out.add(tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(self.n)))
        return frozenset(out)


def _cli(argv: list[str]) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code == 2:
        return CAP
    return ("ok", code, buf.getvalue())


def _closed_associativity_checks(sets: list[frozenset], p: int) -> int:
    """Triples (a, b, c) where both groupings of a + b + c exist under CLOSED.

    a + b exists when a common component holds both.  Grouping the a's by
    (mask(a), mask(a + b)) and the c's by (mask(c), mask(b + c)) makes the
    count quadratic in the size of the union.
    """
    union = set().union(*sets)

    def mask(v):
        return sum(1 << i for i, s in enumerate(sets) if v in s)

    def add(x, y):
        return tuple((a + b) % p for a, b in zip(x, y))

    masks = {v: mask(v) for v in union}
    count = 0
    for b in union:
        mb = masks[b]
        left = Counter((masks[a], mask(add(a, b))) for a in union if masks[a] & mb)
        right = Counter((masks[c], mask(add(b, c))) for c in union if mb & masks[c])
        for (ma, mab), na in left.items():
            for (mc, mbc), nc in right.items():
                if mab & mc and ma & mbc:
                    count += na * nc
    return count


class FileStream:
    """Round-robin over the workload's op kinds, one planted instance per op."""

    def __init__(self, spec: FileSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def make(self, i: int) -> Op:
        kind = self.spec.kinds[i % len(self.spec.kinds)]
        rng = random.Random(f"{self.spec.name}:{self.seed}:{i}")
        planted = Planted.draw(rng, self.spec.shapes[kind])
        return getattr(self, "_" + kind.replace("-", "_"))(i, kind, planted)

    def _write(self, i: int, tag: str, text: str) -> str:
        path = self.workdir / f"{i}-{tag}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _dim(self, i, kind, planted):
        path = self._write(i, "dim", planted.text("TOTAL"))
        u = planted.union_rank()
        expect = f"greedy={u} inclusion-exclusion={u} agree=yes\n"
        return Op(i, kind, lambda: _cli(["dim", path]), expect)

    _dim_wide = _dim_tall = _dim_large_p = _dim

    def _validate(self, i, kind, planted, policy):
        path = self._write(i, "validate", planted.text(policy))

        def expect():
            p = planted.p
            sets = [planted.elements(j) for j in range(len(planted.supports))]
            union = len(set().union(*sets))
            closure = sum(len(s) * (p + len(s)) for s in sets)
            assoc = union**3 if policy == "TOTAL" else _closed_associativity_checks(sets, p)
            return (
                f"components={len(sets)} policy={policy}\n"
                f"component-closure=ok checks={closure}\n"
                f"cross-associativity=ok checks={assoc}\n"
                f"scalar-distributivity=ok checks={union * p * p}\n"
                f"note: {VALIDATE_NOTE}\n"
                "valid=yes\n"
            )

        return Op(i, kind, lambda: _cli(["validate", path]), expect)

    def _validate_total(self, i, kind, planted):
        return self._validate(i, kind, planted, "TOTAL")

    def _validate_closed(self, i, kind, planted):
        return self._validate(i, kind, planted, "CLOSED")

    def _check(self, i, kind, planted, policy, candidate):
        parent_text, cand_text = planted.text(policy), planted.text(policy, candidate)
        parent = self._write(i, "parent", parent_text)
        cand = self._write(i, "candidate", cand_text)

        def expect():
            verdict = oracle.brute_subspace_check(
                instancefile.parse_instance(cand_text), instancefile.parse_instance(parent_text)
            )
            return f"subspace={'yes' if verdict else 'no'}\n"

        return Op(i, kind, lambda: _cli(["check-subspace", parent, "--candidate", cand]), expect, True)

    def _check_closed(self, i, kind, planted):
        return self._check(i, kind, planted, "CLOSED", [0, 1])

    def _check_total(self, i, kind, planted):
        return self._check(i, kind, planted, "TOTAL", [0])

    def _span_total(self, i, kind, planted):
        instance = instancefile.parse_instance(planted.text("TOTAL"))
        gens = core.component_basis_vectors(instance)

        def call():
            try:
                spanned = core.linear_span(instance, gens)
            except CAP_ERRORS:
                return CAP
            return ("ok", frozenset(v.coords for v in spanned))

        def expect():
            return ("ok", frozenset().union(*map(planted.elements, range(len(planted.supports)))))

        return Op(i, kind, call, expect)

    def check(self, op: Op, result: tuple):
        if result == CAP:
            return OK
        if op.defer:
            return lambda: self._compare(op, result)
        return self._compare(op, result)

    def _compare(self, op: Op, result: tuple) -> str:
        expect = op.expect() if callable(op.expect) else op.expect
        if op.kind == "span-total":
            if result != expect:
                return f"op {op.index} ({op.kind}): closure differs from the planted union"
            return OK
        _, code, out = result
        if code != 0 or out != expect:
            return f"op {op.index} ({op.kind}): exit {code}, stdout {out!r}, expected {expect!r}"
        return OK


@dataclass(frozen=True)
class FileSpec:
    name: str
    shapes: dict  # op kind -> Shape, in round-robin order
    tail_pct: float

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(self.shapes)

    def stream(self, seed: int, workdir: Path) -> FileStream:
        return FileStream(self, seed, workdir)


WORKLOADS = {
    spec.name: spec
    for spec in (
        AuditSpec(
            name="audit-total",
            config={},
            tail_pct=99.0,
            record_draws=20_000,
        ),
        AuditSpec(
            name="audit-closed",
            config={
                "policy": core.OperationPolicy.CLOSED,
                "max_components": 6,
                "max_ambient_dim": 5,
            },
            tail_pct=95.0,
            record_draws=6_000,
        ),
        FileSpec(
            name="dim-lattice",
            shapes={
                "dim-wide": Shape(p=101, n=12, k=6, d=6, step=2),
                "dim-tall": Shape(p=101, n=32, k=3, d=24, step=4),
                "dim-large-p": Shape(p=2**31 - 1, n=14, k=5, d=7, step=3),
            },
            tail_pct=90.0,
        ),
        FileSpec(
            name="enum-validate",
            shapes={
                "validate-total": Shape(p=2, n=6, k=3, d=4, step=2),
                "validate-closed": Shape(p=2, n=6, k=4, d=4, step=1),
                "check-closed": Shape(p=2, n=9, k=3, d=6, step=3),
                "check-total": Shape(p=3, n=6, k=3, d=4, step=2),
                "span-total": Shape(p=2, n=9, k=3, d=6, step=3),
            },
            tail_pct=90.0,
        ),
    )
}
