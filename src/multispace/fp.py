"""Exact scalar and dense matrix arithmetic over prime fields GF(p).

Residues are plain ints in [0, p); matrices are immutable row-major tuples.
Everything here is deterministic: elimination always picks the topmost
nonzero pivot candidate, so reduced forms are canonical and comparable.

Entries are checked once, at the public boundary: `FpMatrix(...)` and
`FpMatrix.from_rows` check the prime, the shape (row and column counts are
ints, not bools), that the entries are a tuple, and every entry, which must be
an int (a bool is not) in [0, p).  `FpScalar`, `solve_membership`,
`subspace.Subspace.contains` and `core.TaggedVector` hold their entries to the
same test, `_residues`.  Matrices whose entries are residues by construction
(the `rref` result, and the bases that `subspace` builds from reduced rows)
are built through `_trusted`, which skips those checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, ZeroInverse

MAX_PRIME = 2**31


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Trial-division primality test, adequate for moduli up to 2**31."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, math.isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


def check_prime(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p > MAX_PRIME or not is_prime(p):
        raise ValueError(f"modulus must be a prime <= 2**31, got {p!r}")


def _check_int(what: str, value, least: int) -> None:
    """Raise ValueError unless `value` is an int (a bool is not) >= `least`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{what} must be an int >= {least}, got {value!r}")


def _residues(values: Sequence, p: int) -> bool:
    """Whether every value is an int (a bool is not) in [0, p), in one pass."""
    return all(type(x) is int and 0 <= x < p for x in values)


@dataclass(frozen=True)
class FpScalar:
    """A residue in GF(p)."""

    value: int
    p: int

    def __post_init__(self) -> None:
        check_prime(self.p)
        if not _residues((self.value,), self.p):
            raise ValueError(f"value {self.value!r} is not a residue mod {self.p}")


def fp_inv(a: FpScalar) -> FpScalar:
    """Multiplicative inverse in GF(p)."""
    if a.value == 0:
        raise ZeroInverse(f"0 has no inverse mod {a.p}")
    return FpScalar(pow(a.value, -1, a.p), a.p)


@dataclass(frozen=True)
class FpMatrix:
    """Dense row-major matrix of residues mod p."""

    p: int
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        check_prime(self.p)
        _check_int("matrix row count", self.rows, 0)
        _check_int("matrix column count", self.cols, 0)
        if type(self.entries) is not tuple:
            raise ValueError(f"entries must be a tuple, got {type(self.entries).__name__}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        if not _residues(self.entries, self.p):
            raise ValueError(f"entries must be int residues in [0, {self.p})")

    @classmethod
    def from_rows(cls, p: int, rows: Sequence[Sequence[int]], cols: int | None = None) -> FpMatrix:
        rows = [tuple(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise DimensionMismatch("rows have differing lengths")
        return cls(p, len(rows), cols, tuple(x for r in rows for x in r))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.rows)]


def _trusted(p: int, rows: int, cols: int, entries: tuple[int, ...]) -> FpMatrix:
    """An FpMatrix over `rows * cols` residues mod the prime p, built without
    the checks in `FpMatrix.__post_init__`."""
    m = object.__new__(FpMatrix)
    object.__setattr__(m, "p", p)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "entries", entries)
    return m


class RrefResult(NamedTuple):
    matrix: FpMatrix
    rank: int
    pivots: tuple[int, ...]


def rref(m: FpMatrix) -> RrefResult:
    """Reduced row echelon form over GF(p).

    Pivots are scaled to 1 and their columns cleared above and below, which
    makes the output the unique canonical form of the row space.
    """
    p = m.p
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for col in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # rows r.. are zero left of col (earlier pivots cleared them, and the
        # skipped columns had no entry there), so only columns col.. change
        inv = pow(rows[r][col], -1, p)
        lead = [(x * inv) % p for x in rows[r][col:]]
        rows[r][col:] = lead
        for i in range(m.rows):
            f = rows[i][col]
            if i != r and f:
                rows[i][col:] = [(x - f * y) % p for x, y in zip(rows[i][col:], lead)]
        pivots.append(col)
        r += 1
        if r == m.rows:
            break
    flat = tuple(x for row in rows for x in row)
    return RrefResult(_trusted(p, m.rows, m.cols, flat), r, tuple(pivots))


def solve_membership(basis: FpMatrix, v: Sequence[int]) -> tuple[int, ...] | None:
    """Coefficients c with c @ basis = v, or None if v is outside the row space.

    `basis` must be in reduced echelon form with no zero rows, so each
    coefficient can be read off the pivot column and the combination is then
    re-checked against v.
    """
    v = tuple(v)
    if len(v) != basis.cols:
        raise DimensionMismatch(f"vector length {len(v)} != {basis.cols} columns")
    p = basis.p
    if not _residues(v, p):
        raise ValueError(f"vector entries must be int residues in [0, {p})")
    rows = basis.row_list()
    coeffs = []
    for row in rows:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            raise ValueError("basis must not contain zero rows")
        coeffs.append(v[lead])
    acc = [0] * basis.cols
    for c, row in zip(coeffs, rows):
        if c:
            acc = [(a + c * x) % p for a, x in zip(acc, row)]
    return tuple(coeffs) if tuple(acc) == v else None
