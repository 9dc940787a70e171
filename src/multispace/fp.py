"""Exact scalar and dense matrix arithmetic over prime fields GF(p).

Residues are plain ints in [0, p); matrices are immutable row-major tuples.
Everything here is deterministic: elimination always picks the topmost
nonzero pivot candidate, so reduced forms are canonical and comparable.

Elimination lives here alone, in two forms over one packed-row layout.  Each
row is one int, an entry per slot of w bits, with w the bit length of
pivots*(p-1)**2 + p for a bound on the pivots that clear it (`_slot_width`).
A row operation is then one bigint multiply-add, and no slot needs reducing
mod p between row operations, since none can carry into the next: Kronecker
substitution with delayed reduction (Dumas, Fousse and Salvy, "Simultaneous
modular reduction and Kronecker substitution for small finite fields", J.
Symb. Comput., 2011).  A slot is reduced only where it is read.

* `rref` reduces a whole matrix, at every size and every p: slots are read
  in the pivot search, for a row's factor, for the scaled pivot row, and in
  the result, whose entries are plain residues.
* `EchelonState` takes rows one at a time and says whether each raised the
  rank; it is copied cheaply, so a search can extend one state along many
  branches.  `core` uses it for the rank of stacked parity checks in
  inclusion-exclusion, and for TOTAL dependence up to the first dependent
  vector.

Entries are checked once, at the public boundary: `FpMatrix(...)` and
`FpMatrix.from_rows` check the prime, the shape (row and column counts are
ints, not bools), that the entries are a tuple, and every entry, which must be
an int (a bool is not) in [0, p).  `FpScalar`, `solve_membership`,
`subspace.Subspace.contains` and `core.TaggedVector` hold their entries to the
same test, `_residues`.  Matrices whose entries are residues by construction
(the `rref` result, the bases that `subspace` builds from reduced rows, the
matrices that `core` builds from checked vectors, a slice's members in
`is_multi_subspace` and the columns of the TOTAL dependence and greedy-basis
reductions, and the generator matrices of `search.random_instance`, whose
entries are drawn from `randrange(p)`) are built through `_trusted`, which
skips those checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import lshift
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


def _slot_width(pivots: int, p: int) -> int:
    """Bits per slot of a packed row that at most `pivots` pivot rows clear.

    A slot starts below p, and clearing one pivot adds (p-f)*L to the row,
    L with every slot below p, so at most (p-1)**2 to a slot; slots only grow.
    So a slot stays below pivots*(p-1)**2 + p and never carries into the next.
    """
    return (pivots * (p - 1) ** 2 + p).bit_length()


class EchelonState:
    """Independent rows of GF(p)^n, pushed one at a time, held packed.

    A row is one int, entry j in the w-bit slot at bit j*w (`pack`), with w
    from `_slot_width` for n pivots, as the rank is at most n.  Each row held
    has a pivot slot equal to 1, zero in every row held after it, and every
    slot below p.  `push` clears the held pivots from a new row in the order
    they were taken, one bigint multiply-add each: row k is zero at the
    pivots of rows 0..k-1, so clearing its pivot keeps theirs clear.  A
    slot is reduced mod p only where it is read: for a factor, in the search
    for a new pivot, and in the row kept.  A copy is a copy of two lists of
    ints, so a state can be extended along many branches.
    """

    __slots__ = ("p", "n", "_mask", "_shifts", "_rows", "_leads")

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        w = _slot_width(n, p)
        self._mask = (1 << w) - 1
        self._shifts = range(0, n * w, w)
        self._rows: list[int] = []
        self._leads: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pack(self, coords: Sequence[int]) -> int:
        """The packed row of n residues."""
        return sum(map(lshift, coords, self._shifts))

    def copy(self) -> EchelonState:
        other = object.__new__(EchelonState)
        other.p, other.n, other._mask, other._shifts = self.p, self.n, self._mask, self._shifts
        other._rows, other._leads = self._rows[:], self._leads[:]
        return other

    def push(self, row: int) -> bool:
        """Whether the row, packed from n residues by `pack`, is independent
        of the rows held; if it is, it is kept, scaled to a pivot 1 and
        reduced."""
        rows = self._rows
        if len(rows) == self.n:
            return False
        p, mask = self.p, self._mask
        for held, s in zip(rows, self._leads):
            f = (row >> s & mask) % p
            if f:
                row += (p - f) * held
        shifts = self._shifts
        for c, s in enumerate(shifts):
            lead = (row >> s & mask) % p
            if lead:
                break
        else:
            return False
        # the slots before the pivot are zero mod p, and it becomes 1
        inv = pow(lead, -1, p)
        kept = 1 << s
        for t in shifts[c + 1 :]:
            kept |= (row >> t & mask) * inv % p << t
        rows.append(kept)
        self._leads.append(s)
        return True


def rref(m: FpMatrix) -> RrefResult:
    """Reduced row echelon form over GF(p).

    Pivots are scaled to 1 and their columns cleared above and below, which
    makes the output the unique canonical form of the row space.

    Each row is held as one int, entry j in the w-bit slot at bit j*w, with
    w from `_slot_width` for `rows` pivots.  A pivot row is reset to its
    scaled, reduced form L when it is chosen, and there are at most `rows`
    pivots, so no slot reaches 2**w.  A row operation is then one bigint
    multiply-add, and a slot is reduced mod p only where it is read: in the
    pivot search, for the factor f, for L, and in the result.
    """
    p, nrows, ncols = m.p, m.rows, m.cols
    w = _slot_width(nrows, p)
    mask = (1 << w) - 1
    shifts = range(0, ncols * w, w)
    e = m.entries
    # plain loops rather than comprehensions: most calls are on a few rows,
    # where building a comprehension's frame costs more than its loop
    rows = []
    for i in range(nrows):
        rows.append(sum(map(lshift, e[i * ncols : (i + 1) * ncols], shifts)))
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        s = shifts[col]
        for i in range(r, nrows):
            if (rows[i] >> s & mask) % p:
                break
        else:
            continue
        row = rows[i]
        rows[i] = rows[r]
        # rows r.. are zero mod p left of col (earlier pivots cleared them,
        # and the skipped columns had no entry there), so L starts at col
        inv = pow(row >> s & mask, -1, p)
        lead = 0
        for t in shifts[col:]:
            lead |= (row >> t & mask) * inv % p << t
        rows[r] = lead
        for i in range(nrows):
            if i != r:
                f = (rows[i] >> s & mask) % p
                if f:
                    rows[i] += (p - f) * lead
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    # rows r.. are zero mod p: every column is a pivot's or was skipped
    flat = []
    for row in rows[:r]:
        for t in shifts:
            flat.append((row >> t & mask) % p)
    entries = tuple(flat) + (0,) * ((nrows - r) * ncols)
    return RrefResult(_trusted(p, nrows, ncols, entries), r, tuple(pivots))


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
