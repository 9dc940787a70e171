"""Canonical subspaces of an ambient coordinate space GF(p)^n.

A subspace is stored as its reduced-echelon basis, so equality of subspaces
is plain equality of matrices.  The sum is the span of both bases stacked.
A subspace's parity checks are read straight off its reduced basis, one check
per non-pivot column (`_parity_checks`), and evaluated all at once as a
syndrome (`_syndrome`).  A vector is a member when its syndrome is zero, and
the intersection reduces the rows m of one basis as [syndrome(m) | m], with the
checks of the other: the reduced rows whose check block is zero carry the meet
in their right block.

The canonical form is checked once, at the public boundary: `Subspace(...)`
re-reduces the basis it is given.  The producers here (`span`, sum and
intersection, the zero and full subspaces) already hold a reduced basis, so
they build through `_canonical`, which skips that check, over matrices built
through `fp._trusted`, which skips the entry check.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product

from .errors import AmbientMismatch, DimensionMismatch, EnumerationTooLarge
from .fp import FpMatrix, _check_int, _residues, _trusted, check_prime, rref

DEFAULT_ENUMERATION_CAP = 729

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class AmbientId:
    """Identifies one concrete carrier GF(p)^n; distinct ids never overlap.

    The label is an instance-file label, `[A-Za-z_][A-Za-z0-9_]*`, so every
    ambient can be written to a file and read back.
    """

    label: str
    p: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not _LABEL_RE.match(self.label):
            raise ValueError(
                "ambient label must be ASCII letters, digits and '_', not starting "
                f"with a digit, got {self.label!r}"
            )
        check_prime(self.p)
        _check_int("ambient dimension", self.n, 0)


@dataclass(frozen=True)
class Subspace:
    """A subspace of its ambient space, held as a canonical RREF basis.

    Built directly, it checks that `basis` is in reduced echelon form with no
    zero rows and raises ValueError otherwise; `span` reduces any generators.
    """

    ambient: AmbientId
    basis: FpMatrix

    def __post_init__(self) -> None:
        if self.basis.p != self.ambient.p:
            raise ValueError("basis modulus differs from the ambient prime")
        if self.basis.cols != self.ambient.n:
            raise DimensionMismatch(
                f"basis has {self.basis.cols} columns for ambient of dimension {self.ambient.n}"
            )
        reduced = rref(self.basis)
        if reduced.rank != self.basis.rows or reduced.matrix != self.basis:
            raise ValueError("basis must be in reduced echelon form with no zero rows")

    @property
    def dim(self) -> int:
        return self.basis.rows

    def rows(self) -> list[tuple[int, ...]]:
        return self.basis.row_list()

    def contains(self, v) -> bool:
        """Membership of a coordinate vector in the row space: whether it
        passes every parity check."""
        v = tuple(v)
        n, p = self.ambient.n, self.ambient.p
        if len(v) != n:
            raise DimensionMismatch(f"vector length {len(v)} != {n} columns")
        if not _residues(v, p):
            raise ValueError(f"vector entries must be int residues in [0, {p})")
        free, pivot_rows = _parity_checks(self)
        return not any(_syndrome(v, free, pivot_rows, p))

    def sum(self, other: Subspace) -> Subspace:
        _check_same_ambient(self, other)
        ambient = self.ambient
        stacked = _trusted(
            ambient.p, self.dim + other.dim, ambient.n, self.basis.entries + other.basis.entries
        )
        return span(ambient, stacked)

    def intersect(self, other: Subspace) -> Subspace:
        """The meet, from one reduction of the rows m of this basis stacked as
        [checks(m) | m], where `checks` are the parity checks of `other`."""
        _check_same_ambient(self, other)
        ambient = self.ambient
        n, p = ambient.n, ambient.p
        free, pivot_rows = _parity_checks(other)
        k = len(free)
        width = k + n
        stacked: list[int] = []
        for m in self.rows():
            stacked.extend(_syndrome(m, free, pivot_rows, p))
            stacked.extend(m)
        reduced = rref(_trusted(p, self.dim, width, tuple(stacked)))
        # the rows with a zero check block come last and span the vectors of
        # this space that pass every check; their right blocks are in reduced
        # echelon form, because their pivots are pivots of the stacked
        # reduction, cleared in every other row
        first = bisect_left(reduced.pivots, k)
        entries = reduced.matrix.entries
        meet = tuple(
            x for i in range(first, reduced.rank) for x in entries[i * width + k : (i + 1) * width]
        )
        return _canonical(ambient, _trusted(p, reduced.rank - first, n, meet))

    def enumerate(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple[int, ...]]:
        """All p^dim vectors, in lexicographic order of basis coefficients."""
        p = self.ambient.p
        count = p**self.dim
        if count > cap:
            raise EnumerationTooLarge(f"{count} vectors exceed the cap of {cap}")
        rows = self.rows()
        out = []
        for coeffs in product(range(p), repeat=self.dim):
            acc = [0] * self.ambient.n
            for c, row in zip(coeffs, rows):
                if c:
                    acc = [(a + c * x) % p for a, x in zip(acc, row)]
            out.append(tuple(acc))
        return out


def _parity_checks(space: Subspace) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """The non-pivot columns of the reduced basis and, for each basis row, its
    pivot and its entries in those columns.

    A reduced row's leading entry is its first 1, and its pivot column is zero
    in every other row, so for each non-pivot column j the check
    x -> x[j] - sum_i basis[i][j] * x[pivot_i] vanishes exactly on `space`.
    """
    basis = space.rows()
    pivots = [row.index(1) for row in basis]
    free = [j for j in range(space.ambient.n) if j not in pivots]
    return free, [(piv, [row[j] for j in free]) for piv, row in zip(pivots, basis)]


def _syndrome(v: tuple[int, ...], free: list[int], pivot_rows: list, p: int) -> list[int]:
    """The values at v of the parity checks read by `_parity_checks`, all at
    once: v - sum_i v[pivot_i] * basis[i] on the non-pivot columns, taken one
    basis row at a time.  v passes every check exactly when it is zero."""
    syndrome = [v[j] for j in free]
    for piv, row in pivot_rows:
        c = v[piv]
        if c:
            syndrome = [s - c * x for s, x in zip(syndrome, row)]
    return [s % p for s in syndrome]


def span(ambient: AmbientId, generators: FpMatrix) -> Subspace:
    """The subspace generated by the rows of `generators`."""
    if generators.p != ambient.p:
        raise ValueError("generator modulus differs from the ambient prime")
    if generators.cols != ambient.n:
        raise DimensionMismatch(
            f"generators have {generators.cols} columns for ambient of dimension {ambient.n}"
        )
    reduced = rref(generators)
    basis = _trusted(
        ambient.p, reduced.rank, ambient.n, reduced.matrix.entries[: reduced.rank * ambient.n]
    )
    return _canonical(ambient, basis)


def _canonical(ambient: AmbientId, basis: FpMatrix) -> Subspace:
    """A Subspace over a basis that is already in reduced echelon form with no
    zero rows, built without the re-reduction in `Subspace.__post_init__`."""
    space = object.__new__(Subspace)
    object.__setattr__(space, "ambient", ambient)
    object.__setattr__(space, "basis", basis)
    return space


def zero_subspace(ambient: AmbientId) -> Subspace:
    return _canonical(ambient, _trusted(ambient.p, 0, ambient.n, ()))


def full_subspace(ambient: AmbientId) -> Subspace:
    rows = tuple(
        1 if j == i else 0 for i in range(ambient.n) for j in range(ambient.n)
    )
    return _canonical(ambient, _trusted(ambient.p, ambient.n, ambient.n, rows))


def _check_same_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient != s2.ambient:
        raise AmbientMismatch(f"{s1.ambient} vs {s2.ambient}")
