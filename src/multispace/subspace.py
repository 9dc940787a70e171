"""Canonical subspaces of an ambient coordinate space GF(p)^n.

A subspace is stored as its reduced-echelon basis, so equality of subspaces
is plain equality of matrices.  Sum and intersection come out of a single
stacked elimination: reducing [A|A; B|0] leaves sum rows in the left block
and intersection rows in the right block.

The canonical form is checked once, at the public boundary: `Subspace(...)`
re-reduces the basis it is given.  The producers here (`span`, sum and
intersection, the zero and full subspaces) already hold a reduced basis, so
they build through `_canonical`, which skips that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import AmbientMismatch, DimensionMismatch, EnumerationTooLarge
from .fp import FpMatrix, check_prime, rref, solve_membership

DEFAULT_ENUMERATION_CAP = 729


@dataclass(frozen=True)
class AmbientId:
    """Identifies one concrete carrier GF(p)^n; distinct ids never overlap."""

    label: str
    p: int
    n: int

    def __post_init__(self) -> None:
        check_prime(self.p)
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"ambient dimension must be >= 0, got {self.n!r}")


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
        """Membership of a coordinate vector in the row space."""
        return solve_membership(self.basis, v) is not None

    def sum(self, other: Subspace) -> Subspace:
        return _zassenhaus(self, other)[0]

    def intersect(self, other: Subspace) -> Subspace:
        return _zassenhaus(self, other)[1]

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


def span(ambient: AmbientId, generators: FpMatrix) -> Subspace:
    """The subspace generated by the rows of `generators`."""
    if generators.p != ambient.p:
        raise ValueError("generator modulus differs from the ambient prime")
    if generators.cols != ambient.n:
        raise DimensionMismatch(
            f"generators have {generators.cols} columns for ambient of dimension {ambient.n}"
        )
    reduced = rref(generators)
    basis = FpMatrix(
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
    return _canonical(ambient, FpMatrix(ambient.p, 0, ambient.n, ()))


def full_subspace(ambient: AmbientId) -> Subspace:
    rows = tuple(
        1 if j == i else 0 for i in range(ambient.n) for j in range(ambient.n)
    )
    return _canonical(ambient, FpMatrix(ambient.p, ambient.n, ambient.n, rows))


def _zassenhaus(s1: Subspace, s2: Subspace) -> tuple[Subspace, Subspace]:
    """Bases of the sum and the intersection from one stacked reduction."""
    if s1.ambient != s2.ambient:
        raise AmbientMismatch(f"{s1.ambient} vs {s2.ambient}")
    n = s1.ambient.n
    p = s1.ambient.p
    stacked: list[tuple[int, ...]] = []
    for row in s1.rows():
        stacked.append(row + row)
    zero = (0,) * n
    for row in s2.rows():
        stacked.append(row + zero)
    reduced = rref(FpMatrix.from_rows(p, stacked, cols=2 * n))
    sum_rows: list[tuple[int, ...]] = []
    inter_rows: list[tuple[int, ...]] = []
    for i in range(reduced.rank):
        row = reduced.matrix.row(i)
        if any(row[:n]):
            sum_rows.append(row[:n])
        else:
            inter_rows.append(row[n:])
    ambient = s1.ambient
    # the left blocks of the sum rows and the right blocks of the intersection
    # rows are each in reduced echelon form: their pivots are pivots of the
    # stacked reduction, cleared in every other row
    sum_space = _canonical(ambient, FpMatrix.from_rows(p, sum_rows, cols=n))
    inter_space = _canonical(ambient, FpMatrix.from_rows(p, inter_rows, cols=n))
    return sum_space, inter_space
