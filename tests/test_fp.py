"""Prime-field scalar and matrix substrate."""

import random

import pytest
from hypothesis import given, strategies as st

from multispace import (
    AmbientId,
    DimensionMismatch,
    FpMatrix,
    FpScalar,
    MultiVectorSpace,
    OperationPolicy,
    SemanticError,
    Subspace,
    TaggedVector,
    ZeroInverse,
    fp_inv,
    full_subspace,
    is_prime,
    parse_instance,
    rref,
    solve_membership,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def scan_inverse(a: int, p: int) -> int:
    """Oracle: exhaustive scan of residues for the product congruent to 1."""
    for b in range(1, p):
        if (a * b) % p == 1:
            return b
    raise AssertionError(f"{a} has no inverse mod {p}")


def enumerate_rowspace(p: int, rows, cols: int | None = None) -> set:
    """Oracle: all coefficient combinations of the rows, as a set."""
    from itertools import product

    if cols is None:
        cols = len(rows[0]) if rows else 0
    out = set()
    for coeffs in product(range(p), repeat=len(rows)):
        acc = [0] * cols
        for c, row in zip(coeffs, rows):
            acc = [(a + c * x) % p for a, x in zip(acc, row)]
        out.add(tuple(acc))
    return out


class TestFpScalar:
    def test_identity_inverse(self):
        assert fp_inv(FpScalar(1, 5)) == FpScalar(1, 5)

    def test_inverse_of_two_mod_five(self):
        # frozen from the exhaustive scan: 2*3 = 6 = 1 (mod 5)
        assert scan_inverse(2, 5) == 3
        assert fp_inv(FpScalar(2, 5)) == FpScalar(3, 5)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroInverse):
            fp_inv(FpScalar(0, 7))

    def test_matches_scan_everywhere(self):
        for p in SMALL_PRIMES:
            for a in range(1, p):
                assert fp_inv(FpScalar(a, p)).value == scan_inverse(a, p)

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    def test_involution(self, p, data):
        a = data.draw(st.integers(min_value=1, max_value=p - 1))
        s = FpScalar(a, p)
        assert fp_inv(fp_inv(s)) == s

    def test_rejects_non_prime_modulus(self):
        with pytest.raises(ValueError):
            FpScalar(1, 6)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            FpScalar(5, 5)

    def test_rejects_oversized_modulus(self):
        with pytest.raises(ValueError):
            FpScalar(1, 2**31 + 11)

    def test_large_prime_inverse(self):
        p = 2147483647
        s = FpScalar(123456789, p)
        assert (s.value * fp_inv(s).value) % p == 1


class TestFpMatrix:
    def test_entry_count_checked(self):
        with pytest.raises(DimensionMismatch):
            FpMatrix(2, 2, 2, (1, 0, 1))

    def test_entries_range_checked(self):
        with pytest.raises(ValueError):
            FpMatrix(2, 1, 2, (1, 2))

    def test_from_rows_ragged(self):
        with pytest.raises(DimensionMismatch):
            FpMatrix.from_rows(3, [(1, 2), (1,)])


def _parse_space(p: int, n: int, gen: str):
    return parse_instance(f"policy TOTAL\nambient A p={p} n={n}\nspace V in A gen {gen}\n")


# (entry point, defect) -> (call, expected exception).  The library builds its
# own matrices without these checks, so each public entry point must keep them.
MALFORMED = {
    ("FpMatrix", "non-residue"): (lambda: FpMatrix(5, 1, 2, (1, 5)), ValueError),
    ("FpMatrix", "wrong length"): (lambda: FpMatrix(5, 1, 2, (1,)), DimensionMismatch),
    ("FpMatrix", "non-prime"): (lambda: FpMatrix(6, 1, 2, (1, 0)), ValueError),
    ("from_rows", "non-residue"): (lambda: FpMatrix.from_rows(5, [(1, -1)]), ValueError),
    ("from_rows", "wrong length"): (
        lambda: FpMatrix.from_rows(5, [(1, 0)], cols=3), DimensionMismatch
    ),
    ("from_rows", "non-prime"): (lambda: FpMatrix.from_rows(6, [(1, 0)]), ValueError),
    ("Subspace", "non-residue"): (
        lambda: Subspace(AmbientId("A", 5, 2), FpMatrix(5, 1, 2, (1, 7))), ValueError
    ),
    ("Subspace", "wrong length"): (
        lambda: Subspace(AmbientId("A", 5, 3), FpMatrix(5, 1, 2, (1, 0))), DimensionMismatch
    ),
    ("Subspace", "non-prime"): (
        lambda: Subspace(AmbientId("A", 6, 2), FpMatrix(5, 1, 2, (1, 0))), ValueError
    ),
    ("parse_instance", "non-residue"): (lambda: _parse_space(5, 2, "1,5"), SemanticError),
    ("parse_instance", "wrong length"): (lambda: _parse_space(5, 2, "1,0,1"), SemanticError),
    ("parse_instance", "non-prime"): (lambda: _parse_space(6, 2, "1,0"), SemanticError),
    # entries must be ints: a float or a bool in range is still rejected
    ("FpMatrix", "float"): (lambda: FpMatrix(3, 1, 2, (1.5, 0)), ValueError),
    ("FpMatrix", "bool"): (lambda: FpMatrix(3, 1, 2, (True, 0)), ValueError),
    ("from_rows", "float"): (lambda: FpMatrix.from_rows(3, [(1.0, 2)]), ValueError),
    ("from_rows", "bool"): (lambda: FpMatrix.from_rows(3, [(1, False)]), ValueError),
    ("Subspace", "float"): (
        lambda: Subspace(AmbientId("A", 3, 2), FpMatrix(3, 1, 2, (1.0, 2))), ValueError
    ),
    ("Subspace", "bool"): (
        lambda: Subspace(AmbientId("A", 3, 2), FpMatrix(3, 1, 2, (True, 2))), ValueError
    ),
    ("FpScalar", "float"): (lambda: FpScalar(1.0, 3), ValueError),
    ("FpScalar", "bool"): (lambda: FpScalar(True, 3), ValueError),
    ("solve_membership", "float"): (
        lambda: solve_membership(FpMatrix(3, 1, 2, (1, 2)), (0.5, 1.0)), ValueError
    ),
    ("solve_membership", "bool"): (
        lambda: solve_membership(FpMatrix(2, 1, 2, (1, 1)), (True, True)), ValueError
    ),
    ("Subspace.contains", "float"): (
        lambda: Subspace(AmbientId("A", 3, 2), FpMatrix(3, 1, 2, (1, 2))).contains((0.5, 1.0)),
        ValueError,
    ),
    ("TaggedVector", "non-residue"): (
        lambda: TaggedVector(AmbientId("A", 3, 2), (1, 3)), ValueError
    ),
    ("TaggedVector", "wrong length"): (
        lambda: TaggedVector(AmbientId("A", 3, 2), (1,)), ValueError
    ),
    ("TaggedVector", "float"): (lambda: TaggedVector(AmbientId("A", 3, 2), (1.0, 2)), ValueError),
    ("TaggedVector", "bool"): (lambda: TaggedVector(AmbientId("A", 2, 2), (True, 0)), ValueError),
    # shape fields must be ints too, and an ambient label a str
    ("AmbientId", "bool dimension"): (lambda: AmbientId("A", 2, True), ValueError),
    ("AmbientId", "float dimension"): (lambda: AmbientId("A", 2, 2.0), ValueError),
    ("AmbientId", "non-str label"): (lambda: AmbientId(7, 2, 2), ValueError),
    # a label is one the instance grammar reads back: [A-Za-z_][A-Za-z0-9_]*
    ("AmbientId", "label with a space"): (lambda: AmbientId("A B", 2, 2), ValueError),
    ("AmbientId", "empty label"): (lambda: AmbientId("", 2, 2), ValueError),
    ("AmbientId", "label with '#'"): (lambda: AmbientId("A#b", 2, 2), ValueError),
    ("AmbientId", "label with '='"): (lambda: AmbientId("p=2", 2, 2), ValueError),
    ("AmbientId", "label starting with a digit"): (lambda: AmbientId("1A", 2, 2), ValueError),
    ("AmbientId", "non-ASCII label"): (lambda: AmbientId("\u00c4", 2, 2), ValueError),
    ("FpMatrix", "float rows"): (lambda: FpMatrix(2, 1.0, 2, (1, 0)), ValueError),
    ("FpMatrix", "bool rows"): (lambda: FpMatrix(2, True, 2, (1, 0)), ValueError),
    ("FpMatrix", "float cols"): (lambda: FpMatrix(2, 1, 2.0, (1, 0)), ValueError),
    ("FpMatrix", "bool cols"): (lambda: FpMatrix(2, 2, True, (1, 0)), ValueError),
    # value types hold tuples, so that they hash and concatenate
    ("FpMatrix", "list entries"): (lambda: FpMatrix(2, 1, 2, [1, 0]), ValueError),
    ("TaggedVector", "list coords"): (
        lambda: TaggedVector(AmbientId("A", 2, 2), [1, 0]), ValueError
    ),
    ("MultiVectorSpace", "list components"): (
        lambda: MultiVectorSpace([full_subspace(AmbientId("A", 2, 2))], OperationPolicy.TOTAL),
        ValueError,
    ),
    ("MultiVectorSpace", "non-Subspace component"): (
        lambda: MultiVectorSpace((FpMatrix(2, 1, 2, (1, 0)),), OperationPolicy.TOTAL),
        ValueError,
    ),
}


class TestPublicBoundary:
    @pytest.mark.parametrize("entry, defect", list(MALFORMED))
    def test_malformed_input_raises(self, entry, defect):
        call, expected = MALFORMED[entry, defect]
        with pytest.raises(expected):
            call()

    def test_trusted_results_equal_checked_matrices(self):
        rng = random.Random(29)
        for _ in range(100):
            p = rng.choice([2, 3, 101, 2**31 - 1])
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            m = FpMatrix(p, rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))
            out = rref(m).matrix
            checked = FpMatrix(p, out.rows, out.cols, out.entries)
            assert out == checked and hash(out) == hash(checked)


class TestRref:
    def test_identity_is_fixed(self):
        m = FpMatrix.from_rows(3, [(1, 0), (0, 1)])
        result = rref(m)
        assert result.matrix == m
        assert result.rank == 2
        assert result.pivots == (0, 1)

    def test_repeated_rows_gf2(self):
        m = FpMatrix.from_rows(2, [(1, 1), (1, 1)])
        result = rref(m)
        assert result.matrix == FpMatrix.from_rows(2, [(1, 1), (0, 0)])
        assert result.rank == 1
        assert result.pivots == (0,)
        # the reduction preserves the row space
        assert enumerate_rowspace(2, [(1, 1)]) == {(0, 0), (1, 1)}

    def test_zero_matrix(self):
        m = FpMatrix(5, 3, 3, (0,) * 9)
        result = rref(m)
        assert result.matrix == m
        assert result.rank == 0
        assert result.pivots == ()

    def test_preserves_rowspace(self):
        rng = random.Random(11)
        for _ in range(200):
            p = rng.choice([2, 3])
            rows = rng.randint(0, 3)
            cols = rng.randint(1, 3)
            m = FpMatrix(p, rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))
            r = rref(m)
            assert enumerate_rowspace(p, m.row_list()) == enumerate_rowspace(p, r.matrix.row_list())

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_idempotent_and_rank_bounded(self, p, rows, cols, data):
        entries = tuple(
            data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(rows * cols)
        )
        m = FpMatrix(p, rows, cols, entries)
        first = rref(m)
        assert rref(first.matrix).matrix == first.matrix
        assert first.rank <= min(rows, cols)

    def test_rank_invariant_under_row_shuffle(self):
        rng = random.Random(3)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            rws = [tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)]
            base = rref(FpMatrix.from_rows(p, rws, cols=cols)).rank
            shuffled = rws[:]
            rng.shuffle(shuffled)
            assert rref(FpMatrix.from_rows(p, shuffled, cols=cols)).rank == base


class TestSolveMembership:
    def test_full_space(self):
        basis = FpMatrix.from_rows(2, [(1, 0), (0, 1)])
        assert solve_membership(basis, (1, 1)) == (1, 1)

    def test_outside_rowspace(self):
        # row space of (1,1) over GF(2) enumerates to {(0,0),(1,1)}
        basis = FpMatrix.from_rows(2, [(1, 1)])
        assert enumerate_rowspace(2, basis.row_list()) == {(0, 0), (1, 1)}
        assert solve_membership(basis, (1, 0)) is None

    def test_scalar_multiple(self):
        basis = FpMatrix.from_rows(3, [(1, 0)])
        assert solve_membership(basis, (2, 0)) == (2,)

    def test_length_mismatch(self):
        basis = FpMatrix.from_rows(3, [(1, 0)])
        with pytest.raises(DimensionMismatch):
            solve_membership(basis, (1, 0, 0))

    def test_empty_basis(self):
        basis = FpMatrix(2, 0, 2, ())
        assert solve_membership(basis, (0, 0)) == ()
        assert solve_membership(basis, (1, 0)) is None

    def test_agrees_with_enumeration(self):
        rng = random.Random(17)
        for _ in range(150):
            p = rng.choice([2, 3])
            cols = rng.randint(1, 4)
            gens = [tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rng.randint(0, 3))]
            reduced = rref(FpMatrix.from_rows(p, gens, cols=cols))
            basis = FpMatrix(p, reduced.rank, cols, reduced.matrix.entries[: reduced.rank * cols])
            space = enumerate_rowspace(p, basis.row_list(), cols=cols)
            for _ in range(10):
                v = tuple(rng.randrange(p) for _ in range(cols))
                coeffs = solve_membership(basis, v)
                assert (coeffs is not None) == (v in space)
                if coeffs is not None:
                    acc = [0] * cols
                    for c, row in zip(coeffs, basis.row_list()):
                        acc = [(a + c * x) % p for a, x in zip(acc, row)]
                    assert tuple(acc) == v
