"""Canonical subspace objects: span, sum, intersection, enumeration."""

import random
from itertools import product

import pytest

from multispace import (
    AmbientId,
    AmbientMismatch,
    DimensionMismatch,
    EnumerationTooLarge,
    FpMatrix,
    Subspace,
    full_subspace,
    span,
    zero_subspace,
)
from multispace import subspace as subspace_module
from multispace.fp import rref
from conftest import line_space, random_subspace, zassenhaus

GF2_PLANE = AmbientId("A", 2, 2)
GF3_PLANE = AmbientId("A", 3, 2)


def brute_points(s: Subspace) -> set:
    """Oracle: direct coefficient enumeration of the basis rows."""
    p = s.ambient.p
    rows = s.rows()
    out = set()
    for coeffs in product(range(p), repeat=len(rows)):
        acc = [0] * s.ambient.n
        for c, row in zip(coeffs, rows):
            acc = [(a + c * x) % p for a, x in zip(acc, row)]
        out.add(tuple(acc))
    return out


class TestSpan:
    def test_empty_generators(self):
        s = span(GF2_PLANE, FpMatrix(2, 0, 2, ()))
        assert s.dim == 0

    def test_redundant_generators_fill_plane(self):
        s = line_space(GF2_PLANE, (1, 0), (0, 1), (1, 1))
        assert s.dim == 2
        assert brute_points(s) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_single_generator(self):
        s = line_space(GF3_PLANE, (1, 1))
        assert s.dim == 1
        assert s.basis.row(0) == (1, 1)

    def test_wrong_width(self):
        with pytest.raises(DimensionMismatch):
            span(GF2_PLANE, FpMatrix.from_rows(2, [(1, 0, 1)]))

    def test_wrong_prime(self):
        with pytest.raises(ValueError):
            span(GF2_PLANE, FpMatrix.from_rows(3, [(1, 0)]))

    def test_non_canonical_basis_rejected(self):
        with pytest.raises(ValueError):
            Subspace(GF3_PLANE, FpMatrix.from_rows(3, [(2, 0)]))

    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 1), (1, 0)],  # pivots out of order
            [(1, 1), (0, 1)],  # pivot column not cleared above
            [(1, 0), (0, 0)],  # zero row
            [(1, 0), (1, 0)],  # repeated row
        ],
    )
    def test_public_constructor_checks_rref(self, rows):
        with pytest.raises(ValueError):
            Subspace(GF3_PLANE, FpMatrix.from_rows(3, rows))

    def test_one_rref_per_span_and_intersect(self, monkeypatch):
        # producers build through the trusted constructor, so the reduction
        # that makes the basis is the only one
        calls = []

        def counting_rref(m):
            calls.append(m)
            return rref(m)

        ambient = AmbientId("A", 101, 4)
        a = line_space(ambient, (1, 2, 3, 4), (0, 1, 5, 7))
        b = line_space(ambient, (1, 2, 0, 0), (0, 0, 1, 9))
        monkeypatch.setattr(subspace_module, "rref", counting_rref)
        span(ambient, FpMatrix.from_rows(101, [(1, 2, 3, 4), (2, 4, 6, 8)]))
        assert len(calls) == 1
        a.intersect(b)
        assert len(calls) == 2
        a.sum(b)
        assert len(calls) == 3
        zero_subspace(ambient), full_subspace(ambient)
        assert len(calls) == 3


class TestContains:
    def test_full_space(self):
        assert full_subspace(GF2_PLANE).contains((1, 1))

    def test_line_misses_point(self):
        s = line_space(GF2_PLANE, (1, 1))
        assert brute_points(s) == {(0, 0), (1, 1)}
        assert not s.contains((1, 0))

    def test_zero_vector_always_inside(self):
        for s in (zero_subspace(GF3_PLANE), line_space(GF3_PLANE, (1, 2)), full_subspace(GF3_PLANE)):
            assert s.contains((0, 0))

    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            full_subspace(GF2_PLANE).contains((1,))


class TestSumIntersect:
    def test_sum_with_zero(self):
        s = line_space(GF2_PLANE, (1, 1))
        assert s.sum(zero_subspace(GF2_PLANE)) == s

    def test_sum_of_axes(self):
        s = line_space(GF2_PLANE, (1, 0)).sum(line_space(GF2_PLANE, (0, 1)))
        assert s == full_subspace(GF2_PLANE)
        assert brute_points(s) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_sum_idempotent(self):
        s = line_space(GF3_PLANE, (1, 2))
        assert s.sum(s) == s

    def test_intersect_idempotent(self):
        s = line_space(GF3_PLANE, (1, 2))
        assert s.intersect(s) == s

    def test_axes_intersect_trivially(self):
        a = line_space(GF2_PLANE, (1, 0))
        b = line_space(GF2_PLANE, (0, 1))
        assert brute_points(a) & brute_points(b) == {(0, 0)}
        assert a.intersect(b) == zero_subspace(GF2_PLANE)

    def test_full_absorbs(self):
        s = line_space(GF2_PLANE, (1, 1))
        assert full_subspace(GF2_PLANE).intersect(s) == s

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            line_space(GF2_PLANE, (1, 0)).sum(line_space(AmbientId("B", 2, 2), (1, 0)))

    def test_against_set_oracle(self):
        rng = random.Random(5)
        for _ in range(300):
            ambient = AmbientId("A", rng.choice([2, 3]), rng.randint(1, 4))
            a = random_subspace(rng, ambient)
            b = random_subspace(rng, ambient)
            pa, pb = brute_points(a), brute_points(b)
            assert brute_points(a.intersect(b)) == pa & pb
            assert brute_points(a.sum(b)) == {
                tuple((x + y) % ambient.p for x, y in zip(u, v)) for u in pa for v in pb
            }

    def test_modular_law(self):
        rng = random.Random(7)
        for _ in range(500):
            ambient = AmbientId("A", rng.choice([2, 3, 5]), rng.randint(1, 4))
            a = random_subspace(rng, ambient)
            b = random_subspace(rng, ambient)
            assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def combinations_of(rng: random.Random, s: Subspace, count: int) -> list[tuple[int, ...]]:
    """`count` random linear combinations of the basis rows of s."""
    p, n = s.ambient.p, s.ambient.n
    out = []
    for _ in range(count):
        acc = [0] * n
        for row in s.rows():
            c = rng.randrange(p)
            acc = [(a + c * x) % p for a, x in zip(acc, row)]
        out.append(tuple(acc))
    return out


def structured_pair(rng: random.Random, ambient: AmbientId, kind: str) -> tuple[Subspace, Subspace]:
    p, n = ambient.p, ambient.n

    def gens(rows):
        return span(ambient, FpMatrix.from_rows(p, rows, cols=n))

    def vectors(count):
        return [tuple(rng.randrange(p) for _ in range(n)) for _ in range(count)]

    a = random_subspace(rng, ambient)
    if kind == "random":
        return a, random_subspace(rng, ambient)
    if kind == "zero":
        return a, zero_subspace(ambient)
    if kind == "full":
        return a, full_subspace(ambient)
    if kind == "equal":
        # the same space from other generators
        while True:
            b = gens(combinations_of(rng, a, a.dim + rng.randint(0, 2)))
            if b.dim == a.dim:
                return a, b
    if kind == "nested":
        return a, gens(combinations_of(rng, a, rng.randint(0, a.dim)))
    if kind == "shared":
        # common generators plus generators of each side's own
        common = vectors(rng.randint(0, n))
        return gens(common + vectors(rng.randint(0, n))), gens(common + vectors(rng.randint(0, n)))
    assert kind == "trivial"
    while True:
        rows = vectors(rng.randint(0, n))
        cut = rng.randint(0, len(rows))
        a, b = gens(rows[:cut]), gens(rows[cut:])
        if a.dim + b.dim == gens(rows).dim:
            return a, b


class TestAgainstZassenhaus:
    """`intersect` and `sum` give the same basis entries as the stacked
    Zassenhaus reduction in conftest, in both argument orders."""

    @pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
    @pytest.mark.parametrize(
        "kind", ["random", "zero", "full", "equal", "nested", "shared", "trivial"]
    )
    def test_same_bases(self, p, kind):
        rng = random.Random(f"{p}-{kind}")
        for _ in range(60):
            ambient = AmbientId("A", p, rng.randint(0, 16))
            a, b = structured_pair(rng, ambient, kind)
            for x, y in ((a, b), (b, a)):
                ref_sum, ref_meet = zassenhaus(x, y)
                assert x.intersect(y).basis == ref_meet.basis
                assert x.sum(y).basis == ref_sum.basis
            meet = a.intersect(b)
            if kind in ("zero", "trivial"):
                assert meet.dim == 0
            elif kind in ("full", "nested"):
                assert meet == (a if kind == "full" else b)
            elif kind == "equal":
                assert meet == a == b == a.sum(b)


class TestStoredParityChecks:
    """`_parity_checks` stores its result on the `Subspace`; the store is not
    part of the value, and every answer read through it stays the same."""

    def test_read_subspace_is_a_fresh_copy_by_value(self):
        rng = random.Random(71)
        for _ in range(100):
            ambient = AmbientId("A", rng.choice([2, 3, 101]), rng.randint(0, 5))
            s = random_subspace(rng, ambient)
            checks = subspace_module._parity_checks(s)
            assert subspace_module._parity_checks(s) is checks
            fresh = Subspace(ambient, s.basis)
            assert s == fresh and fresh == s
            assert hash(s) == hash(fresh)
            assert repr(s) == repr(fresh)
            assert subspace_module._parity_checks(fresh) == checks

    def test_contains_and_intersect_answer_as_before(self):
        # each question is asked before and after the checks are stored, and
        # against the enumerated points
        rng = random.Random(72)
        for _ in range(150):
            ambient = AmbientId("A", rng.choice([2, 3]), rng.randint(1, 4))
            a, b = random_subspace(rng, ambient), random_subspace(rng, ambient)
            pa, pb = brute_points(a), brute_points(b)
            vectors = list(product(range(ambient.p), repeat=ambient.n))
            for _ in range(2):
                assert [a.contains(v) for v in vectors] == [v in pa for v in vectors]
                assert brute_points(a.intersect(b)) == pa & pb
                assert brute_points(b.intersect(a)) == pa & pb
                assert a.intersect(b) == b.intersect(a) == zassenhaus(a, b)[1]


class TestEquality:
    def test_different_generators_same_space(self):
        assert line_space(GF2_PLANE, (1, 1), (1, 0)) == line_space(GF2_PLANE, (1, 0), (0, 1))

    def test_zero_vs_full(self):
        line = AmbientId("A", 2, 1)
        assert zero_subspace(line) != full_subspace(line)

    def test_reflexive(self):
        s = line_space(GF3_PLANE, (1, 2))
        assert s == s

    def test_equivalence_relation_on_random_triples(self):
        rng = random.Random(23)
        ambient = AmbientId("A", 2, 3)
        spaces = [random_subspace(rng, ambient) for _ in range(30)]
        for a in spaces:
            assert a == a
        for a in spaces:
            for b in spaces:
                assert (a == b) == (b == a)
                for c in spaces:
                    if a == b and b == c:
                        assert a == c


class TestEnumerate:
    def test_zero_subspace(self):
        assert zero_subspace(GF3_PLANE).enumerate() == [(0, 0)]

    def test_line_gf2(self):
        assert line_space(GF2_PLANE, (1, 1)).enumerate() == [(0, 0), (1, 1)]

    def test_full_gf3_count(self):
        points = full_subspace(GF3_PLANE).enumerate()
        assert len(points) == 9
        assert len(set(points)) == 9

    def test_lexicographic_coefficient_order(self):
        s = full_subspace(GF3_PLANE)
        assert s.enumerate()[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_cap(self):
        big = full_subspace(AmbientId("A", 3, 7))
        with pytest.raises(EnumerationTooLarge):
            big.enumerate(cap=729)

    def test_matches_contains(self):
        rng = random.Random(9)
        for _ in range(100):
            ambient = AmbientId("A", rng.choice([2, 3]), rng.randint(1, 3))
            s = random_subspace(rng, ambient)
            points = set(s.enumerate())
            assert points == brute_points(s)
            for v in product(range(ambient.p), repeat=ambient.n):
                assert s.contains(v) == (v in points)
