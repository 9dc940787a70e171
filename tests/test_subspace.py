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
from conftest import line_space, random_subspace

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
