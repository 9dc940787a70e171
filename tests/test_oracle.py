"""Brute-force oracles and their agreement with the fast paths."""

import random

import pytest

from multispace import (
    AmbientId,
    EnumerationTooLarge,
    MultiVectorSpace,
    OperationPolicy,
    OracleConfig,
    SearchTooLarge,
    TaggedVector,
    brute_dependent,
    brute_intersection,
    brute_span,
    brute_subspace_check,
    full_subspace,
    is_multi_subspace,
    linear_span,
    linearly_dependent,
    zero_vector,
)
from multispace import core
from conftest import (
    group_semantics_cases,
    line_space,
    random_one_ambient_instance,
    random_subspace,
    three_lines_gf2,
    union_elements,
)

TOTAL = OperationPolicy.TOTAL
CLOSED = OperationPolicy.CLOSED
GF2 = AmbientId("A", 2, 2)
GF3 = AmbientId("A", 3, 2)


def tv(ambient, *coords):
    return TaggedVector(ambient, tuple(coords))


class TestBruteIntersection:
    def test_self_intersection(self):
        s = line_space(GF3, (1, 2))
        assert brute_intersection(s, s) == set(s.enumerate())

    def test_complementary_lines(self):
        a = line_space(GF2, (1, 0))
        b = line_space(GF2, (0, 1))
        assert brute_intersection(a, b) == {(0, 0)}

    def test_full_absorbs(self):
        s = line_space(GF2, (1, 1))
        assert brute_intersection(s, full_subspace(GF2)) == set(s.enumerate())

    def test_cap(self):
        big = full_subspace(AmbientId("A", 3, 7))
        with pytest.raises(EnumerationTooLarge):
            brute_intersection(big, big, OracleConfig(enumeration_cap=729))

    def test_agrees_with_zassenhaus(self):
        rng = random.Random(101)
        for _ in range(200):
            ambient = AmbientId("A", rng.choice([2, 3]), rng.randint(1, 4))
            a = random_subspace(rng, ambient)
            b = random_subspace(rng, ambient)
            assert brute_intersection(a, b) == set(a.intersect(b).enumerate())


class TestBruteDependent:
    def test_zero_vector_dependent(self):
        m = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        dep, witness = brute_dependent(m, [zero_vector(GF2)])
        assert dep and witness == (1,)

    def test_axes_independent(self):
        m = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        assert brute_dependent(m, [tv(GF2, 1, 0), tv(GF2, 0, 1)]) == (False, None)

    def test_disjoint_ambients_closed_independent(self):
        b = AmbientId("B", 2, 2)
        m = MultiVectorSpace((full_subspace(GF2), full_subspace(b)), CLOSED)
        assert brute_dependent(m, [tv(GF2, 1, 0), tv(b, 1, 0)]) == (False, None)

    def test_cap(self):
        m = MultiVectorSpace((full_subspace(AmbientId("A", 5, 2)),), TOTAL)
        vectors = [tv(AmbientId("A", 5, 2), 1, 0)] * 4
        with pytest.raises(SearchTooLarge):
            brute_dependent(m, vectors, OracleConfig(coefficient_cap=100))

    def test_agrees_with_fast_path(self):
        rng = random.Random(103)
        for policy in (TOTAL, CLOSED):
            for _ in range(100):
                m = random_one_ambient_instance(rng, policy, max_dim=3)
                ambient = m.components[0].ambient
                vectors = [
                    TaggedVector(
                        ambient, tuple(rng.randrange(ambient.p) for _ in range(ambient.n))
                    )
                    for _ in range(rng.randint(1, 4))
                ]
                assert brute_dependent(m, vectors)[0] == linearly_dependent(m, vectors)[0]


    def test_shares_no_membership_index_with_core(self, monkeypatch):
        rng = random.Random(113)
        cases = []
        for policy in (TOTAL, CLOSED):
            for _ in range(60):
                m = random_one_ambient_instance(rng, policy, max_dim=3)
                ambient = m.components[0].ambient
                vectors = [
                    TaggedVector(
                        ambient, tuple(rng.randrange(ambient.p) for _ in range(ambient.n))
                    )
                    for _ in range(rng.randint(1, 4))
                ]
                cases.append((m, vectors, linearly_dependent(m, vectors)))
        # long CLOSED lists from the union, with repeats and zero, revisit
        # chain states the search has already seen fail
        for _ in range(150):
            m = random_one_ambient_instance(rng, CLOSED, primes=(2, 3, 5), max_dim=3)
            ambient = m.components[0].ambient
            pool = sorted(union_elements(m), key=lambda v: v.coords)
            pool.append(zero_vector(ambient))
            longest = {2: 12, 3: 8, 5: 6}[ambient.p]
            vectors = [rng.choice(pool) for _ in range(rng.randint(2, longest))]
            cases.append((m, vectors, linearly_dependent(m, vectors)))

        def no_index(space):
            raise AssertionError("the oracle used core's membership tests")

        monkeypatch.setattr(core, "_Membership", no_index)
        for m, vectors, fast in cases:
            brute = brute_dependent(m, vectors)
            assert brute[0] == fast[0]
            if m.policy is CLOSED:
                assert brute == fast


class TestBruteSpan:
    def test_empty(self):
        assert brute_span(three_lines_gf2(), []) == set()

    def test_one_line_generator(self):
        m = MultiVectorSpace((line_space(GF2, (1, 1)),), TOTAL)
        assert brute_span(m, [tv(GF2, 1, 1)]) == {tv(GF2, 0, 0), tv(GF2, 1, 1)}

    def test_full_space_generators(self):
        m = MultiVectorSpace((full_subspace(GF3),), TOTAL)
        spanned = brute_span(m, [tv(GF3, 1, 0), tv(GF3, 0, 1)])
        assert spanned == {tv(GF3, *v) for v in full_subspace(GF3).enumerate()}

    def test_agrees_with_fast_path(self):
        rng = random.Random(107)
        for policy in (TOTAL, CLOSED):
            for _ in range(60):
                m = random_one_ambient_instance(rng, policy, max_dim=3)
                ambient = m.components[0].ambient
                pool = list(union_elements(m))
                pool.sort(key=lambda v: v.coords)
                gens = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
                if rng.random() < 0.3:
                    gens.append(
                        TaggedVector(
                            ambient,
                            tuple(rng.randrange(ambient.p) for _ in range(ambient.n)),
                        )
                    )
                assert brute_span(m, gens) == linear_span(m, gens)


class TestBruteSubspaceCheck:
    def test_candidate_equals_parent(self):
        m = three_lines_gf2()
        assert brute_subspace_check(m, m)

    def test_missing_zero_vector(self):
        parent = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        # 1*a + 1*a = 0 must be present for any member a
        assert not brute_subspace_check({tv(GF2, 1, 0)}, parent)

    def test_line_inside_plane(self):
        parent = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        candidate = MultiVectorSpace((line_space(GF2, (1, 1)),), TOTAL)
        assert brute_subspace_check(candidate, parent)

    def test_agrees_with_fast_path(self):
        rng = random.Random(109)
        cases = [(c, p) for _, c, p, _ in group_semantics_cases()]
        for policy in (TOTAL, CLOSED):
            for _ in range(60):
                parent = random_one_ambient_instance(rng, policy, max_dim=3)
                elems = sorted(union_elements(parent), key=lambda v: v.coords)
                cases.append(({v for v in elems if rng.random() < 0.5}, parent))
        # parents over two ambients; candidates that are instances with
        # several components, vector sets with a foreign vector, or empty
        for policy in (TOTAL, CLOSED):
            for _ in range(60):
                first = random_one_ambient_instance(rng, policy, max_dim=2)
                second = random_one_ambient_instance(rng, policy, max_dim=2, label="B")
                parent = MultiVectorSpace(first.components + second.components, policy)
                elems = sorted(union_elements(parent), key=lambda v: (v.ambient.label, v.coords))
                pool = parent.components + tuple(
                    random_subspace(rng, c.ambient) for c in parent.components
                )
                cases.append((MultiVectorSpace(tuple(rng.sample(pool, 2)), policy), parent))
                candidate = {v for v in elems if rng.random() < 0.7}
                foreign = rng.choice([AmbientId("C", 2, 2), AmbientId("A", 7, 1)])
                cases.append((candidate | {zero_vector(foreign)}, parent))
                cases.append((set(), parent))
        verdicts = []
        for candidate, parent in cases:
            verdicts.append(is_multi_subspace(candidate, parent))
            assert brute_subspace_check(candidate, parent) == verdicts[-1]
        assert True in verdicts and False in verdicts
