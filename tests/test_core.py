"""Union-of-subspaces semantics: chains, dependence, bases, dimensions."""

import random
from itertools import product

import pytest

from multispace import (
    DEFAULT_SUBSET_CAP,
    AmbientId,
    ChainTerm,
    EmptyChain,
    EnumerationTooLarge,
    FpMatrix,
    FpScalar,
    MultiVectorSpace,
    OperationPolicy,
    PolicyMismatch,
    SearchTooLarge,
    Subspace,
    TaggedVector,
    TooManyComponents,
    additive_formula_check,
    basis_invariance_check,
    brute_dependent,
    brute_intersection,
    brute_span,
    brute_subspace_check,
    component_basis_vectors,
    dim_greedy,
    dim_inclusion_exclusion,
    evaluate_chain,
    full_subspace,
    greedy_basis,
    intersect_multispaces,
    is_multi_subspace,
    linear_span,
    linearly_dependent,
    rref,
    solve_membership,
    span,
    union_contains,
    validate_axioms,
    zero_subspace,
    zero_vector,
)
from multispace import core as core_module
from multispace import subspace as subspace_module
from multispace.cli import main as cli_main
from multispace.fp import EchelonState
from multispace.oracle import _chain_value, _component_sets
from conftest import (
    RankMembership,
    ReferenceChainSearch,
    brute_axiom_counts,
    brute_inclusion_exclusion,
    closed_chain_value,
    group_semantics_cases,
    kruskal_basis,
    line_space,
    random_one_ambient_instance,
    random_subspace,
    replay_greedy,
    three_lines_gf2,
    union_elements,
)

TOTAL = OperationPolicy.TOTAL
CLOSED = OperationPolicy.CLOSED
GF2 = AmbientId("A", 2, 2)
GF3 = AmbientId("A", 3, 2)
GF2_B = AmbientId("B", 2, 2)


def tv(ambient, *coords):
    return TaggedVector(ambient, tuple(coords))


def term(c, vector):
    return ChainTerm(FpScalar(c, vector.ambient.p), vector)


def exhaustive_dependent(space, vectors):
    """Oracle: flat scan of every not-all-zero coefficient tuple."""
    for coeffs in product(*(range(v.ambient.p) for v in vectors)):
        if not any(coeffs):
            continue
        value = evaluate_chain(space, [term(c, v) for c, v in zip(coeffs, vectors)])
        if value is not None and value.is_zero:
            return True
    return False


class TestUnionContains:
    def test_zero_of_used_ambient(self):
        m = MultiVectorSpace((line_space(GF2, (0, 1)),), TOTAL)
        assert union_contains(m, zero_vector(GF2))

    def test_vector_outside_line(self):
        m = MultiVectorSpace((line_space(GF2, (0, 1)),), TOTAL)
        assert union_elements(m) == {tv(GF2, 0, 0), tv(GF2, 0, 1)}
        assert not union_contains(m, tv(GF2, 1, 0))

    def test_every_basis_row(self):
        m = three_lines_gf2()
        for v in component_basis_vectors(m):
            assert union_contains(m, v)

    def test_foreign_ambient(self):
        m = MultiVectorSpace((line_space(GF2, (0, 1)),), TOTAL)
        assert not union_contains(m, zero_vector(GF2_B))

    def test_matches_enumerated_union(self):
        rng = random.Random(43)
        for _ in range(50):
            m = random_one_ambient_instance(rng, TOTAL, max_dim=3)
            ambient = m.components[0].ambient
            members = union_elements(m)
            for coords in product(range(ambient.p), repeat=ambient.n):
                v = TaggedVector(ambient, coords)
                assert union_contains(m, v) == (v in members)
        # CLOSED and two-ambient instances, every vector of both ambients
        for _ in range(40):
            ambients = [AmbientId(label, rng.choice([2, 3]), rng.randint(1, 3)) for label in "AB"]
            comps = tuple(random_subspace(rng, rng.choice(ambients)) for _ in range(rng.randint(1, 4)))
            m = MultiVectorSpace(comps, rng.choice([TOTAL, CLOSED]))
            members = union_elements(m)
            for ambient in ambients:
                for coords in product(range(ambient.p), repeat=ambient.n):
                    v = TaggedVector(ambient, coords)
                    assert union_contains(m, v) == (v in members)
        # components of more than 4,096 vectors (planes of GF(101)^3), on
        # sampled members and random vectors, against solving for coefficients
        ambient = AmbientId("A", 101, 3)
        answers = set()
        for _ in range(20):
            comps = tuple(random_subspace(rng, ambient, max_gens=2) for _ in range(rng.randint(1, 3)))
            m = MultiVectorSpace(comps, rng.choice([TOTAL, CLOSED]))
            samples = [tuple(rng.randrange(101) for _ in range(3)) for _ in range(10)]
            for comp in comps:
                for _ in range(5):
                    acc = [0, 0, 0]
                    for row in comp.rows():
                        c = rng.randrange(101)
                        acc = [(a + c * x) % 101 for a, x in zip(acc, row)]
                    samples.append(tuple(acc))
            for coords in samples:
                expected = any(solve_membership(c.basis, coords) is not None for c in comps)
                assert union_contains(m, TaggedVector(ambient, coords)) is expected
                answers.add(expected)
        assert answers == {True, False}


class TestMembershipByParityChecks:
    def test_answers_without_enumerating_components(self, monkeypatch):
        rng = random.Random(61)
        cases = []
        for _ in range(40):
            m = random_one_ambient_instance(rng, CLOSED, max_dim=3)
            ambient = m.components[0].ambient
            pool = sorted(union_elements(m), key=lambda v: v.coords)
            pool.append(tv(ambient, *(rng.randrange(ambient.p) for _ in range(ambient.n))))
            vectors = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            cases.append((m, vectors))
            cases.append((MultiVectorSpace(m.components, TOTAL), vectors))
        # two ambients
        a, b = AmbientId("A", 3, 2), AmbientId("B", 2, 3)
        m = MultiVectorSpace((line_space(a, (1, 2)), full_subspace(b), line_space(a, (0, 1))), CLOSED)
        cases.append((m, [tv(a, 2, 1), tv(b, 1, 0, 1), tv(a, 0, 2), tv(a, 2, 0)]))

        def answers():
            out = []
            for m, vectors in cases:
                closed = m.policy is CLOSED
                out.append((
                    linearly_dependent(m, vectors) if closed else None,
                    greedy_basis(m) if closed else None,
                    [union_contains(m, v) for v in vectors],
                    evaluate_chain(m, [term(i % v.ambient.p, v) for i, v in enumerate(vectors, 1)]),
                    linear_span(m, vectors[:2]),
                    is_multi_subspace(set(vectors), m),
                ))
            return out

        expected = answers()
        assert {verdict for *_, verdict in expected} == {True, False}

        def no_enumeration(*args, **kwargs):
            raise AssertionError("a component was enumerated")

        monkeypatch.setattr(Subspace, "enumerate", no_enumeration)
        assert answers() == expected


class TestEvaluateChain:
    def test_single_term_scalar_one(self):
        m = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        a = tv(GF2, 1, 1)
        assert evaluate_chain(m, [term(1, a)]) == a

    def test_closed_disjoint_lines_undefined(self):
        m = MultiVectorSpace((line_space(GF2, (1, 0)), line_space(GF2, (0, 1))), CLOSED)
        chain = [term(1, tv(GF2, 1, 0)), term(1, tv(GF2, 0, 1))]
        assert evaluate_chain(m, chain) is None

    def test_total_ambient_addition(self):
        m = MultiVectorSpace((line_space(GF2, (1, 0)), line_space(GF2, (0, 1))), TOTAL)
        chain = [term(1, tv(GF2, 1, 0)), term(1, tv(GF2, 0, 1))]
        assert evaluate_chain(m, chain) == tv(GF2, 1, 1)

    def test_cross_ambient_undefined_under_total(self):
        m = MultiVectorSpace((full_subspace(GF2), full_subspace(GF2_B)), TOTAL)
        chain = [term(1, tv(GF2, 1, 0)), term(1, tv(GF2_B, 0, 1))]
        assert evaluate_chain(m, chain) is None

    def test_empty_chain(self):
        m = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        with pytest.raises(EmptyChain):
            evaluate_chain(m, [])

    def test_closed_scalar_needs_membership(self):
        m = MultiVectorSpace((line_space(GF2, (0, 1)),), CLOSED)
        assert evaluate_chain(m, [term(1, tv(GF2, 1, 0))]) is None

    def test_group_rule_matches_set_lookup(self):
        # the oracle evaluates chains by lookup in enumerated component sets,
        # sharing no membership index with the library; ambient C has no
        # component, so under TOTAL it is a group that holds no union member
        rng = random.Random(101)
        outcomes = set()
        for _ in range(600):
            policy = rng.choice([TOTAL, CLOSED])
            ambients = [
                AmbientId(x, rng.choice([2, 3, 5]), rng.randint(1, 3))
                for x in "AB"[: rng.randint(1, 2)]
            ]
            components = tuple(
                random_subspace(rng, rng.choice(ambients)) for _ in range(rng.randint(1, 4))
            )
            m = MultiVectorSpace(components, policy)
            bare = AmbientId("C", rng.choice([2, 3, 5]), rng.randint(1, 3))
            pool = sorted(union_elements(m), key=lambda v: (v.ambient.label, v.coords))
            for a in [*ambients, bare]:
                pool.append(zero_vector(a))
                pool.append(tv(a, *(rng.randrange(a.p) for _ in range(a.n))))
            comp_sets = _component_sets(m, 729)
            for _ in range(10):
                vectors = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
                coeffs = tuple(rng.randrange(v.ambient.p) for v in vectors)
                expected = _chain_value(comp_sets, policy is TOTAL, coeffs, vectors)
                chain = [term(c, v) for c, v in zip(coeffs, vectors)]
                assert evaluate_chain(m, chain) == expected
                labels = {v.ambient.label for v in vectors}
                kind = "several" if len(labels) > 1 else "bare" if labels == {"C"} else "one"
                outcomes.add((policy, kind, expected is not None))
        # every possible (policy, ambients, defined) outcome came up
        assert outcomes == {
            (TOTAL, "one", True), (TOTAL, "bare", True), (TOTAL, "several", False),
            (CLOSED, "one", True), (CLOSED, "one", False), (CLOSED, "bare", False),
            (CLOSED, "several", False),
        }


class TestLinearlyDependent:
    def test_zero_vector_makes_dependent(self):
        m = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        dep, witness = linearly_dependent(m, [tv(GF2, 1, 0), zero_vector(GF2)])
        assert dep
        assert witness == (0, 1)

    def test_axes_independent(self):
        m = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        vectors = [tv(GF2, 1, 0), tv(GF2, 0, 1)]
        assert not exhaustive_dependent(m, vectors)
        assert linearly_dependent(m, vectors) == (False, None)

    def test_repeated_vector(self):
        m = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        dep, witness = linearly_dependent(m, [tv(GF2, 1, 0), tv(GF2, 1, 0)])
        assert dep
        assert witness == (1, 1)
        # the rank witness puts 1 on the vector that reduces to zero
        m = MultiVectorSpace((full_subspace(GF3),), TOTAL)
        assert linearly_dependent(m, [tv(GF3, 1, 0), tv(GF3, 1, 0)]) == (True, (2, 1))

    def test_total_witness_is_the_first_witness_of_the_shortest_dependent_prefix(self):
        # the shortest dependent prefix minus its last vector is independent,
        # so that prefix's witnesses are the multiples of one tuple whose last
        # coefficient is nonzero, and the TOTAL witness is the one with last
        # coefficient 1, padded with zeros
        rng = random.Random(83)
        dependent = 0
        for _ in range(150):
            p = rng.choice([2, 3, 5])
            m = random_one_ambient_instance(rng, TOTAL, primes=(p,))
            ambient = m.components[0].ambient
            pool = [zero_vector(ambient)] + [
                TaggedVector(ambient, tuple(rng.randrange(p) for _ in range(ambient.n)))
                for _ in range(rng.randint(1, 4))
            ]
            vectors = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            expected = (False, None)
            for j in range(1, len(vectors) + 1):
                dep, first = brute_dependent(m, vectors[:j])
                if dep:
                    inv = pow(first[-1], -1, p)
                    scaled = tuple(c * inv % p for c in first)
                    expected = (True, scaled + (0,) * (len(vectors) - j))
                    dependent += 1
                    break
            assert linearly_dependent(m, vectors) == expected
        assert 30 <= dependent <= 140

    def test_total_stops_at_the_first_dependent_vector(self, monkeypatch):
        # a repeated second vector decides the list: the 40 vectors after it
        # are never pushed, and the witness reduces only the first two
        pushes = [0]
        push = EchelonState.push

        def counted(self, row):
            pushes[0] += 1
            return push(self, row)

        monkeypatch.setattr(EchelonState, "push", counted)
        rng = random.Random(89)
        ambient = AmbientId("A", 101, 6)
        m = MultiVectorSpace((full_subspace(ambient),), TOTAL)
        v = TaggedVector(ambient, (3, 0, 7, 1, 0, 5))
        rest = [
            TaggedVector(ambient, tuple(rng.randrange(101) for _ in range(6))) for _ in range(40)
        ]
        assert linearly_dependent(m, [v, v, *rest]) == (True, (100, 1) + (0,) * 40)
        assert pushes[0] == 2

    def test_witness_chain_really_vanishes(self):
        rng = random.Random(31)
        for _ in range(100):
            m = random_one_ambient_instance(rng, TOTAL)
            ambient = m.components[0].ambient
            vectors = [
                TaggedVector(ambient, tuple(rng.randrange(ambient.p) for _ in range(ambient.n)))
                for _ in range(rng.randint(1, 4))
            ]
            dep, witness = linearly_dependent(m, vectors)
            if dep:
                value = evaluate_chain(m, [term(c, v) for c, v in zip(witness, vectors)])
                assert any(witness)
                assert value is not None and value.is_zero

    def test_rank_path_matches_exhaustive_search(self):
        rng = random.Random(41)
        for _ in range(200):
            m = random_one_ambient_instance(rng, TOTAL, max_dim=3)
            ambient = m.components[0].ambient
            vectors = [
                TaggedVector(ambient, tuple(rng.randrange(ambient.p) for _ in range(ambient.n)))
                for _ in range(rng.randint(1, 4))
            ]
            assert linearly_dependent(m, vectors)[0] == exhaustive_dependent(m, vectors)

    def test_total_mixed_ambients_independent(self):
        m = MultiVectorSpace((full_subspace(GF2), full_subspace(GF2_B)), TOTAL)
        vectors = [tv(GF2, 1, 0), tv(GF2, 1, 0), tv(GF2_B, 1, 0)]
        assert not exhaustive_dependent(m, vectors)
        assert linearly_dependent(m, vectors) == (False, None)

    def test_closed_disjoint_ambients_independent(self):
        m = MultiVectorSpace((full_subspace(GF2), full_subspace(GF2_B)), CLOSED)
        vectors = [tv(GF2, 1, 0), tv(GF2_B, 1, 0)]
        assert linearly_dependent(m, vectors) == (False, None)

    def test_closed_mixed_ambients_independent_past_the_cap(self):
        # a search over 4 vectors of GF(101)^2 would exceed the step cap, but
        # no full chain across two ambients is defined, so none is needed
        a, b = AmbientId("A", 101, 2), AmbientId("B", 101, 2)
        m = MultiVectorSpace((full_subspace(a), full_subspace(b)), CLOSED)
        stacked = component_basis_vectors(m)
        assert linearly_dependent(m, stacked) == (False, None)
        assert greedy_basis(m) == stacked

    def test_closed_witness_is_lex_first(self):
        m = MultiVectorSpace((full_subspace(GF2),), CLOSED)
        dep, witness = linearly_dependent(m, [tv(GF2, 1, 0), tv(GF2, 1, 0)])
        assert dep and witness == (1, 1)

    def test_search_cap(self):
        # 5^10 coefficient tuples, but at most 25 accumulators per position,
        # so the chain-state search stays far under its step cap
        small = AmbientId("A", 5, 2)
        m = MultiVectorSpace((full_subspace(small),), CLOSED)
        vectors = [tv(small, 1, 0)] * 10
        assert linearly_dependent(m, vectors) == (True, (0,) * 8 + (1, 4))
        # 2^3000 tuples, 12,000 steps: list length alone is no limit
        line = MultiVectorSpace((line_space(GF2, (1, 0)),), CLOSED)
        assert linearly_dependent(line, [tv(GF2, 1, 0)] * 3000) == (True, (0,) * 2998 + (1, 1))
        # 5 * (1 + 5 + ... + 5^8) = 2,441,405 steps exceed the cap of 2*10^6
        big = MultiVectorSpace((full_subspace(AmbientId("B", 5, 9)),), CLOSED)
        with pytest.raises(SearchTooLarge):
            linearly_dependent(big, component_basis_vectors(big))

    def test_empty_list_independent(self):
        m = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        assert linearly_dependent(m, []) == (False, None)


class TestLinearSpan:
    def test_empty_generators(self):
        m = three_lines_gf2()
        assert linear_span(m, []) == set()

    def test_all_basis_rows_cover_sum(self):
        # the three lines cover the whole plane, which is also the sum space
        m = three_lines_gf2()
        spanned = linear_span(m, component_basis_vectors(m))
        total = m.components[0].sum(m.components[1]).sum(m.components[2])
        assert spanned == {tv(GF2, *v) for v in total.enumerate()}

    def test_scalar_multiples_only(self):
        m = MultiVectorSpace((full_subspace(GF3),), TOTAL)
        v = tv(GF3, 1, 2)
        assert linear_span(m, [v]) == {tv(GF3, 0, 0), tv(GF3, 1, 2), tv(GF3, 2, 1)}

    def test_total_filters_to_union(self):
        # complementary lines: (1,1) is reachable but not a union member
        m = MultiVectorSpace((line_space(GF2, (1, 0)), line_space(GF2, (0, 1))), TOTAL)
        spanned = linear_span(m, component_basis_vectors(m))
        assert spanned == {tv(GF2, 0, 0), tv(GF2, 1, 0), tv(GF2, 0, 1)}

    def test_total_ambient_without_component_spans_nothing(self):
        m = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        assert linear_span(m, [tv(GF2_B, 1, 0), tv(GF2_B, 0, 1)]) == set()

    def test_closed_stays_in_components(self):
        m = MultiVectorSpace((line_space(GF2, (1, 0)), line_space(GF2, (0, 1))), CLOSED)
        spanned = linear_span(m, component_basis_vectors(m))
        assert spanned == {tv(GF2, 0, 0), tv(GF2, 1, 0), tv(GF2, 0, 1)}

    @pytest.mark.parametrize("policy", [TOTAL, CLOSED])
    def test_cap_counts_every_ambient(self, policy):
        # each plane alone reaches its 4 vectors, the two together 8
        m = MultiVectorSpace((full_subspace(GF2), full_subspace(GF2_B)), policy)
        gens = component_basis_vectors(m)
        assert linear_span(m, gens, 8) == union_elements(m)
        with pytest.raises(EnumerationTooLarge, match="^closure exceeds the enumeration cap of 7$"):
            linear_span(m, gens, 7)

    @pytest.mark.parametrize("policy", [TOTAL, CLOSED])
    def test_two_ambients_match_brute_span(self, policy):
        rng = random.Random(151)
        for _ in range(60):
            first = random_one_ambient_instance(rng, policy, max_dim=3, label="A")
            second = random_one_ambient_instance(rng, policy, max_dim=3, label="B")
            m = MultiVectorSpace(first.components + second.components, policy)
            pool = sorted(union_elements(m), key=lambda v: (v.ambient.label, v.coords))
            gens = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.3:
                ambient = rng.choice(m.ambients())
                gens.append(tv(ambient, *(rng.randrange(ambient.p) for _ in range(ambient.n))))
            assert linear_span(m, gens) == brute_span(m, gens)


class TestGreedyBasis:
    def test_single_component_unchanged(self):
        s = line_space(GF3, (1, 2))
        m = MultiVectorSpace((s,), TOTAL)
        assert greedy_basis(m) == [tv(GF3, 1, 2)]

    def test_complementary_lines_keep_both(self):
        m = MultiVectorSpace((line_space(GF2, (1, 0)), line_space(GF2, (0, 1))), TOTAL)
        assert greedy_basis(m) == [tv(GF2, 1, 0), tv(GF2, 0, 1)]
        assert dim_greedy(m) == 2

    def test_three_lines_shrink_to_two(self):
        m = three_lines_gf2()
        # brute force: every pair of the three generators is independent,
        # all three together are dependent
        gens = component_basis_vectors(m)
        for i in range(3):
            pair = [g for k, g in enumerate(gens) if k != i]
            assert not exhaustive_dependent(m, pair)
        assert exhaustive_dependent(m, gens)
        basis = greedy_basis(m)
        assert len(basis) == 2
        assert dim_greedy(m) == 2

    def test_output_independent_and_spanning(self):
        # spanning holds under TOTAL only; under CLOSED the procedure itself
        # is replayed with the brute-force dependence test
        rng = random.Random(13)
        for policy in (TOTAL, CLOSED):
            for _ in range(30):
                m = random_one_ambient_instance(rng, policy, max_dim=3)
                basis = greedy_basis(m)
                assert not linearly_dependent(m, basis)[0]
                if policy is TOTAL:
                    assert linear_span(m, basis) >= union_elements(m)
                else:
                    assert not brute_dependent(m, basis)[0]
                    assert basis == replay_greedy(m, lambda vs: brute_dependent(m, vs))

    @pytest.mark.parametrize("p", [2, 3, 101])
    def test_total_basis_matches_restart_loop(self, p):
        rng = random.Random(500 + p)
        for _ in range(60):
            ambients = [AmbientId("A", p, rng.randint(1, 5))]
            if rng.random() < 0.2:
                ambients.append(AmbientId("B", p, rng.randint(1, 3)))
            m = MultiVectorSpace(
                tuple(random_subspace(rng, rng.choice(ambients)) for _ in range(rng.randint(1, 6))),
                TOTAL,
            )

            def restart(vs):
                return linearly_dependent(m, vs)

            assert greedy_basis(m) == replay_greedy(m, restart)
            size = len(component_basis_vectors(m))
            order = rng.sample(range(size), size)
            assert greedy_basis(m, removal_order=order) == replay_greedy(m, restart, order)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_resumed_chain_search_matches_restart_loop(self, p):
        rng = random.Random(700 + p)
        brute_replays = 0
        for _ in range(40):
            ambients = [AmbientId("A", p, rng.randint(1, 4))]
            if rng.random() < 0.2:
                ambients.append(AmbientId("B", p, rng.randint(1, 3)))
            comps = [random_subspace(rng, rng.choice(ambients)) for _ in range(rng.randint(1, 4))]
            comps += rng.sample(comps, rng.randint(0, min(2, len(comps))))
            m = MultiVectorSpace(tuple(comps), CLOSED)
            size = len(component_basis_vectors(m))
            order = rng.sample(range(size), size)
            dependence_tests = [lambda vs: linearly_dependent(m, vs)]
            if p**size <= 20_000:
                dependence_tests.append(lambda vs: brute_dependent(m, vs))
                brute_replays += 1
            for dependent in dependence_tests:
                assert greedy_basis(m) == replay_greedy(m, dependent)
                assert greedy_basis(m, removal_order=order) == replay_greedy(m, dependent, order)
        assert brute_replays >= 10

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_total_basis_is_greatest_by_removal_key(self, p):
        # the exchange argument: dropping a circuit's smallest vector by the
        # removal key until none is left keeps the basis greatest by that key
        rng = random.Random(900 + p)
        removals = 0
        for _ in range(40):
            m = random_one_ambient_instance(rng, TOTAL, primes=(p,), max_components=5)
            basis = greedy_basis(m)
            assert basis == kruskal_basis(m)
            size = len(component_basis_vectors(m))
            for _ in range(3):
                order = rng.sample(range(size), size)
                assert greedy_basis(m, removal_order=order) == kruskal_basis(m, order)
            removals += len(basis) < size
        assert removals >= 10

    def test_total_basis_is_one_rref(self, monkeypatch):
        reductions = []

        def counting_rref(m):
            reductions.append(m.cols)
            return rref(m)

        def search(*args):
            raise AssertionError("TOTAL greedy_basis ran a dependence search")

        monkeypatch.setattr(core_module, "rref", counting_rref)
        monkeypatch.setattr(core_module, "_ChainSearch", search)
        monkeypatch.setattr(core_module, "linearly_dependent", search)
        rng = random.Random(61)
        several_removals = 0
        for _ in range(40):
            m = random_one_ambient_instance(rng, TOTAL, max_dim=3, max_components=4)
            stacked = component_basis_vectors(m)
            order = rng.sample(range(len(stacked)), len(stacked))
            for removal_order in (None, order):
                reductions.clear()
                basis = greedy_basis(m, removal_order)
                assert reductions == [len(stacked)]
            several_removals += len(stacked) - len(basis) >= 2
        assert several_removals >= 5

    def test_one_chain_search_per_basis(self, monkeypatch):
        searches = []

        class CountingSearch(core_module._ChainSearch):
            def __init__(self, space, vectors):
                searches.append(len(vectors))
                super().__init__(space, vectors)

        def restart(space, vectors):
            raise AssertionError("greedy_basis restarted its dependence test")

        monkeypatch.setattr(core_module, "_ChainSearch", CountingSearch)
        monkeypatch.setattr(core_module, "linearly_dependent", restart)
        rng = random.Random(61)
        several_removals = 0
        for _ in range(40):
            m = random_one_ambient_instance(rng, CLOSED, max_dim=3, max_components=4)
            stacked = component_basis_vectors(m)
            searches.clear()
            basis = greedy_basis(m)
            assert searches == [len(stacked)]
            several_removals += len(stacked) - len(basis) >= 2
        assert several_removals >= 5
        # the step bound is checked once, on the stacked list: 9 basis rows
        # of GF(5)^9 take 2,441,405 steps, over the cap
        big = MultiVectorSpace((full_subspace(AmbientId("B", 5, 9)),), CLOSED)
        with pytest.raises(SearchTooLarge):
            greedy_basis(big)
        # a list over several ambients is independent, so nothing is searched
        # even where one ambient's part is dependent
        comps = (line_space(GF2, (1, 0)), line_space(GF2, (1, 0)), line_space(GF2_B, (0, 1)))
        searches.clear()
        for policy in (TOTAL, CLOSED):
            m = MultiVectorSpace(comps, policy)
            assert greedy_basis(m) == component_basis_vectors(m)
            assert greedy_basis(m, removal_order=[2, 1, 0]) == component_basis_vectors(m)
        assert searches == []

    def test_custom_removal_order(self):
        m = three_lines_gf2()
        # highest priority on position 0 removes (1,0) first
        basis = greedy_basis(m, removal_order=[0, 1, 2])
        assert basis == [tv(GF2, 0, 1), tv(GF2, 1, 1)]

    def test_bad_removal_order(self):
        m = three_lines_gf2()
        with pytest.raises(ValueError):
            greedy_basis(m, removal_order=[0, 1])

    def test_closed_three_lines_keep_all(self):
        # under CLOSED no cross-line chain is defined, so nothing is removable
        m = MultiVectorSpace(three_lines_gf2().components, CLOSED)
        assert dim_greedy(m) == 3

    def test_zero_only_ambient_is_unreachable(self):
        # degenerate corner: a union of zero spaces is {0}, but every chain
        # needs at least one term, so the empty basis spans nothing
        m = MultiVectorSpace((zero_subspace(GF2),), TOTAL)
        assert greedy_basis(m) == []
        assert linear_span(m, greedy_basis(m)) == set()
        assert union_elements(m) == {zero_vector(GF2)}

    def test_total_one_ambient_dim_is_sum_space_dim(self):
        rng = random.Random(47)
        for _ in range(200):
            m = random_one_ambient_instance(rng, TOTAL)
            total = m.components[0]
            for comp in m.components[1:]:
                total = total.sum(comp)
            assert dim_greedy(m) == total.dim


class TestPackedSlots:
    @pytest.mark.parametrize("p", [2, 3, 5, 101, 2**31 - 1])
    def test_add_is_the_sum_mod_p_in_every_slot(self, p):
        # the chain search adds packed accumulators, but its step cap refuses
        # every list at p = 2^31-1, so the step is checked here on its own,
        # with the slots that sum to 0, p-1, p and 2p-2 among those drawn
        n = 6
        slots = core_module._PackedSlots(p, n)
        edges = sorted({0, 1, p // 2, p - 2, p - 1})
        pairs = [((x,) * n, (y,) * n) for x in edges for y in edges]
        rng = random.Random(p)

        def draw():
            return tuple(
                rng.choice(edges) if rng.random() < 0.6 else rng.randrange(p) for _ in range(n)
            )

        pairs += [(draw(), draw()) for _ in range(300)]
        for a, b in pairs:
            expected = tuple((x + y) % p for x, y in zip(a, b))
            total = slots.add(slots.pack(a), slots.pack(b))
            assert total == slots.pack(expected)
            assert packed_coords(total, p, n) == expected
            assert (total == 0) == (not any(expected))


def packed_coords(acc: int, p: int, n: int) -> tuple[int, ...]:
    """The residues of a packed accumulator: entry j in the w-bit slot at
    bit j*w, with w = (p-1).bit_length() + 1."""
    w = (p - 1).bit_length() + 1
    return tuple(acc >> (j * w) & ((1 << w) - 1) for j in range(n))


def chain_search_list(rng: random.Random, p: int) -> tuple[MultiVectorSpace, list[TaggedVector]]:
    """A one-ambient CLOSED instance at p and a shuffled list of union members:
    each stacked basis row once, as itself, its negative (entry p-1 at the
    pivot) or a random multiple, plus a few more multiples.  Above p = 7 the
    components are lines and the lists short, so the search stays under its
    step cap: at p = 1009 a list has two vectors."""
    ambient = AmbientId("A", p, rng.randint(1, 3))
    max_gens = None if p <= 7 else 1
    comps = [random_subspace(rng, ambient, max_gens) for _ in range(rng.randint(1, 4))]
    while all(c.dim == 0 for c in comps):
        comps[0] = random_subspace(rng, ambient, max_gens)
    m = MultiVectorSpace(tuple(comps), CLOSED)
    rows = [v.coords for v in component_basis_vectors(m)]
    picks = [rng.choice([1, p - 1, rng.randrange(1, p)]) for _ in rows]
    picks += [rng.randrange(1, p) for _ in range(rng.randint(1, 4))]
    rows += [rng.choice(rows) for _ in range(len(picks) - len(rows))]
    vectors = [TaggedVector(ambient, tuple(c * x % p for x in r)) for c, r in zip(picks, rows)]
    rng.shuffle(vectors)
    return m, vectors[: {101: 4, 1009: 2}.get(p, 9)]


class TestPackedChainSearch:
    @pytest.mark.parametrize(
        "p, lists", [(2, 150), (3, 150), (5, 100), (7, 100), (101, 40), (1009, 30)]
    )
    def test_matches_the_reference_search(self, p, lists):
        # witness for witness, and the same failed states after every call,
        # along removal sequences that shrink the alive positions as the
        # greedy loop does
        rng = random.Random(1300 + p)
        witnesses = 0
        for _ in range(lists):
            m, vectors = chain_search_list(rng, p)
            search = core_module._ChainSearch(m, vectors)
            reference = ReferenceChainSearch(m, vectors)
            n = vectors[0].ambient.n
            alive = list(range(len(vectors)))
            while True:
                witness = search.first_witness(alive)
                assert witness == reference.first_witness(alive)
                failed = {
                    (k, packed_coords(acc, p, n), bool(seen)) for k, acc, seen in search._failed
                }
                assert len(failed) == len(search._failed)
                assert failed == reference.failed
                if witness is None:
                    break
                witnesses += 1
                alive.remove(rng.choice([k for k, c in zip(alive, witness) if c]))
        assert witnesses >= lists // 2


def check_values(space: MultiVectorSpace, coords: tuple[int, ...]) -> tuple[int, ...]:
    """The values at coords of every parity check of every component of its
    ambient, in component order: for each non-pivot column j of a reduced
    basis, coords[j] - sum_r basis[r][j] * coords[pivot_r] mod p."""
    p = space.components[0].ambient.p
    values = []
    for comp in space.components:
        rows = comp.rows()
        pivots = [row.index(1) for row in rows]
        for j in range(len(coords)):
            if j not in pivots:
                terms = sum(row[j] * coords[piv] for piv, row in zip(pivots, rows))
                values.append((coords[j] - terms) % p)
    return tuple(values)


class TestPackedCheckSlots:
    """A packed chain state holds its accumulator and then every component's
    check values, and a state's held mask is the set of components holding
    its accumulator, along the removal sequences of `TestPackedChainSearch`."""

    @pytest.mark.parametrize(
        "p, lists", [(2, 100), (3, 100), (5, 60), (7, 60), (101, 30), (1009, 30)]
    )
    def test_slots_and_masks_follow_the_accumulator(self, p, lists):
        rng = random.Random(1500 + p)
        states = masks = 0
        for _ in range(lists):
            m, vectors = chain_search_list(rng, p)
            n = vectors[0].ambient.n
            slots = n + len(check_values(m, (0,) * n))
            rank = RankMembership(m, vectors[0].ambient)
            search = core_module._ChainSearch(m, vectors)
            alive = list(range(len(vectors)))
            while True:
                witness = search.first_witness(alive)
                packed = {acc for _, acc, _ in search._failed} | set(search._acc_masks)
                for acc in packed:
                    coords = packed_coords(acc, p, n)
                    assert packed_coords(acc, p, slots) == coords + check_values(m, coords)
                    assert acc >> slots * ((p - 1).bit_length() + 1) == 0
                for acc, held in search._acc_masks.items():
                    assert held == rank.mask(packed_coords(acc, p, n))
                states += len(search._failed)
                masks += len(search._acc_masks)
                if witness is None:
                    break
                alive.remove(rng.choice([k for k, c in zip(alive, witness) if c]))
        assert states >= lists and masks >= lists


class TestClosedWitnessChecks:
    """At p = 7 and 101 most lists have too many coefficient tuples for the
    oracle, so each CLOSED witness is checked by `closed_chain_value`, which
    shares no code with `core`: its chain is defined, ends at zero and has a
    nonzero coefficient.  That the witness is the lexicographically first
    such tuple cannot be checked here, as it would take enumerating the
    tuples before it."""

    @pytest.mark.parametrize("p", [7, 101])
    def test_every_witness_is_a_defined_zero_chain(self, p, monkeypatch):
        calls = []

        class RecordingSearch(core_module._ChainSearch):
            def __init__(self, space, vectors):
                super().__init__(space, vectors)
                self.vectors = vectors

            def first_witness(self, alive):
                witness = super().first_witness(alive)
                calls.append(([self.vectors[k] for k in alive], witness))
                return witness

        monkeypatch.setattr(core_module, "_ChainSearch", RecordingSearch)
        rng = random.Random(1400 + p)
        checked = 0
        for _ in range(40):
            m = random_one_ambient_instance(rng, CLOSED, primes=(p,), max_dim=3)
            union = [v.coords for v in component_basis_vectors(m)]
            ambient = m.components[0].ambient
            vectors = [
                TaggedVector(ambient, tuple(rng.randrange(1, p) * x % p for x in rng.choice(union)))
                for _ in range(rng.randint(2, 5))
            ]
            calls.clear()
            for run in (lambda: linearly_dependent(m, vectors), lambda: greedy_basis(m)):
                try:
                    run()
                except SearchTooLarge:
                    pass  # the step cap refuses some lists of planes at p = 101
            for listed, witness in calls:
                if witness is not None:
                    assert any(witness)
                    assert closed_chain_value(m, witness, listed) == (0,) * ambient.n
                    checked += 1
        assert checked >= 20


class TestChecksReadOnce:
    def test_inclusion_exclusion_and_greedy_basis_read_each_component_once(self, monkeypatch):
        # counted where the checks are computed, not where they are asked for
        computed = []
        read = subspace_module._read_parity_checks

        def counting_read(space):
            computed.append(id(space))
            return read(space)

        monkeypatch.setattr(subspace_module, "_read_parity_checks", counting_read)
        rng = random.Random(62)
        several = 0
        for _ in range(60):
            m = random_one_ambient_instance(rng, CLOSED, max_dim=3, max_components=4)
            computed.clear()
            dim_inclusion_exclusion(m)
            greedy_basis(m)
            assert sorted(computed) == sorted(id(c) for c in m.components)
            several += len(m.components) > 1
        assert several >= 20


class TestTrustedBasisVectors:
    def test_component_basis_vectors_match_the_checked_construction(self):
        rng = random.Random(63)
        for _ in range(60):
            ambients = [AmbientId(label, rng.choice([2, 3, 101]), rng.randint(0, 4)) for label in "AB"]
            comps = tuple(random_subspace(rng, rng.choice(ambients)) for _ in range(rng.randint(1, 4)))
            m = MultiVectorSpace(comps, rng.choice([TOTAL, CLOSED]))
            checked = [TaggedVector(c.ambient, row) for c in comps for row in c.rows()]
            trusted = component_basis_vectors(m)
            assert trusted == checked
            assert [hash(v) for v in trusted] == [hash(v) for v in checked]
            assert [repr(v) for v in trusted] == [repr(v) for v in checked]

    @pytest.mark.parametrize(
        "coords", [(0, 2, 3), (0, -1, 1), (0, 1), (0, 1, 1, 0), [0, 1, 1], (0, 1, True), (0, 1.0, 1)]
    )
    def test_malformed_public_vector_still_raises(self, coords):
        with pytest.raises(ValueError):
            TaggedVector(AmbientId("A", 3, 3), coords)


class TestBasisInvariance:
    def test_single_component(self):
        m = MultiVectorSpace((full_subspace(GF3),), TOTAL)
        report = basis_invariance_check(m, trials=10, seed=1)
        assert report.cardinalities == (2,) * 10
        assert report.all_agree

    def test_three_lines_twenty_trials(self):
        report = basis_invariance_check(three_lines_gf2(), trials=20, seed=5)
        assert report.cardinalities == (2,) * 20
        assert report.all_agree

    def test_single_trial_trivially_agrees(self):
        m = MultiVectorSpace((line_space(GF2, (1, 1)),), TOTAL)
        assert basis_invariance_check(m, trials=1, seed=0).all_agree


class TestIsMultiSubspace:
    def test_candidate_equals_parent(self):
        m = three_lines_gf2()
        assert is_multi_subspace(m, m)

    def test_zero_candidate(self):
        parent = MultiVectorSpace((full_subspace(GF2), full_subspace(GF2_B)), TOTAL)
        candidate = MultiVectorSpace(
            (zero_subspace(GF2), zero_subspace(GF2_B)), TOTAL
        )
        assert is_multi_subspace(candidate, parent)

    def test_single_point_not_closed(self):
        parent = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        # 1*(1,0) + 1*(1,0) = (0,0) escapes the one-point set
        assert not is_multi_subspace({tv(GF2, 1, 0)}, parent)

    def test_line_inside_plane(self):
        parent = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        assert is_multi_subspace(MultiVectorSpace((line_space(GF2, (1, 1)),), TOTAL), parent)

    def test_candidate_outside_parent_union(self):
        parent = MultiVectorSpace((line_space(GF2, (1, 0)),), TOTAL)
        assert not is_multi_subspace({tv(GF2, 0, 1)}, parent)

    @pytest.mark.parametrize(
        "candidate, parent, verdict",
        [pytest.param(*case[1:], id=case[0]) for case in group_semantics_cases()],
    )
    def test_group_semantics(self, candidate, parent, verdict):
        assert is_multi_subspace(candidate, parent) is verdict
        assert brute_subspace_check(candidate, parent) is verdict

    @pytest.mark.parametrize("policy", [TOTAL, CLOSED])
    def test_decides_without_chain_steps(self, monkeypatch, policy):
        # one rank per operation group: no alpha*a + b is ever formed, so
        # membership is asked only of the candidate's own vectors
        rng = random.Random(131)
        cases = [(c, p) for _, c, p, _ in group_semantics_cases()]
        for _ in range(40):
            parent = random_one_ambient_instance(rng, policy, max_dim=3)
            chosen = tuple(rng.sample(parent.components, rng.randint(1, len(parent.components))))
            elems = sorted(union_elements(parent), key=lambda v: v.coords)
            cases.append((MultiVectorSpace(chosen, policy), parent))
            cases.append(({v for v in elems if rng.random() < 0.5}, parent))
        cases = [(c, MultiVectorSpace(p.components, policy)) for c, p in cases]
        expected = [brute_subspace_check(c, p) for c, p in cases]
        assert True in expected and False in expected

        asked: list[tuple[AmbientId, tuple[int, ...]]] = []
        mask = core_module._Membership.mask

        def recording_mask(idx, ambient, coords):
            asked.append((ambient, coords))
            return mask(idx, ambient, coords)

        monkeypatch.setattr(core_module._Membership, "mask", recording_mask)
        verdicts = []
        for candidate, parent in cases:
            start = len(asked)
            verdicts.append(is_multi_subspace(candidate, parent))
            if isinstance(candidate, MultiVectorSpace):
                candidate = union_elements(candidate)
            assert set(asked[start:]) <= {(v.ambient, v.coords) for v in candidate}
        assert asked
        assert verdicts == expected


class TestIntersectMultispaces:
    def test_self_intersection(self):
        m = three_lines_gf2()
        assert union_elements(intersect_multispaces(m, m)) == union_elements(m)

    def test_crossing_lines(self):
        m1 = MultiVectorSpace((line_space(GF2, (1, 0)),), TOTAL)
        m2 = MultiVectorSpace((line_space(GF2, (0, 1)),), TOTAL)
        meet = intersect_multispaces(m1, m2)
        assert union_elements(meet) == {tv(GF2, 0, 0)}

    def test_disjoint_ambients_empty(self):
        m1 = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        m2 = MultiVectorSpace((full_subspace(GF2_B),), TOTAL)
        meet = intersect_multispaces(m1, m2)
        assert meet.components == ()
        assert union_elements(meet) == set()

    def test_policy_mismatch(self):
        m1 = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        m2 = MultiVectorSpace((full_subspace(GF2),), CLOSED)
        with pytest.raises(PolicyMismatch):
            intersect_multispaces(m1, m2)

    def test_union_is_set_intersection(self):
        rng = random.Random(19)
        for _ in range(50):
            m1 = random_one_ambient_instance(rng, TOTAL, max_dim=3)
            ambient = m1.components[0].ambient
            m2 = MultiVectorSpace(
                tuple(random_subspace(rng, ambient) for _ in range(rng.randint(1, 3))), TOTAL
            )
            meet = intersect_multispaces(m1, m2)
            assert union_elements(meet) == union_elements(m1) & union_elements(m2)

    def test_deduplicates_components(self):
        m1 = MultiVectorSpace((full_subspace(GF2), full_subspace(GF2)), TOTAL)
        meet = intersect_multispaces(m1, m1)
        assert len(meet.components) == 1


def count_state_copies(monkeypatch) -> list[int]:
    """A one-item list counting the `fp.EchelonState.copy` calls from now on.

    Inclusion-exclusion forms each subset past the singletons by copying the
    state of its parent subset's checks, so this counts the meets it forms
    beyond the singletons.
    """
    calls = [0]
    copy = EchelonState.copy

    def counted(self):
        calls[0] += 1
        return copy(self)

    monkeypatch.setattr(EchelonState, "copy", counted)
    return calls


def subsets_with_nonzero_prefix(comps) -> int:
    """Subsets of two or more components of one ambient whose meet without
    the last component has a nonzero vector, over enumerated meets."""
    # meets[mask] is the enumerated meet of the components in mask, None
    # across ambients
    meets: list[set | None] = [None] * (1 << len(comps))
    count = 0
    for mask in range(1, 1 << len(comps)):
        top = mask.bit_length() - 1
        rest, comp = mask ^ (1 << top), comps[top]
        if not rest:
            meets[mask] = brute_intersection(comp, comp)
        elif meets[rest] is not None and comps[rest.bit_length() - 1].ambient == comp.ambient:
            count += len(meets[rest]) > 1
            meets[mask] = meets[rest] & meets[1 << top]
    return count


class TestDimInclusionExclusion:
    def test_single_component(self):
        s = line_space(GF3, (1, 2))
        assert dim_inclusion_exclusion(MultiVectorSpace((s,), TOTAL)) == s.dim

    def test_two_components_additive(self):
        rng = random.Random(29)
        for _ in range(100):
            ambient = AmbientId("A", rng.choice([2, 3]), rng.randint(1, 4))
            a, b = random_subspace(rng, ambient), random_subspace(rng, ambient)
            m = MultiVectorSpace((a, b), TOTAL)
            assert dim_inclusion_exclusion(m) == a.dim + b.dim - a.intersect(b).dim

    def test_three_lines_value(self):
        # pairwise and triple intersections are all the zero subspace
        m = three_lines_gf2()
        for i in range(3):
            for j in range(i + 1, 3):
                assert m.components[i].intersect(m.components[j]).dim == 0
        assert dim_inclusion_exclusion(m) == 3
        assert dim_greedy(m) == 2

    def test_permutation_invariant(self):
        rng = random.Random(37)
        m = three_lines_gf2()
        comps = list(m.components)
        for _ in range(10):
            rng.shuffle(comps)
            shuffled = MultiVectorSpace(tuple(comps), TOTAL)
            assert dim_inclusion_exclusion(shuffled) == 3

    def test_component_cap(self):
        comps = tuple(line_space(GF2, (1, 0)) for _ in range(13))
        with pytest.raises(TooManyComponents):
            dim_inclusion_exclusion(MultiVectorSpace(comps, TOTAL))

    def test_component_cap_counts_the_meets_formed(self, monkeypatch):
        # every meet of copies of one line is that line: the walk forms the 13
        # singletons and 4,082 larger subsets, 4,095 meets, and refuses the next
        calls = count_state_copies(monkeypatch)
        comps = tuple(line_space(GF2, (1, 0)) for _ in range(13))
        with pytest.raises(TooManyComponents):
            dim_inclusion_exclusion(MultiVectorSpace(comps, TOTAL))
        assert calls[0] == (1 << DEFAULT_SUBSET_CAP) - 1 - 13

    def test_fifteen_lines_of_gf2_4(self, monkeypatch):
        # distinct lines meet in 0, so only the 105 pairs are formed
        ambient = AmbientId("A", 2, 4)
        lines = [line_space(ambient, v) for v in product((0, 1), repeat=4) if any(v)]
        calls = count_state_copies(monkeypatch)
        assert dim_inclusion_exclusion(MultiVectorSpace(tuple(lines), TOTAL)) == 15
        assert calls[0] == 105

    def test_thirty_components_over_ten_ambients(self):
        rng = random.Random(1013)
        sizes = [1] * 10
        while sum(sizes) < 30:
            i = rng.randrange(10)
            if sizes[i] < 8:
                sizes[i] += 1
        comps = []
        for i, size in enumerate(sizes):
            ambient = AmbientId(f"A{i}", rng.choice([2, 3]), rng.randint(1, 3))
            comps += [random_subspace(rng, ambient) for _ in range(size)]
        rng.shuffle(comps)
        for policy in (TOTAL, CLOSED):
            m = MultiVectorSpace(tuple(comps), policy)
            slices = [
                MultiVectorSpace(tuple(m.components_in(ambient)), policy)
                for ambient in m.ambients()
            ]
            assert dim_inclusion_exclusion(m) == sum(map(brute_inclusion_exclusion, slices))

    def test_one_intersection_per_subset_with_a_nonzero_prefix(self, monkeypatch):
        # a subset of two or more components of one ambient is formed, its
        # parent's state copied once, exactly when the meet of it without its
        # last component is nonzero
        calls = count_state_copies(monkeypatch)
        rng = random.Random(1021)
        for _ in range(40):
            ambients = [
                AmbientId("AB"[i], rng.choice([2, 3]), rng.randint(1, 4))
                for i in range(rng.randint(1, 2))
            ]
            comps = tuple(
                random_subspace(rng, rng.choice(ambients)) for _ in range(rng.randint(1, 12))
            )
            calls[0] = 0
            dim_inclusion_exclusion(MultiVectorSpace(comps, rng.choice([TOTAL, CLOSED])))
            assert calls[0] == subsets_with_nonzero_prefix(comps)

    def test_cross_ambient_subsets_contribute_zero(self):
        m = MultiVectorSpace((full_subspace(GF2), full_subspace(GF2_B)), TOTAL)
        assert dim_inclusion_exclusion(m) == 4

    def test_lattice_matches_enumerated_meets(self):
        # components of at least half the ambient dimension, so that meets of
        # three or more components are often nonzero
        rng = random.Random(811)
        for _ in range(150):
            ambients = [
                AmbientId("ABC"[i], rng.choice([2, 3]), rng.randint(1, 5))
                for i in range(rng.randint(1, 3))
            ]
            comps = []
            for _ in range(rng.randint(1, 8)):
                ambient = rng.choice(ambients)
                g = rng.randint(ambient.n // 2, ambient.n)
                entries = tuple(rng.randrange(ambient.p) for _ in range(g * ambient.n))
                comps.append(span(ambient, FpMatrix(ambient.p, g, ambient.n, entries)))
            m = MultiVectorSpace(tuple(comps), rng.choice([TOTAL, CLOSED]))
            assert dim_inclusion_exclusion(m) == brute_inclusion_exclusion(m)

    def test_answers_with_intersect_refused(self, monkeypatch, tmp_path, capsys):
        # the meets' dimensions come from their stacked checks, so no meet is
        # formed as a subspace: the values and `dim --policy TOTAL` still answer
        rng = random.Random(1031)
        spaces = []
        for _ in range(40):
            ambient = AmbientId("A", rng.choice([2, 3]), rng.randint(1, 4))
            comps = tuple(random_subspace(rng, ambient) for _ in range(rng.randint(1, 6)))
            spaces.append(MultiVectorSpace(comps, rng.choice([TOTAL, CLOSED])))
        expected = [brute_inclusion_exclusion(m) for m in spaces]

        def refused(self, other):
            raise AssertionError("Subspace.intersect called")

        monkeypatch.setattr(Subspace, "intersect", refused)
        assert [dim_inclusion_exclusion(m) for m in spaces] == expected
        # the three coordinate planes of GF(2)^3: 2 + 2 + 2 - 1 - 1 - 1 + 0
        path = tmp_path / "planes.ms"
        path.write_text(
            "policy CLOSED\nambient A p=2 n=3\n"
            "space V1 in A gen 0,1,0; 0,0,1\n"
            "space V2 in A gen 1,0,0; 0,0,1\n"
            "space V3 in A gen 1,0,0; 0,1,0\n"
        )
        assert cli_main(["dim", "--policy", "TOTAL", str(path)]) == 0
        assert capsys.readouterr().out == "greedy=3 inclusion-exclusion=3 agree=yes\n"


def pooled_components(rng: random.Random, ambient: AmbientId, k: int) -> list[Subspace]:
    """k components, each the span of n/2 to n vectors drawn from one pool of
    n + 2 random vectors, so that meets of several components are often
    nonzero."""
    n, p = ambient.n, ambient.p
    pool = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n + 2)]
    return [
        span(ambient, FpMatrix.from_rows(p, rng.sample(pool, rng.randint(n // 2, n)), cols=n))
        for _ in range(k)
    ]


def random_invertible(rng: random.Random, p: int, n: int) -> list[tuple[int, ...]]:
    while True:
        g = FpMatrix(p, n, n, tuple(rng.randrange(p) for _ in range(n * n)))
        if rref(g).rank == n:
            return g.row_list()


def mapped(comp: Subspace, g: list[tuple[int, ...]]) -> Subspace:
    """The image of a component under x -> x @ g."""
    p, n = comp.ambient.p, comp.ambient.n
    rows = [
        tuple(sum(x * g[t][j] for t, x in enumerate(row) if x) % p for j in range(n))
        for row in comp.rows()
    ]
    return span(comp.ambient, FpMatrix.from_rows(p, rows, cols=n))


@pytest.mark.parametrize("p", [101, 2**31 - 1])
class TestInclusionExclusionRelations:
    """Relations that leave `dim_inclusion_exclusion` unchanged, checked at
    primes and sizes no enumerating oracle reaches (n up to 24).  Each value
    is taken under both policies, which must agree, as the alternating sum
    depends only on the components."""

    DRAWS = 10

    def draws(self, p: int, seed: int):
        rng = random.Random(seed * 1_000_003 + p)
        for _ in range(self.DRAWS):
            ambient = AmbientId("A", p, rng.randint(2, 24))
            yield rng, ambient, pooled_components(rng, ambient, rng.randint(2, 6))

    @staticmethod
    def value(comps) -> int:
        values = {
            dim_inclusion_exclusion(MultiVectorSpace(tuple(comps), policy))
            for policy in (TOTAL, CLOSED)
        }
        assert len(values) == 1
        return values.pop()

    def test_invariant_under_an_invertible_map(self, p):
        for rng, ambient, comps in self.draws(p, 1):
            g = random_invertible(rng, p, ambient.n)
            assert self.value([mapped(c, g) for c in comps]) == self.value(comps)

    def test_invariant_under_permuting_the_components(self, p):
        for rng, _, comps in self.draws(p, 2):
            assert self.value(rng.sample(comps, len(comps))) == self.value(comps)

    def test_two_ambients_add(self, p):
        for rng, ambient, comps in self.draws(p, 3):
            other = AmbientId("B", p, rng.randint(2, 24))
            more = pooled_components(rng, other, rng.randint(1, 5))
            both = comps + more
            rng.shuffle(both)
            assert self.value(both) == self.value(comps) + self.value(more)

    def test_invariant_under_adding_a_subspace_of_a_component(self, p):
        # the subsets holding the new D and a component C that holds it pair
        # off with those holding D and not C: same meet, opposite signs.  A
        # walk that adds every meet with one sign fails this relation, while
        # the three above hold for it too
        for rng, ambient, comps in self.draws(p, 4):
            rows = rng.sample(comps[0].rows(), rng.randint(1, comps[0].dim))
            more = comps + [span(ambient, FpMatrix.from_rows(p, rows, cols=ambient.n))]
            rng.shuffle(more)
            assert self.value(more) == self.value(comps)


class TestAdditiveFormula:
    def test_same_instance(self):
        m = three_lines_gf2()
        report = additive_formula_check(m, m)
        assert report.union_dim == report.additive_value == dim_greedy(m)
        assert report.agree

    def test_complementary_lines(self):
        m1 = MultiVectorSpace((line_space(GF2, (1, 0)),), TOTAL)
        m2 = MultiVectorSpace((line_space(GF2, (0, 1)),), TOTAL)
        report = additive_formula_check(m1, m2)
        assert (report.union_dim, report.first_dim, report.second_dim) == (2, 1, 1)
        assert report.intersection_dim == 0
        assert report.agree

    def test_disjoint_ambients_closed(self):
        m1 = MultiVectorSpace((full_subspace(GF2),), CLOSED)
        m2 = MultiVectorSpace((full_subspace(GF2_B),), CLOSED)
        report = additive_formula_check(m1, m2)
        assert report.union_dim == 4
        assert report.intersection_dim == 0
        assert report.agree

    def test_policy_mismatch(self):
        m1 = MultiVectorSpace((full_subspace(GF2),), TOTAL)
        m2 = MultiVectorSpace((full_subspace(GF2),), CLOSED)
        with pytest.raises(PolicyMismatch):
            additive_formula_check(m1, m2)


def axiom_counts(report):
    return (report.closure_checks, report.associativity_checks, report.distributivity_checks)


class TestValidateAxioms:
    def test_single_component_valid(self):
        report = validate_axioms(MultiVectorSpace((full_subspace(GF3),), TOTAL))
        # 9 elements: 9*(3 + 9) closure, 9^3 triples, 9*3^2 distributivity
        assert axiom_counts(report) == (108, 729, 81)

    def test_two_components_one_ambient_total(self):
        m = MultiVectorSpace((line_space(GF2, (1, 0)), line_space(GF2, (0, 1))), TOTAL)
        report = validate_axioms(m)
        # union {00, 10, 01}: every one of its 27 triples has both groupings
        assert axiom_counts(report) == (16, 27, 12)

    def test_distinct_ambients_closed_vacuous(self):
        m = MultiVectorSpace((full_subspace(GF2), full_subspace(GF2_B)), CLOSED)
        report = validate_axioms(m)
        # no triple mixes ambients: 4^3 per plane
        assert axiom_counts(report) == (48, 128, 32)

    def test_note_always_present(self):
        report = validate_axioms(MultiVectorSpace((zero_subspace(GF2),), TOTAL))
        assert len(report.notes) == 1

    def test_counts_match_enumeration(self):
        rng = random.Random(457)
        for policy in (TOTAL, CLOSED):
            for _ in range(40):
                ambients = [AmbientId("A", rng.choice([2, 3]), 3)]
                if rng.random() < 0.5:
                    ambients.append(AmbientId("B", rng.choice([2, 3]), 2))
                # proper subspaces, so that CLOSED sums often do not exist
                components = tuple(
                    random_subspace(rng, rng.choice(ambients), max_gens=2)
                    for _ in range(rng.randint(1, 5))
                )
                m = MultiVectorSpace(components, policy)
                assert axiom_counts(validate_axioms(m)) == brute_axiom_counts(m)


class TestMultiVectorSpaceInvariants:
    def test_label_reuse_rejected(self):
        other = AmbientId("A", 3, 2)
        with pytest.raises(ValueError):
            MultiVectorSpace((full_subspace(GF2), full_subspace(other)), TOTAL)

    def test_empty_instance_dimensions(self):
        empty = MultiVectorSpace((), TOTAL)
        assert dim_greedy(empty) == 0
        assert dim_inclusion_exclusion(empty) == 0
