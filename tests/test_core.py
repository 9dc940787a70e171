"""Union-of-subspaces semantics: chains, dependence, bases, dimensions."""

import random
from itertools import product

import pytest

from multispace import (
    AmbientId,
    ChainTerm,
    EmptyChain,
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
    solve_membership,
    span,
    union_contains,
    validate_axioms,
    zero_subspace,
    zero_vector,
)
from multispace import core as core_module
from multispace.oracle import _chain_value, _component_sets
from conftest import (
    brute_axiom_counts,
    brute_inclusion_exclusion,
    group_semantics_cases,
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
    def test_resumed_elimination_matches_restart_loop(self, p):
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

    def test_one_chain_search_per_basis(self, monkeypatch):
        searches = []

        def counting(search_class):
            class CountingSearch(search_class):
                def __init__(self, *args):
                    searches.append(len(args[-1]))
                    super().__init__(*args)
            return CountingSearch

        def restart(space, vectors):
            raise AssertionError("greedy_basis restarted its dependence test")

        for name in ("_ChainSearch", "_RankSearch"):
            monkeypatch.setattr(core_module, name, counting(getattr(core_module, name)))
        monkeypatch.setattr(core_module, "linearly_dependent", restart)
        rng = random.Random(61)
        for policy in (CLOSED, TOTAL):
            several_removals = 0
            for _ in range(40):
                m = random_one_ambient_instance(rng, policy, max_dim=3, max_components=4)
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
        # one rank per operation group: no alpha*a + b is ever formed
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

        def no_step(*args):
            raise AssertionError("the criterion formed a chain step")

        monkeypatch.setattr(core_module, "_add", no_step)
        monkeypatch.setattr(core_module, "_scale", no_step)
        assert [is_multi_subspace(c, p) for c, p in cases] == expected


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
