"""Shared helpers for building random fixtures."""

from __future__ import annotations

import random
from itertools import combinations

from multispace import (
    AmbientId,
    FpMatrix,
    MultiVectorSpace,
    OperationPolicy,
    Subspace,
    TaggedVector,
    brute_intersection,
    component_basis_vectors,
    rref,
    span,
)


def random_subspace(rng: random.Random, ambient: AmbientId, max_gens: int | None = None) -> Subspace:
    g = rng.randint(0, ambient.n if max_gens is None else max_gens)
    entries = tuple(rng.randrange(ambient.p) for _ in range(g * ambient.n))
    return span(ambient, FpMatrix(ambient.p, g, ambient.n, entries))


def zassenhaus(s1: Subspace, s2: Subspace) -> tuple[Subspace, Subspace]:
    """Reference sum and intersection from Zassenhaus's stacked reduction.

    Reducing [A|A; B|0] leaves sum rows (nonzero left block) and intersection
    rows (zero left block, the meet in the right block).  Each block set is in
    reduced echelon form, because its pivots are pivots of the stacked
    reduction, cleared in every other row; the public `Subspace(...)`
    constructor re-checks that here.
    """
    n, p = s1.ambient.n, s1.ambient.p
    stacked = [row + row for row in s1.rows()] + [row + (0,) * n for row in s2.rows()]
    reduced = rref(FpMatrix.from_rows(p, stacked, cols=2 * n))
    sum_rows: list[tuple[int, ...]] = []
    inter_rows: list[tuple[int, ...]] = []
    for i in range(reduced.rank):
        row = reduced.matrix.row(i)
        if any(row[:n]):
            sum_rows.append(row[:n])
        else:
            inter_rows.append(row[n:])
    return (
        Subspace(s1.ambient, FpMatrix.from_rows(p, sum_rows, cols=n)),
        Subspace(s1.ambient, FpMatrix.from_rows(p, inter_rows, cols=n)),
    )


def random_one_ambient_instance(
    rng: random.Random,
    policy: OperationPolicy,
    primes=(2, 3),
    max_dim: int = 4,
    max_components: int = 3,
    label: str = "A",
) -> MultiVectorSpace:
    ambient = AmbientId(label, rng.choice(primes), rng.randint(1, max_dim))
    k = rng.randint(1, max_components)
    components = [random_subspace(rng, ambient) for _ in range(k)]
    while all(c.dim == 0 for c in components):
        components[0] = random_subspace(rng, ambient)
    return MultiVectorSpace(tuple(components), policy)


def union_elements(space: MultiVectorSpace, cap: int = 729) -> set[TaggedVector]:
    out: set[TaggedVector] = set()
    for comp in space.components:
        out.update(TaggedVector(comp.ambient, v) for v in comp.enumerate(cap))
    return out


def line_space(ambient: AmbientId, *rows: tuple[int, ...]) -> Subspace:
    return span(ambient, FpMatrix.from_rows(ambient.p, rows, cols=ambient.n))


def three_lines_gf2() -> MultiVectorSpace:
    ambient = AmbientId("A", 2, 2)
    return MultiVectorSpace(
        (
            line_space(ambient, (1, 0)),
            line_space(ambient, (0, 1)),
            line_space(ambient, (1, 1)),
        ),
        OperationPolicy.TOTAL,
    )


def brute_axiom_counts(space: MultiVectorSpace) -> tuple[int, int, int]:
    """(closure, associativity, distributivity) check counts by enumeration.

    Walks every scalar multiple and sum inside each component, every triple
    of one ambient's union whose two groupings both exist under the policy,
    and every (k1, k2, a) with a in the union, asserting each axiom as it
    counts it.
    """
    closed = space.policy is OperationPolicy.CLOSED
    comp_sets = [(c.ambient, set(c.enumerate(729))) for c in space.components]

    closure = 0
    for ambient, elems in comp_sets:
        p = ambient.p
        for u in elems:
            for alpha in range(p):
                assert tuple((alpha * x) % p for x in u) in elems
                closure += 1
            for v in elems:
                assert tuple((x + y) % p for x, y in zip(u, v)) in elems
                closure += 1

    assoc = dist = 0
    for ambient in space.ambients():
        p = ambient.p
        union = [v.coords for v in union_elements(space) if v.ambient == ambient]

        def add(x, y):
            return tuple((a + b) % p for a, b in zip(x, y))

        def exists(x, y):
            return not closed or any(
                amb == ambient and x in s and y in s for amb, s in comp_sets
            )

        for a in union:
            for b in union:
                if not exists(a, b):
                    continue
                ab = add(a, b)
                for c in union:
                    if exists(ab, c) and exists(b, c) and exists(a, add(b, c)):
                        assert add(ab, c) == add(a, add(b, c))
                        assoc += 1
            for k1 in range(p):
                for k2 in range(p):
                    lhs = tuple((((k1 + k2) % p) * x) % p for x in a)
                    k1a = tuple((k1 * x) % p for x in a)
                    k2a = tuple((k2 * x) % p for x in a)
                    assert lhs == add(k1a, k2a)
                    dist += 1
    return closure, assoc, dist


def replay_greedy(space: MultiVectorSpace, dependent, removal_order=None) -> list[TaggedVector]:
    """The greedy procedure restarted from scratch after every removal.

    `dependent(vectors)` is its dependence test, returning (dependent,
    witness).  While the alive list is dependent, the participant of the
    witness that comes first (smallest (label, p, n, coords, position) by
    default, else earliest in `removal_order`) is removed.
    """
    delta = component_basis_vectors(space)
    if removal_order is None:
        def rank(pos):
            v = delta[pos]
            return (v.ambient.label, v.ambient.p, v.ambient.n, v.coords, pos)
    else:
        rank = list(removal_order).index
    alive = list(range(len(delta)))
    while alive:
        found, witness = dependent([delta[i] for i in alive])
        if not found:
            break
        alive.remove(min((alive[k] for k, c in enumerate(witness) if c), key=rank))
    return [delta[i] for i in alive]


def brute_inclusion_exclusion(space: MultiVectorSpace) -> int:
    """The alternating sum with every meet taken as a set of enumerated vectors."""
    comps = space.components
    elements = [brute_intersection(c, c) for c in comps]
    total = 0
    for size in range(1, len(comps) + 1):
        for chosen in combinations(range(len(comps)), size):
            if len({comps[j].ambient for j in chosen}) > 1:
                continue
            meet = set.intersection(*(elements[j] for j in chosen))
            p = comps[chosen[0]].ambient.p
            dim = 0
            while p**dim < len(meet):
                dim += 1
            total += dim if size % 2 else -dim
    return total
