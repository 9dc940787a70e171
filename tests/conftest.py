"""Shared helpers for building random fixtures."""

from __future__ import annotations

import random
from itertools import combinations

from multispace import (
    AmbientId,
    FpMatrix,
    MultiVectorSpace,
    OperationPolicy,
    RrefResult,
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


def reference_rref(m: FpMatrix) -> RrefResult:
    """Reference reduced row echelon form over GF(p), on lists of residues.

    Each row operation reduces every entry mod p.  `rref`, which packs rows
    into ints and defers the reduction, must give the same result, as RREF
    is unique.  The result goes through the checked `FpMatrix` constructor.
    """
    p = m.p
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for col in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # rows r.. are zero left of col (earlier pivots cleared them, and the
        # skipped columns had no entry there), so only columns col.. change
        inv = pow(rows[r][col], -1, p)
        lead = [(x * inv) % p for x in rows[r][col:]]
        rows[r][col:] = lead
        for i in range(m.rows):
            f = rows[i][col]
            if i != r and f:
                rows[i][col:] = [(x - f * y) % p for x, y in zip(rows[i][col:], lead)]
        pivots.append(col)
        r += 1
        if r == m.rows:
            break
    flat = tuple(x for row in rows for x in row)
    return RrefResult(FpMatrix(p, m.rows, m.cols, flat), r, tuple(pivots))


class RankMembership:
    """Which components of one ambient hold a coordinate tuple, by rank.

    Bit i of `mask(coords)` is set when the i-th component of the ambient
    holds the vector: stacking it under the component's basis rows leaves
    the rank of `reference_rref` unchanged.  Masks are cached by coordinates.
    """

    def __init__(self, space: MultiVectorSpace, ambient: AmbientId):
        self.ambient = ambient
        self._bases = [c.rows() for c in space.components if c.ambient == ambient]
        self._masks: dict[tuple[int, ...], int] = {}

    def mask(self, coords: tuple[int, ...]) -> int:
        bits = self._masks.get(coords)
        if bits is None:
            p, n = self.ambient.p, self.ambient.n
            bits = 0
            for i, rows in enumerate(self._bases):
                stacked = FpMatrix.from_rows(p, [*rows, coords], cols=n)
                if reference_rref(stacked).rank == len(rows):
                    bits |= 1 << i
            self._masks[coords] = bits
        return bits


def closed_chain_value(
    space: MultiVectorSpace, coeffs: tuple[int, ...], vectors: list[TaggedVector]
) -> tuple[int, ...] | None:
    """The CLOSED chain sum of c_i*v_i, left to right, as a coordinate tuple,
    or None at its first undefined step.

    A scalar multiple c*v exists when some component holds v, and a sum
    when some component holds both operands; no operation crosses ambients.
    Membership is by rank (`RankMembership`), so nothing here shares code
    with the library's chain evaluation.
    """
    ambient = vectors[0].ambient
    if any(v.ambient != ambient for v in vectors):
        return None
    p = ambient.p
    holds = RankMembership(space, ambient).mask
    acc = None
    for c, v in zip(coeffs, vectors, strict=True):
        if not holds(v.coords):
            return None
        value = tuple(c * x % p for x in v.coords)
        if acc is not None:
            if not holds(acc) & holds(value):
                return None
            value = tuple((a + b) % p for a, b in zip(acc, value))
        acc = value
    return acc


class ReferenceChainSearch:
    """Reference CLOSED chain-state search, on coordinate tuples.

    The same walk as the library's search: depth first, coefficients tried
    in order 0..p-1, a state (list index, accumulator, seen) that held no
    witness is added to `failed` and not entered again, and `failed` is
    kept across calls.  Each state's children come from a generator and
    each accumulator is a tuple reduced mod p entry by entry.  Membership is
    by rank (`RankMembership`), and there is no step cap.  The library's
    search, whose accumulators are packed ints, must return the same
    witnesses and keep the same failed states.
    """

    def __init__(self, space: MultiVectorSpace, vectors: list[TaggedVector]):
        ambient = vectors[0].ambient
        p = ambient.p
        self._ambient = ambient
        self._holds = RankMembership(space, ambient).mask
        self._masks = [self._holds(v.coords) for v in vectors]
        self._scaled = [[tuple(c * x % p for x in v.coords) for c in range(p)] for v in vectors]
        self.failed: set[tuple[int, tuple[int, ...], bool]] = set()

    def first_witness(self, alive) -> tuple[int, ...] | None:
        masks, scaled, failed, holds = self._masks, self._scaled, self.failed, self._holds
        if not all(masks[k] for k in alive):
            return None
        p, end = self._ambient.p, len(masks)
        following = dict(zip(alive, [*alive[1:], end]))

        def children(k, acc, seen):
            after = following[k]
            yield 0, (after, acc, seen)
            if holds(acc) & masks[k]:
                row = scaled[k]
                for c in range(1, p):
                    yield c, (after, tuple((a + b) % p for a, b in zip(acc, row[c])), True)

        root = (alive[0], (0,) * self._ambient.n, False)
        coeffs = [0] * end
        path = [(root, children(*root))]
        while path:
            state, kids = path[-1]
            step = next(kids, None)
            if step is None:
                failed.add(state)
                path.pop()
                continue
            coeffs[state[0]], nxt = step
            if nxt[0] == end:
                if nxt[2] and not any(nxt[1]):
                    return tuple(coeffs[k] for k in alive)
            elif nxt not in failed:
                path.append((nxt, children(*nxt)))
        return None


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


def kruskal_basis(space: MultiVectorSpace, removal_order=None) -> list[TaggedVector]:
    """The basis of a one-ambient TOTAL instance greatest by the removal key.

    Visits the stacked positions from the last one the greedy procedure would
    remove to the first (largest (coords, position) first by default, else
    latest in `removal_order`), keeps a vector unless it lies in the span of
    those kept, enumerated as a set of coordinate tuples, and returns the
    kept vectors in position order.
    """
    delta = component_basis_vectors(space)
    if removal_order is None:
        def rank(pos):
            return (delta[pos].coords, pos)
    else:
        rank = list(removal_order).index
    ambient = space.components[0].ambient
    p = ambient.p
    spanned = {(0,) * ambient.n}
    kept = []
    for pos in sorted(range(len(delta)), key=rank, reverse=True):
        v = delta[pos].coords
        if v not in spanned:
            kept.append(pos)
            spanned = {
                tuple((a + c * b) % p for a, b in zip(u, v)) for u in spanned for c in range(p)
            }
    return [delta[i] for i in sorted(kept)]


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


def group_semantics_cases() -> list[tuple[str, object, MultiVectorSpace, bool]]:
    """(name, candidate, parent, verdict) for the subspace criterion.

    alpha*a + b exists when a and b share an operation group of the parent:
    an ambient under TOTAL, a component holding both under CLOSED.  So the
    union of two lines is closed under CLOSED but not under TOTAL, and three
    lines of GF(2)^2 are closed under TOTAL because their union is the plane.
    """
    a, b = AmbientId("A", 2, 2), AmbientId("B", 3, 2)
    total, closed = OperationPolicy.TOTAL, OperationPolicy.CLOSED
    e1, e2, e12 = line_space(a, (1, 0)), line_space(a, (0, 1)), line_space(a, (1, 1))
    plane_a = line_space(a, (1, 0), (0, 1))
    line_b, plane_b = line_space(b, (1, 2)), line_space(b, (1, 0), (0, 1))

    def space(policy, *components):
        return MultiVectorSpace(components, policy)

    return [
        ("two lines, CLOSED", space(closed, e1, e2), space(closed, e1, e2), True),
        ("two lines, TOTAL", space(total, e1, e2), space(total, e1, e2), False),
        ("two lines in a plane, CLOSED", space(closed, e1, e2), space(closed, plane_a), False),
        ("three lines fill the plane", space(total, e1, e2, e12), space(total, plane_a), True),
        ("three lines in three lines", space(total, e1, e2, e12), space(total, e1, e2, e12), True),
        ("two ambients, TOTAL", space(total, e1, line_b), space(total, e1, e2, plane_b), True),
        (
            "two ambients, open slice, TOTAL",
            space(total, e1, line_b, e2),
            space(total, e1, e2, plane_b),
            False,
        ),
        (
            "two ambients, CLOSED",
            space(closed, e1, line_b, e2),
            space(closed, e1, e2, plane_b),
            True,
        ),
        ("nested components", space(total, e12, plane_a, e12), space(total, plane_a), True),
        (
            "foreign ambient",
            {TaggedVector(a, (0, 0)), TaggedVector(AmbientId("C", 2, 2), (0, 0))},
            space(total, plane_a),
            False,
        ),
        (
            "same label, other prime",
            {TaggedVector(AmbientId("A", 3, 2), (0, 0))},
            space(closed, plane_a),
            False,
        ),
        ("empty set, TOTAL", set(), space(total, e1), True),
        ("empty set, CLOSED", set(), space(closed, e1, line_b), True),
    ]
