"""Unions of subspaces with partial operations: chains, bases, dimensions.

A multi-vector space is an ordered list of component subspaces together with
an operation policy that pins down when a combination between union elements
exists:

* TOTAL: scalar multiples and additions are the ambient-induced operations,
  defined whenever the operands share an ambient space.
* CLOSED: x + y is defined only if some single component contains both
  operands, and a scalar multiple only if some component contains the vector.

Under either policy an operation across distinct ambients never exists.
Combination chains evaluate strictly left to right and die at the first
undefined step; a list of vectors is dependent exactly when some not-all-zero
coefficient tuple yields a defined chain equal to the zero vector of its own
ambient.

Both policies state one rule: alpha*a + b exists exactly when a and b share an
operation group, their ambient under TOTAL and a component under CLOSED.
`_Membership` says which groups hold a vector, by the components' parity
checks read off their reduced bases, so no component is enumerated for it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatch,
    EmptyChain,
    EnumerationTooLarge,
    PolicyMismatch,
    SearchTooLarge,
    TooManyComponents,
)
from .fp import FpScalar, _check_int, _residues, _trusted
from .subspace import DEFAULT_ENUMERATION_CAP, AmbientId, Subspace, _parity_checks, span

DEFAULT_SUBSET_CAP = 12

# the CLOSED dependence search refuses lists that could take more steps
_SEARCH_STEP_CAP = 2 * 10**6


class OperationPolicy(Enum):
    TOTAL = "TOTAL"
    CLOSED = "CLOSED"


@dataclass(frozen=True)
class TaggedVector:
    """A coordinate vector together with the ambient space it lives in."""

    ambient: AmbientId
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.coords) is not tuple:
            raise ValueError(f"coords must be a tuple, got {type(self.coords).__name__}")
        if len(self.coords) != self.ambient.n:
            raise ValueError(
                f"vector of length {len(self.coords)} in ambient of dimension {self.ambient.n}"
            )
        if not _residues(self.coords, self.ambient.p):
            raise ValueError(f"coords must be int residues in [0, {self.ambient.p})")

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class ChainTerm:
    """One scalar-times-vector term of a combination chain."""

    scalar: FpScalar
    vector: TaggedVector

    def __post_init__(self) -> None:
        if self.scalar.p != self.vector.ambient.p:
            raise ValueError(
                f"scalar field GF({self.scalar.p}) does not match "
                f"ambient prime {self.vector.ambient.p}"
            )


@dataclass(frozen=True)
class MultiVectorSpace:
    """An ordered union of component subspaces plus an operation policy."""

    components: tuple[Subspace, ...]
    policy: OperationPolicy

    def __post_init__(self) -> None:
        if not isinstance(self.policy, OperationPolicy):
            raise ValueError(f"policy must be an OperationPolicy, got {self.policy!r}")
        if type(self.components) is not tuple or not all(
            isinstance(c, Subspace) for c in self.components
        ):
            raise ValueError("components must be a tuple of Subspace")
        by_label: dict[str, AmbientId] = {}
        for comp in self.components:
            seen = by_label.setdefault(comp.ambient.label, comp.ambient)
            if seen != comp.ambient:
                raise ValueError(
                    f"ambient label {comp.ambient.label!r} reused with different prime or dimension"
                )

    def ambients(self) -> list[AmbientId]:
        """Distinct ambients in first-use order."""
        out: list[AmbientId] = []
        for comp in self.components:
            if comp.ambient not in out:
                out.append(comp.ambient)
        return out

    def components_in(self, ambient: AmbientId) -> list[Subspace]:
        return [c for c in self.components if c.ambient == ambient]


def zero_vector(ambient: AmbientId) -> TaggedVector:
    return TaggedVector(ambient, (0,) * ambient.n)


def _scale(alpha: int, v: TaggedVector) -> TaggedVector:
    if alpha == 1:
        return v
    p = v.ambient.p
    return TaggedVector(v.ambient, tuple((alpha * x) % p for x in v.coords))


def _add(x: TaggedVector, y: TaggedVector) -> TaggedVector:
    p = x.ambient.p
    return TaggedVector(x.ambient, tuple((a + b) % p for a, b in zip(x.coords, y.coords)))


class _Membership:
    """Which components and operation groups of one instance hold a vector.

    Each component's checks are read off its reduced basis
    (`subspace._parity_checks`) as (column, [(pivot, nonzero factor), ...]).
    Bit i of a vector's mask is set when component i passes every check; the
    checks run one at a time and stop at the first that fails.  Masks are
    cached by coordinates within each ambient.

    `groups` is the bitmask of the operation groups holding a vector: its mask
    under CLOSED, where the groups are the components, and under TOTAL one bit
    per ambient, given when the ambient is first seen, so that an ambient with
    no component is a group too.  A scalar multiple of v exists when
    groups(v) is nonzero, and a + b exists when groups(a) & groups(b) is.
    """

    def __init__(self, space: MultiVectorSpace):
        self._total = space.policy is OperationPolicy.TOTAL
        self._ambient_bits: dict[AmbientId, int] = {}
        self._checks: dict[AmbientId, list[tuple[int, list]]] = {}
        for i, comp in enumerate(space.components):
            free, pivot_rows = _parity_checks(comp)
            checks = [
                (j, [(piv, row[t]) for piv, row in pivot_rows if row[t]])
                for t, j in enumerate(free)
            ]
            self._checks.setdefault(comp.ambient, []).append((1 << i, checks))
        self._masks: dict[AmbientId, dict[tuple[int, ...], int]] = {a: {} for a in self._checks}

    def mask_at(self, ambient: AmbientId, coords: tuple[int, ...]) -> int:
        """The mask of the vector with these coordinates in `ambient`."""
        cache = self._masks.get(ambient)
        if cache is None:
            return 0
        bits = cache.get(coords)
        if bits is None:
            p = ambient.p
            bits = 0
            for bit, checks in self._checks[ambient]:
                for j, terms in checks:
                    x = coords[j]
                    for piv, f in terms:
                        x -= coords[piv] * f
                    if x % p:
                        break
                else:
                    bits |= bit
            cache[coords] = bits
        return bits

    def mask(self, v: TaggedVector) -> int:
        return self.mask_at(v.ambient, v.coords)

    def groups(self, v: TaggedVector) -> int:
        """The bitmask of the operation groups holding v."""
        if self._total:
            return self._ambient_bits.setdefault(v.ambient, 1 << len(self._ambient_bits))
        return self.mask_at(v.ambient, v.coords)


def union_contains(space: MultiVectorSpace, v: TaggedVector) -> bool:
    """Whether some component with a matching ambient contains v, by the
    components' parity checks (`_Membership`)."""
    return _Membership(space).mask(v) != 0


def evaluate_chain(
    space: MultiVectorSpace, terms: Sequence[ChainTerm]
) -> TaggedVector | None:
    """Left-to-right value of a combination chain, or None once a step is undefined."""
    terms = list(terms)
    if not terms:
        raise EmptyChain("a chain needs at least one term")
    idx = _Membership(space)
    acc: TaggedVector | None = None
    for term in terms:
        if not idx.groups(term.vector):
            return None
        value = _scale(term.scalar.value, term.vector)
        if acc is not None:
            if not idx.groups(acc) & idx.groups(value):
                return None
            value = _add(acc, value)
        acc = value
    return acc


class _RankSearch:
    """Forward elimination over one ambient, resumable across removals.

    Each kept row is reduced against the rows kept before it and scaled to a
    leading 1, together with its combination of the vectors pushed so far,
    and is tagged with the list index of its vector.  Pushes stop at the
    first vector that reduces to zero, so the kept rows depend only on the
    list indices behind them: a call keeps the rows of the longest common
    prefix of those indices and `alive`, and pushes on from there.
    """

    def __init__(self, vectors: list[TaggedVector]):
        self._vectors = vectors
        self._p = vectors[0].ambient.p
        self._rows: list[tuple[int, list[int], list[int]]] = []
        self._kept: list[int] = []

    def first_witness(self, alive: Sequence[int]) -> tuple[int, ...] | None:
        """The combination of the first vector at the list indices `alive`
        (increasing) that reduces to zero against the ones before it, with
        coefficient 1 on that vector and 0 after it, or None."""
        rows, kept, vectors, p = self._rows, self._kept, self._vectors, self._p
        k = 0
        for i, j in zip(kept, alive):
            if i != j:
                break
            k += 1
        del rows[k:], kept[k:]
        for i in alive[k:]:
            row = list(vectors[i].coords)
            combo = [0] * len(rows) + [1]
            for pivot, prow, pcombo in rows:
                f = row[pivot]
                if f:
                    row = [(x - f * y) % p for x, y in zip(row, prow)]
                    combo[: len(pcombo)] = [(x - f * y) % p for x, y in zip(combo, pcombo)]
            lead = next((t for t, x in enumerate(row) if x), None)
            if lead is None:
                return tuple(combo) + (0,) * (len(alive) - len(combo))
            inv = pow(row[lead], -1, p)
            rows.append((lead, [(x * inv) % p for x in row], [(x * inv) % p for x in combo]))
            kept.append(i)
        return None


class _ChainSearch:
    """Lexicographic depth-first search over CLOSED chain states of a list.

    Every defined prefix lies in the union, so what a prefix allows next
    depends only on its state (next vector, accumulator, whether a nonzero
    coefficient came before).  Coefficients are tried in order 0..p-1 and a
    state whose subtree held no witness is not entered again, so the first
    witness found is the lexicographically first tuple.  The walk keeps its
    own stack, as a list may be far longer than the recursion limit.

    One search serves every sublist of its list: a chain over a sublist is a
    chain over the list with coefficient 0 on the left-out vectors, which
    leaves the accumulator unchanged and is defined for union members.  So a
    failed state, keyed by the list index of its next vector, stays failed
    when vectors are left out, and the failed set is kept across calls.
    """

    def __init__(self, space: MultiVectorSpace, vectors: list[TaggedVector]):
        ambient = vectors[0].ambient
        p, m = ambient.p, len(vectors)
        union_bound = sum(p**c.dim for c in space.components_in(ambient))
        steps = p * sum(min(p**i, union_bound) for i in range(m))
        if steps > _SEARCH_STEP_CAP:
            raise SearchTooLarge(f"{steps} chain-state steps exceed the cap of {_SEARCH_STEP_CAP}")
        self._ambient = ambient
        self._idx = _Membership(space)
        # c*v lies in the components holding v for c != 0, and 0*v in all of them
        self._masks = [self._idx.mask(v) for v in vectors]
        self._scaled = [[tuple((c * x) % p for x in v.coords) for c in range(p)] for v in vectors]
        self._failed: set[tuple[int, tuple[int, ...], bool]] = set()

    def first_witness(self, alive: Sequence[int]) -> tuple[int, ...] | None:
        """The lexicographically first witness over the vectors at the list
        indices `alive` (increasing), one coefficient each, or None."""
        masks, scaled, failed = self._masks, self._scaled, self._failed
        if not all(masks[k] for k in alive):
            return None
        ambient, mask_at = self._ambient, self._idx.mask_at
        p, end = ambient.p, len(masks)
        following = dict(zip(alive, [*alive[1:], end]))

        def children(k: int, acc: tuple[int, ...], seen: bool):
            after = following[k]
            yield 0, (after, acc, seen)
            if mask_at(ambient, acc) & masks[k]:
                row = scaled[k]
                for c in range(1, p):
                    yield c, (after, tuple((a + b) % p for a, b in zip(acc, row[c])), True)

        root = (alive[0], (0,) * ambient.n, False)
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


def _search(
    space: MultiVectorSpace, vectors: list[TaggedVector]
) -> _RankSearch | _ChainSearch | None:
    """The dependence search over a list, or None when the list is
    independent outright: empty, or over several ambients, where every
    full-length chain hits an undefined cross-ambient addition.  Under TOTAL
    policy every combination within one ambient is defined, so dependence is
    a rank test (`_RankSearch`); under CLOSED it is a chain-state search
    (`_ChainSearch`)."""
    if not vectors or len({v.ambient for v in vectors}) > 1:
        return None
    if space.policy is OperationPolicy.TOTAL:
        return _RankSearch(vectors)
    return _ChainSearch(space, vectors)


def linearly_dependent(
    space: MultiVectorSpace, vectors: Sequence[TaggedVector]
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether some not-all-zero coefficient tuple gives a defined zero chain.

    Both policies go through `_search`.  A list spanning several ambients is
    independent outright.  Under TOTAL policy the witness is the combination
    of the first vector that reduces to zero against the ones before it, with
    coefficient 1 on that vector.  Under CLOSED it is the lexicographically
    first tuple over the given vector order; the search raises SearchTooLarge
    when its step bound p * sum_{i<m} min(p^i, S) exceeds 2*10^6, for m
    vectors over GF(p) whose ambient's components hold S = sum p^dim.
    """
    vectors = list(vectors)
    search = _search(space, vectors)
    witness = None if search is None else search.first_witness(range(len(vectors)))
    return witness is not None, witness


def linear_span(
    space: MultiVectorSpace,
    generators: Iterable[TaggedVector],
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> set[TaggedVector]:
    """All values of defined chains over the generators that lie in the union.

    Computed as a fixed-point closure: the reachable set grows by one chain
    step (add a scaled generator) until nothing new appears, then gets
    filtered to union members.  Intermediate values may leave the union under
    TOTAL policy and still serve as chain prefixes.
    """
    gens = list(generators)
    if not gens:
        return set()
    idx = _Membership(space)
    # each term with its groups: a sum s + t exists when they share a group
    terms: dict[TaggedVector, int] = {}
    for g in gens:
        if not idx.groups(g):
            continue
        for alpha in range(g.ambient.p):
            t = _scale(alpha, g)
            if t not in terms:
                terms[t] = idx.groups(t)
    reachable: set[TaggedVector] = set(terms)
    frontier = list(terms)
    while frontier:
        if len(reachable) > enumeration_cap:
            raise EnumerationTooLarge(
                f"closure exceeds the enumeration cap of {enumeration_cap}"
            )
        fresh: list[TaggedVector] = []
        for s in frontier:
            groups = idx.groups(s)
            for t, t_groups in terms.items():
                if groups & t_groups:
                    u = _add(s, t)
                    if u not in reachable:
                        reachable.add(u)
                        fresh.append(u)
        frontier = fresh
    if len(reachable) > enumeration_cap:
        raise EnumerationTooLarge(f"closure exceeds the enumeration cap of {enumeration_cap}")
    return {v for v in reachable if idx.mask(v)}


def component_basis_vectors(space: MultiVectorSpace) -> list[TaggedVector]:
    """Canonical basis rows of every component, in component then row order."""
    return [
        TaggedVector(comp.ambient, row) for comp in space.components for row in comp.rows()
    ]


def greedy_basis(
    space: MultiVectorSpace,
    removal_order: Sequence[int] | None = None,
) -> list[TaggedVector]:
    """Shrink the stacked component bases to an independent set.

    While the surviving list is dependent, one vector carrying a nonzero
    witness coefficient is removed: by default the lexicographically smallest
    such vector (earliest position on ties), otherwise the one ranked first
    by `removal_order`, a permutation of the initial stacked positions.

    Under TOTAL policy the result also spans the union.  Under CLOSED it need
    not: a removed vector can leave union elements that no defined chain
    over the survivors reaches.

    A stacked list over several ambients is independent under either policy
    and is returned as it is.  With one ambient, one search from `_search`
    serves every removal and finds the witness a restart would find: the
    `_RankSearch` keeps the rows of the vectors before the victim, and the
    `_ChainSearch` keeps its failed chain states.  The CLOSED step bound is
    checked once, on the stacked list, and raises SearchTooLarge as
    `linearly_dependent` does on that list.
    """
    delta = component_basis_vectors(space)
    if removal_order is None:
        # a victim comes from a search over one ambient, so coordinates order it
        def victim_key(pos: int) -> tuple:
            return (delta[pos].coords, pos)
    else:
        if sorted(removal_order) != list(range(len(delta))):
            raise ValueError(
                f"removal_order must be a permutation of range({len(delta)})"
            )
        victim_key = {pos: rank for rank, pos in enumerate(removal_order)}.__getitem__
    alive = list(range(len(delta)))
    search = _search(space, delta)
    if search is not None:
        while (witness := search.first_witness(alive)) is not None:
            alive.remove(min((k for k, c in zip(alive, witness) if c), key=victim_key))
    return [delta[i] for i in alive]


def dim_greedy(space: MultiVectorSpace) -> int:
    """Cardinality of the greedy basis under the default removal order."""
    return len(greedy_basis(space))


@dataclass(frozen=True)
class InvarianceReport:
    """Basis cardinalities obtained under randomized removal orders."""

    trials: int
    seed: int
    cardinalities: tuple[int, ...]

    @property
    def all_agree(self) -> bool:
        return len(set(self.cardinalities)) <= 1


def basis_invariance_check(
    space: MultiVectorSpace, trials: int, seed: int
) -> InvarianceReport:
    """Run the greedy procedure under random removal orders and compare sizes."""
    _check_int("trials", trials, 0)
    rng = random.Random(seed)
    m = len(component_basis_vectors(space))
    cards = []
    for _ in range(trials):
        order = rng.sample(range(m), m)
        cards.append(len(greedy_basis(space, order)))
    return InvarianceReport(trials=trials, seed=seed, cardinalities=tuple(cards))


def is_multi_subspace(
    candidate: MultiVectorSpace | Iterable[TaggedVector],
    parent: MultiVectorSpace,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> bool:
    """Closure criterion: every defined alpha*a + b over the candidate stays inside.

    The candidate may be an instance (its union is enumerated under the cap,
    the only work the cap bounds) or an explicit set of tagged vectors.
    alpha*a + b exists exactly when a and b share an operation group of the
    parent: an ambient under TOTAL, a component under CLOSED.  A group is a
    subspace, so the candidate is closed exactly when it lies in the parent
    union and each nonempty slice S of it by group is a subspace, that is
    |S| = p^rank(S): one rank per slice, no pairwise loop.
    """
    if isinstance(candidate, MultiVectorSpace):
        candidate = [
            TaggedVector(comp.ambient, v)
            for comp in candidate.components
            for v in comp.enumerate(enumeration_cap)
        ]
    idx = _Membership(parent)
    slices: dict[int, list[TaggedVector]] = {}
    for v in set(candidate):
        if not idx.mask(v):
            return False
        groups = idx.groups(v)
        for i in range(groups.bit_length()):
            if groups >> i & 1:
                slices.setdefault(i, []).append(v)
    for members in slices.values():
        amb = members[0].ambient
        gens = _trusted(amb.p, len(members), amb.n, tuple(x for v in members for x in v.coords))
        if amb.p ** span(amb, gens).dim != len(members):
            return False
    return True


def intersect_multispaces(
    first: MultiVectorSpace, second: MultiVectorSpace
) -> MultiVectorSpace:
    """Pairwise component intersections; the union becomes the set intersection."""
    if first.policy is not second.policy:
        raise PolicyMismatch(f"{first.policy.value} vs {second.policy.value}")
    out: list[Subspace] = []
    for s in first.components:
        for t in second.components:
            if s.ambient == t.ambient:
                meet = s.intersect(t)
                if meet not in out:
                    out.append(meet)
    return MultiVectorSpace(tuple(out), first.policy)


def dim_inclusion_exclusion(space: MultiVectorSpace) -> int:
    """Alternating sum of intersection dimensions over all component subsets.

    A subset whose components span several ambients has empty intersection
    and contributes 0.  Meets are computed over the subset lattice: the meet
    of a subset is the meet of the subset without its highest component,
    intersected with that component, so each subset costs at most one
    intersection.  A zero meet and a mixed-ambient subset pass on to every
    superset without one.  More than DEFAULT_SUBSET_CAP (12) components raise
    TooManyComponents.
    """
    components = space.components
    k = len(components)
    if k > DEFAULT_SUBSET_CAP:
        raise TooManyComponents(f"{k} components exceed the subset cap of {DEFAULT_SUBSET_CAP}")
    # meets[mask] is the meet of the components in mask, None across ambients
    meets: list[Subspace | None] = [None] * (1 << k)
    total = 0
    for mask in range(1, 1 << k):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        comp = components[top]
        if not rest:
            meet = comp
        else:
            below = meets[rest]
            if below is None or below.ambient != comp.ambient:
                meet = None
            elif below.dim == 0:
                meet = below
            else:
                meet = below.intersect(comp)
        meets[mask] = meet
        if meet is not None:
            total += meet.dim if mask.bit_count() % 2 else -meet.dim
    return total


@dataclass(frozen=True)
class AdditiveReport:
    """Both sides of the two-instance dimension sum rule."""

    union_dim: int
    first_dim: int
    second_dim: int
    intersection_dim: int

    @property
    def additive_value(self) -> int:
        return self.first_dim + self.second_dim - self.intersection_dim

    @property
    def agree(self) -> bool:
        return self.union_dim == self.additive_value


def additive_formula_check(
    first: MultiVectorSpace, second: MultiVectorSpace
) -> AdditiveReport:
    """Compare dim(union) against dim1 + dim2 - dim(intersection)."""
    if first.policy is not second.policy:
        raise PolicyMismatch(f"{first.policy.value} vs {second.policy.value}")
    combined = MultiVectorSpace(first.components + second.components, first.policy)
    meet = intersect_multispaces(first, second)
    return AdditiveReport(
        union_dim=dim_greedy(combined),
        first_dim=dim_greedy(first),
        second_dim=dim_greedy(second),
        intersection_dim=dim_greedy(meet),
    )


_SCALAR_AXIOM_NOTE = (
    "scalar axiom checked in its distributive reading (k1+k2)*a = k1*a + k2*a; "
    "the reading that adds a scalar to a vector is not well-typed for "
    "coordinate vectors and is recorded here instead of being checked"
)


@dataclass(frozen=True)
class ValidationReport:
    """How many instances of each structural axiom the enumerated union has."""

    notes: tuple[str, ...]
    closure_checks: int
    associativity_checks: int
    distributivity_checks: int


def validate_axioms(
    space: MultiVectorSpace, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> ValidationReport:
    """Count component closure, cross-associativity where both groupings
    exist, and scalar distributivity over the enumerated union.

    Every component is a row space over GF(p), so each axiom holds on every
    instance it has and only the counts carry information.  A component C
    has |C|*p scalar multiples and |C|^2 sums, with |C| = p^dim; an ambient's
    union U has |U|*p^2 distributivity instances, and under TOTAL every triple
    of U has both groupings.  Components are still enumerated under the cap,
    in order, so an instance over the cap raises EnumerationTooLarge.
    """
    enumerated = [comp.enumerate(enumeration_cap) for comp in space.components]
    closure = sum(
        len(vs) * (comp.ambient.p + len(vs)) for comp, vs in zip(space.components, enumerated)
    )
    total = space.policy is OperationPolicy.TOTAL
    idx = None if total else _Membership(space)
    assoc = dist = 0
    for ambient in space.ambients():
        lists = [vs for comp, vs in zip(space.components, enumerated) if comp.ambient == ambient]
        union = set().union(*lists)
        dist += len(union) * ambient.p**2
        if total:
            assoc += len(union) ** 3
        else:
            assoc += _closed_associativity_count(idx, ambient, union)
    return ValidationReport(
        notes=(_SCALAR_AXIOM_NOTE,),
        closure_checks=closure,
        associativity_checks=assoc,
        distributivity_checks=dist,
    )


def _closed_associativity_count(idx: _Membership, ambient: AmbientId, union: set) -> int:
    """Triples (a, b, c) of one ambient's union for which both (a+b)+c and
    a+(b+c) exist under CLOSED.

    A sum exists when one component holds both operands.  With mask(v) the
    set of components holding v, a triple counts when mask(a) meets mask(b),
    mask(b) meets mask(c), mask(a+b) meets mask(c) and mask(a) meets
    mask(b+c).  For a fixed b, a enters only through the pair
    (mask(a), mask(a+b)) and c only through (mask(c), mask(c+b)), the same
    pair by commutativity, so grouping the union by that pair makes the
    count quadratic in the size of the union instead of cubic.  The masks of
    the union come from `idx`, and a sum outside the union has mask 0.
    """
    p = ambient.p
    masks = {v: idx.mask_at(ambient, v) for v in union}
    count = 0
    for b, mb in masks.items():
        groups = Counter(
            (ma, masks.get(tuple((x + y) % p for x, y in zip(a, b)), 0))
            for a, ma in masks.items()
            if ma & mb
        )
        for (ma, mab), na in groups.items():
            for (mc, mcb), nc in groups.items():
                if mab & mc and ma & mcb:
                    count += na * nc
    return count
