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
The CLOSED chain search carries those checks' values in its packed states
instead, so a state's components are read off its int (`_ChainSearch`).

As every group lies in one ambient, inside this module a vector is its
ambient and its coordinate tuple: chain steps run on the tuples, and a
`TaggedVector` is built only for a vector that a function returns.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import lshift
from typing import Iterable, Sequence

from .errors import (
    EmptyChain,
    EnumerationTooLarge,
    PolicyMismatch,
    SearchTooLarge,
    TooManyComponents,
)
from .fp import EchelonState, FpScalar, RrefResult, _check_int, _residues, _trusted, rref
from .subspace import DEFAULT_ENUMERATION_CAP, AmbientId, Subspace, _parity_checks, span

# inclusion-exclusion forms at most 2^12 - 1 = 4,095 subset meets: all of
# them for 12 components, and for more components as long as few are nonzero
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


class _Membership:
    """Which components and operation groups of one instance hold a vector.

    Each component's checks are read off its reduced basis
    (`subspace._parity_checks`) as (column, [(pivot, nonzero factor), ...]).
    Bit i of a vector's mask is set when component i passes every check; the
    checks run one at a time and stop at the first that fails.  Masks are
    cached by coordinates within each ambient.

    A vector is asked about as (ambient, coords), and each question has one
    method.  `mask` is the bitmask of the components holding the vector.
    `groups` is the bitmask of the operation groups holding it: its mask
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

    def mask(self, ambient: AmbientId, coords: tuple[int, ...]) -> int:
        """The bitmask of the components holding the vector."""
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

    def groups(self, ambient: AmbientId, coords: tuple[int, ...]) -> int:
        """The bitmask of the operation groups holding the vector."""
        if self._total:
            return self._ambient_bits.setdefault(ambient, 1 << len(self._ambient_bits))
        return self.mask(ambient, coords)


def union_contains(space: MultiVectorSpace, v: TaggedVector) -> bool:
    """Whether some component with a matching ambient contains v, by the
    components' parity checks (`_Membership`)."""
    return _Membership(space).mask(v.ambient, v.coords) != 0


def evaluate_chain(
    space: MultiVectorSpace, terms: Sequence[ChainTerm]
) -> TaggedVector | None:
    """Left-to-right value of a combination chain, or None once a step is undefined."""
    terms = list(terms)
    if not terms:
        raise EmptyChain("a chain needs at least one term")
    idx = _Membership(space)
    ambient = acc = None
    for term in terms:
        v = term.vector
        if not idx.groups(v.ambient, v.coords):
            return None
        p, alpha = v.ambient.p, term.scalar.value
        value = tuple((alpha * x) % p for x in v.coords)
        if acc is not None:
            if not idx.groups(ambient, acc) & idx.groups(v.ambient, value):
                return None
            value = tuple((a + b) % p for a, b in zip(acc, value))
        ambient, acc = v.ambient, value
    return TaggedVector(ambient, acc)


def _one_ambient(vectors: list[TaggedVector]) -> bool:
    """Whether a list can be dependent at all: it is nonempty and lies in one
    ambient.  Over several ambients every full-length chain hits an undefined
    cross-ambient addition."""
    return bool(vectors) and len({v.ambient for v in vectors}) == 1


def _column_rref(vectors: list[TaggedVector], order: Sequence[int]) -> RrefResult:
    """The reduced form of the matrix whose column c is vectors[order[c]],
    for vectors of one ambient.

    A column is a pivot exactly when its vector is independent of the
    columns before it, and a column that is not holds its vector's
    coefficients over the pivot columns before it.
    """
    ambient = vectors[0].ambient
    columns = [vectors[i].coords for i in order]
    entries = tuple(chain.from_iterable(zip(*columns)))
    return rref(_trusted(ambient.p, ambient.n, len(columns), entries))


class _PackedSlots:
    """Vectors of GF(p)^n held one int each, summed without a per-entry `% p`.

    Entry j sits in the w-bit slot at bit j*w, with w = (p-1).bit_length() + 1,
    so p <= 2**(w-1).  Two packed vectors of residues sum slot by slot with
    every slot in [0, 2p-2], below 2**w, so no slot carries into the next.
    `add` then takes p off each slot that reached p, all at once: `bias`
    holds 2**(w-1) - p in every slot and `high` bit w-1 of every slot, and a
    slot plus the bias has its top bit set exactly when the slot is at least
    p, and carries out of no slot, as 2p-2 + 2**(w-1) - p < 2**w.  So the
    sum is again a packed vector of residues, and it is zero exactly when
    the int is.  `_ChainSearch` packs a vector of GF(p)^n followed by its
    parity-check values, n + (number of checks) slots of the same width.
    """

    __slots__ = ("p", "top", "bias", "high", "_shifts")

    def __init__(self, p: int, n: int):
        w = (p - 1).bit_length() + 1
        self._shifts = range(0, n * w, w)
        ones = sum(1 << s for s in self._shifts)
        self.p, self.top = p, w - 1
        self.bias = ((1 << (w - 1)) - p) * ones
        self.high = (1 << (w - 1)) * ones

    def pack(self, coords: Sequence[int]) -> int:
        return sum(map(lshift, coords, self._shifts))

    def add(self, a: int, b: int) -> int:
        """The packed sum mod p of two packed vectors of residues."""
        s = a + b
        return s - ((s + self.bias & self.high) >> self.top) * self.p


class _ChainSearch:
    """Lexicographic depth-first search over CLOSED chain states of a list.

    Every defined prefix lies in the union, so what a prefix allows next
    depends only on its state (next vector, accumulator, whether a nonzero
    coefficient came before).  Coefficients are tried in order 0..p-1 and a
    state whose subtree held no witness is not entered again, so the first
    witness found is the lexicographically first tuple.  The walk keeps its
    own stack of states, one per position of the list, with the coefficient
    tried at each, as a list may be far longer than the recursion limit.

    An accumulator x is one int (`_PackedSlots`) of w-bit slots, with
    w = (p-1).bit_length() + 1: slots 0..n-1 hold x itself, entry j at bit
    j*w, and after them come the values at x of every parity check of every
    component of the ambient (`subspace._parity_checks`), in component
    order, one slot each.  `_scaled[k][c]` is the packed c*v_k with its
    checks.  A step adds the two; each slot of the sum is at most
    2p-2 < 2**w, so none carries into the next, and one correction takes p
    off every slot that reached p, found by the top bits of the sum plus
    2**(w-1) - p per slot, which cannot carry either.  The checks are
    linear, so the same add keeps them equal to the checks of the new
    accumulator, and the int is 0 exactly when the accumulator is: a chain
    ends at zero when it is 0.  A state is (list index, packed int, seen),
    three ints.

    The checks ride along so that membership needs no unpacking: component
    i holds x exactly when its checks all vanish at x, that is when
    `x & _fields[i]` is 0, where the field has every bit of the component's
    check slots set (0 for a full component, which has no checks).  Which
    components hold an accumulator is cached per search by its packed int.

    One search serves every sublist of its list: a chain over a sublist is a
    chain over the list with coefficient 0 on the left-out vectors, which
    leaves the accumulator unchanged and is defined for union members.  So a
    failed state, keyed by the list index of its next vector, stays failed
    when vectors are left out, and the failed set is kept across calls.
    """

    def __init__(self, space: MultiVectorSpace, vectors: list[TaggedVector]):
        ambient = vectors[0].ambient
        p, n, m = ambient.p, ambient.n, len(vectors)
        comps = space.components_in(ambient)
        union_bound = sum(p**c.dim for c in comps)
        steps = p * sum(min(p**i, union_bound) for i in range(m))
        if steps > _SEARCH_STEP_CAP:
            raise SearchTooLarge(f"{steps} chain-state steps exceed the cap of {_SEARCH_STEP_CAP}")
        checks = [_parity_checks(c) for c in comps]
        size = n + sum(len(free) for free, _ in checks)
        self._slots = slots = _PackedSlots(p, size)
        # columns[j] is e_j followed by the values at e_j of the checks: the
        # check of a component on non-pivot column j of its basis is
        # x[j] - sum_r basis[r][j] * x[pivot_r], so it is 1 at e_j and
        # -basis[r][j] at e_{pivot_r}; `_fields` holds (bit i, every bit of
        # the check slots of component i)
        columns = [[0] * size for _ in range(n)]
        for j in range(n):
            columns[j][j] = 1
        w = slots.top + 1
        self._fields = []
        start = n
        for i, (free, pivot_rows) in enumerate(checks):
            for t, j in enumerate(free):
                columns[j][start + t] = 1
                for piv, row in pivot_rows:
                    columns[piv][start + t] = -row[t] % p
            stop = start + len(free)
            self._fields.append((1 << i, (1 << stop * w) - (1 << start * w)))
            start = stop
        # terms[j, x] is the packed x*e_j with its checks, for each (j, x)
        # that some vector has, and v with its checks is the sum of its terms
        terms: dict[tuple[int, int], int] = {}
        self._scaled = []
        for v in vectors:
            packed = 0
            for j, x in enumerate(v.coords):
                if x:
                    term = terms.get((j, x))
                    if term is None:
                        term = terms[j, x] = slots.pack([x * e % p for e in columns[j]])
                    packed = slots.add(packed, term)
            row = [0, packed]
            for _ in range(2, p):
                row.append(slots.add(row[-1], packed))
            self._scaled.append(row)
        # c*v lies in the components holding v for c != 0, and 0*v in all of them
        self._masks = [self._held(row[1]) for row in self._scaled]
        self._acc_masks: dict[int, int] = {}
        self._failed: set[tuple[int, int, int]] = set()

    def _held(self, x: int) -> int:
        """The bitmask of the ambient's components holding the packed vector x."""
        held = 0
        for bit, field in self._fields:
            if not x & field:
                held |= bit
        return held

    def first_witness(self, alive: Sequence[int]) -> tuple[int, ...] | None:
        """The lexicographically first witness over the vectors at the list
        indices `alive` (increasing), one coefficient each, or None."""
        masks, scaled, failed = self._masks, self._scaled, self._failed
        if not all(masks[k] for k in alive):
            return None
        slots, acc_masks = self._slots, self._acc_masks
        p, bias, high, top = slots.p, slots.bias, slots.high, slots.top
        keys = list(alive)
        last = len(keys) - 1
        # states[i] is the state before position i of `alive`, and coeffs[i]
        # the coefficient tried there
        coeffs = [0] * len(keys)
        state = (keys[0], 0, 0)
        states = [state]
        i = c = 0
        while True:
            k, acc, seen = state
            if c == 1:
                held = acc_masks.get(acc)
                if held is None:
                    held = acc_masks[acc] = self._held(acc)
                if not held & masks[k]:
                    c = p
            if c == p:
                failed.add(state)
                states.pop()
                if not states:
                    return None
                i -= 1
                state = states[-1]
                c = coeffs[i] + 1
                continue
            if c:
                acc += scaled[k][c]
                acc -= ((acc + bias & high) >> top) * p
                seen = 1
            coeffs[i] = c
            if i == last:
                if seen and not acc:
                    return tuple(coeffs)
                c += 1
                continue
            nxt = (keys[i + 1], acc, seen)
            if nxt in failed:
                c += 1
                continue
            states.append(nxt)
            state = nxt
            i += 1
            c = 0


def linearly_dependent(
    space: MultiVectorSpace, vectors: Sequence[TaggedVector]
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether some not-all-zero coefficient tuple gives a defined zero chain.

    An empty list, or one spanning several ambients, is independent outright.
    Under TOTAL policy every combination within one ambient is defined, so
    dependence is a rank test: the vectors are pushed into an
    `fp.EchelonState` in order, up to the first that depends on the ones
    before it.  The witness is that vector's combination of them, with
    coefficient 1 on that vector and 0 after it, read off one `rref` of the
    matrix whose columns are the vectors up to it.  Under CLOSED the
    witness is the lexicographically first tuple over the given vector order,
    from a chain-state search (`_ChainSearch`) that raises SearchTooLarge
    when its step bound p * sum_{i<m} min(p^i, S) exceeds 2*10^6, for m
    vectors over GF(p) whose ambient's components hold S = sum p^dim.
    """
    vectors = list(vectors)
    if not _one_ambient(vectors):
        return False, None
    if space.policy is OperationPolicy.CLOSED:
        witness = _ChainSearch(space, vectors).first_witness(range(len(vectors)))
        return witness is not None, witness
    ambient = vectors[0].ambient
    state = EchelonState(ambient.p, ambient.n)
    for j, v in enumerate(vectors):
        if not state.push(state.pack(v.coords)):
            break
    else:
        return False, None
    # columns 0..j-1 are the pivots, and column j holds v_j's coefficients over them
    entries = _column_rref(vectors, range(j + 1)).matrix.entries
    coeffs = tuple(-entries[i * (j + 1) + j] % ambient.p for i in range(j))
    return True, coeffs + (1,) + (0,) * (len(vectors) - j - 1)


def linear_span(
    space: MultiVectorSpace,
    generators: Iterable[TaggedVector],
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> set[TaggedVector]:
    """All values of defined chains over the generators that lie in the union.

    Computed as a fixed-point closure: the reachable set grows by one chain
    step (add a scaled generator) until nothing new appears, then gets
    filtered to union members.  Intermediate values may leave the union under
    TOTAL policy and still serve as chain prefixes.  A sum exists only inside
    one operation group, and a group lies in one ambient, so the closure runs
    per ambient on coordinate tuples; one count over all ambients raises
    EnumerationTooLarge as soon as the reachable set grows past the cap.
    """
    _check_int("enumeration_cap", enumeration_cap, 1)
    idx = _Membership(space)
    # each ambient's terms with their groups: a sum s + t exists when they share a group
    terms: dict[AmbientId, dict[tuple[int, ...], int]] = {}
    for g in generators:
        ambient, p = g.ambient, g.ambient.p
        if not idx.groups(ambient, g.coords):
            continue
        own = terms.setdefault(ambient, {})
        for alpha in range(p):
            t = tuple((alpha * x) % p for x in g.coords)
            if t not in own:
                own[t] = idx.groups(ambient, t)
    spanned: set[TaggedVector] = set()
    reached = 0
    for ambient, own in terms.items():
        p = ambient.p
        # 0 + t = t for every term t, as the zero vector of an ambient is in
        # every group of it: so the closure grows from that zero vector alone
        reachable: set[tuple[int, ...]] = set()
        queue = [(0,) * ambient.n]
        for s in queue:
            groups = idx.groups(ambient, s)
            for t, t_groups in own.items():
                if groups & t_groups:
                    u = tuple((a + b) % p for a, b in zip(s, t))
                    if u not in reachable:
                        reachable.add(u)
                        reached += 1
                        if reached > enumeration_cap:
                            raise EnumerationTooLarge(
                                f"closure exceeds the enumeration cap of {enumeration_cap}"
                            )
                        queue.append(u)
        spanned.update(TaggedVector(ambient, u) for u in reachable if idx.mask(ambient, u))
    return spanned


def component_basis_vectors(space: MultiVectorSpace) -> list[TaggedVector]:
    """Canonical basis rows of every component, in component then row order.

    The rows of a reduced basis are residue tuples of the ambient's length,
    so the vectors are built through `_trusted_vector`."""
    return [
        _trusted_vector(comp.ambient, row) for comp in space.components for row in comp.rows()
    ]


def _trusted_vector(ambient: AmbientId, coords: tuple[int, ...]) -> TaggedVector:
    """A TaggedVector over a tuple of n residues mod p, built without the
    checks in `TaggedVector.__post_init__`."""
    v = object.__new__(TaggedVector)
    object.__setattr__(v, "ambient", ambient)
    object.__setattr__(v, "coords", coords)
    return v


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
    and is returned as it is.  With one ambient under TOTAL, dependence is
    that of the linear matroid and each witness is a circuit, so every step
    drops a circuit's smallest vector by the removal key, and the survivors
    are the basis greatest by that key (Edmonds, 1971).  One `rref` of the
    vectors as columns in decreasing key order gives it: the pivot columns
    are the vectors independent of those before them.  Under CLOSED one
    `_ChainSearch` serves every removal and finds the witness a restart would
    find, as it keeps its failed chain states; its step bound is checked
    once, on the stacked list, and raises SearchTooLarge as
    `linearly_dependent` does on that list.
    """
    delta = component_basis_vectors(space)
    if removal_order is None:
        # the key only ever ranks vectors of one ambient, so coordinates order it
        def victim_key(pos: int) -> tuple:
            return (delta[pos].coords, pos)
    else:
        if sorted(removal_order) != list(range(len(delta))):
            raise ValueError(
                f"removal_order must be a permutation of range({len(delta)})"
            )
        victim_key = {pos: rank for rank, pos in enumerate(removal_order)}.__getitem__
    if not _one_ambient(delta):
        return delta
    if space.policy is OperationPolicy.TOTAL:
        order = sorted(range(len(delta)), key=victim_key, reverse=True)
        return [delta[i] for i in sorted(order[c] for c in _column_rref(delta, order).pivots)]
    search = _ChainSearch(space, delta)
    alive = list(range(len(delta)))
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
    _check_int("enumeration_cap", enumeration_cap, 1)
    if isinstance(candidate, MultiVectorSpace):
        comps = candidate.components
        vectors = {(c.ambient, v) for c in comps for v in c.enumerate(enumeration_cap)}
    else:
        vectors = {(v.ambient, v.coords) for v in candidate}
    idx = _Membership(parent)
    slices: dict[int, tuple[AmbientId, list[tuple[int, ...]]]] = {}
    for ambient, coords in vectors:
        if not idx.mask(ambient, coords):
            return False
        groups = idx.groups(ambient, coords)
        for i in range(groups.bit_length()):
            if groups >> i & 1:
                slices.setdefault(i, (ambient, []))[1].append(coords)
    for amb, members in slices.values():
        gens = _trusted(amb.p, len(members), amb.n, tuple(chain.from_iterable(members)))
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

    Only subsets of one ambient's components with a nonzero meet need
    forming: a subset over several ambients has empty intersection, and every
    superset of a zero meet has dimension 0, so both contribute 0.  The walk
    goes depth first from the singletons and extends a subset S by each later
    component C of its ambient while meet(S) is nonzero.  A meet's dimension
    comes from the dual form: the checks of an intersection are the checks of
    its components together, (meet S)^perp = sum of C^perp over C in S, so
    dim meet(S) = n - rank(the parity checks of S stacked).  The checks of
    each subset the walk extends are held as an `fp.EchelonState` (a
    singleton's is built when it is first extended), and S + C copies the
    state of S and pushes the checks of C, read once per call
    (`_parity_checks`): one copy per subset formed past the singletons, and
    no intersection.  Forming more than 2^DEFAULT_SUBSET_CAP - 1 = 4,095
    meets, singletons included, raises TooManyComponents before the meet
    that would exceed it; so every instance of at most 12 components
    answers.
    """
    cap = (1 << DEFAULT_SUBSET_CAP) - 1
    formed = len(space.components)
    total = 0
    for ambient in space.ambients():
        comps = space.components_in(ambient)
        p, n = ambient.p, ambient.n
        # per component, its checks as packed rows: for each non-pivot column
        # j, 1 at j and -basis[i][j] at the pivot of each basis row i; a lone
        # component is never extended, and needs none
        checks = []
        if len(comps) > 1:
            packer = EchelonState(p, n)
            for comp in comps:
                free, pivot_rows = _parity_checks(comp)
                rows = []
                for t, j in enumerate(free):
                    coords = [0] * n
                    coords[j] = 1
                    for piv, row in pivot_rows:
                        coords[piv] = -row[t] % p
                    rows.append(packer.pack(coords))
                checks.append(rows)
        # (index of the last component taken, state of the subset's checks or
        # None for a singleton, whose state is built once it is extended, sign)
        stack = [(i, None, 1) for i in range(len(comps))]
        while stack:
            i, state, sign = stack.pop()
            dim = comps[i].dim if state is None else n - state.rank
            total += sign * dim
            if dim:
                for j in range(i + 1, len(comps)):
                    formed += 1
                    if formed > cap:
                        raise TooManyComponents(
                            f"inclusion-exclusion would form more than {cap} subset meets"
                        )
                    if state is None:
                        state = EchelonState(p, n)
                        for row in checks[i]:
                            state.push(row)
                    child = state.copy()
                    for row in checks[j]:
                        child.push(row)
                    stack.append((j, child, -sign))
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
    _check_int("enumeration_cap", enumeration_cap, 1)
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
    masks = {v: idx.mask(ambient, v) for v in union}
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
