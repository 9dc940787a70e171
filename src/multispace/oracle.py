"""Brute-force ground truth for the fast-path operations.

Everything here works by direct enumeration over materialized element sets,
deliberately sharing no elimination code with the fast paths: membership is
set lookup, never a solve.  Oracles abort on cap overruns instead of
sampling, because a sampled oracle is not ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .core import MultiVectorSpace, OperationPolicy, TaggedVector
from .errors import EnumerationTooLarge, SearchTooLarge
from .subspace import AmbientId, Subspace


@dataclass(frozen=True)
class OracleConfig:
    enumeration_cap: int = 729
    coefficient_cap: int = 10**6

    def __post_init__(self) -> None:
        for cap in (self.enumeration_cap, self.coefficient_cap):
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
                raise ValueError(f"caps must be ints >= 1, got {cap!r}")


def _rowspace(p: int, n: int, rows: list[tuple[int, ...]], cap: int) -> set[tuple[int, ...]]:
    if p ** len(rows) > cap:
        raise EnumerationTooLarge(f"{p ** len(rows)} combinations exceed the cap of {cap}")
    out: set[tuple[int, ...]] = set()
    for coeffs in product(range(p), repeat=len(rows)):
        acc = (0,) * n
        for c, row in zip(coeffs, rows):
            acc = tuple((a + c * x) % p for a, x in zip(acc, row))
        out.add(acc)
    return out


ComponentSets = list[tuple[AmbientId, set[tuple[int, ...]]]]


def _component_sets(space: MultiVectorSpace, cap: int) -> ComponentSets:
    return [
        (c.ambient, _rowspace(c.ambient.p, c.ambient.n, c.rows(), cap))
        for c in space.components
    ]


def _in_some(comp_sets: ComponentSets, ambient: AmbientId, x: tuple[int, ...]) -> bool:
    return any(amb == ambient and x in s for amb, s in comp_sets)


def _in_common(
    comp_sets: ComponentSets, ambient: AmbientId, x: tuple[int, ...], y: tuple[int, ...]
) -> bool:
    return any(amb == ambient and x in s and y in s for amb, s in comp_sets)


def _chain_value(
    comp_sets: ComponentSets,
    total: bool,
    coeffs: tuple[int, ...],
    vectors: list[TaggedVector],
) -> TaggedVector | None:
    """Left-to-right value of sum(c*v), or None at the first undefined step."""
    acc: TaggedVector | None = None
    for c, v in zip(coeffs, vectors):
        if not (total or _in_some(comp_sets, v.ambient, v.coords)):
            return None
        p = v.ambient.p
        value = tuple((c * x) % p for x in v.coords)
        if acc is None:
            acc = TaggedVector(v.ambient, value)
            continue
        if acc.ambient != v.ambient:
            return None
        if not (total or _in_common(comp_sets, v.ambient, acc.coords, value)):
            return None
        acc = TaggedVector(v.ambient, tuple((a + b) % p for a, b in zip(acc.coords, value)))
    return acc


def brute_intersection(
    s1: Subspace, s2: Subspace, cfg: OracleConfig = OracleConfig()
) -> set[tuple[int, ...]]:
    """Set intersection of the two enumerated row spaces."""
    cap = cfg.enumeration_cap
    a = _rowspace(s1.ambient.p, s1.ambient.n, s1.rows(), cap)
    b = _rowspace(s2.ambient.p, s2.ambient.n, s2.rows(), cap)
    return a & b


def brute_dependent(
    space: MultiVectorSpace,
    vectors: list[TaggedVector],
    cfg: OracleConfig = OracleConfig(),
) -> tuple[bool, tuple[int, ...] | None]:
    """Try every not-all-zero coefficient tuple, evaluating its chain by set lookup."""
    if not vectors:
        return False, None
    count = 1
    for v in vectors:
        count *= v.ambient.p
    if count > cfg.coefficient_cap:
        raise SearchTooLarge(f"{count} coefficient tuples exceed the cap of {cfg.coefficient_cap}")
    comp_sets = _component_sets(space, cfg.enumeration_cap)
    total = space.policy is OperationPolicy.TOTAL
    for coeffs in product(*(range(v.ambient.p) for v in vectors)):
        if not any(coeffs):
            continue
        value = _chain_value(comp_sets, total, coeffs, vectors)
        if value is not None and value.is_zero:
            return True, coeffs
    return False, None


def brute_span(
    space: MultiVectorSpace,
    generators: Iterable[TaggedVector],
    cfg: OracleConfig = OracleConfig(),
) -> set[TaggedVector]:
    """Fixed-point closure over single chain steps, by direct enumeration."""
    gens = list(generators)
    if not gens:
        return set()
    comp_sets = _component_sets(space, cfg.enumeration_cap)
    total = space.policy is OperationPolicy.TOTAL

    terms: set[TaggedVector] = set()
    for g in gens:
        if not (total or _in_some(comp_sets, g.ambient, g.coords)):
            continue
        p = g.ambient.p
        for alpha in range(p):
            terms.add(TaggedVector(g.ambient, tuple((alpha * x) % p for x in g.coords)))

    reachable = set(terms)
    grew = True
    while grew:
        grew = False
        for s in list(reachable):
            for t in terms:
                if s.ambient != t.ambient:
                    continue
                if not (total or _in_common(comp_sets, s.ambient, s.coords, t.coords)):
                    continue
                p = s.ambient.p
                u = TaggedVector(
                    s.ambient, tuple((a + b) % p for a, b in zip(s.coords, t.coords))
                )
                if u not in reachable:
                    reachable.add(u)
                    grew = True
                    if len(reachable) > cfg.enumeration_cap:
                        raise EnumerationTooLarge(
                            f"closure exceeds the enumeration cap of {cfg.enumeration_cap}"
                        )
    return {v for v in reachable if _in_some(comp_sets, v.ambient, v.coords)}


def brute_subspace_check(
    candidate: MultiVectorSpace | Iterable[TaggedVector],
    parent: MultiVectorSpace,
    cfg: OracleConfig = OracleConfig(),
) -> bool:
    """Exhaustive closure test of the subspace criterion.

    Iterates every alpha, a, b over the enumerated candidate union; wherever
    alpha*a + b exists under the parent's policy the result must be a
    candidate element, and the candidate must sit inside the parent union.
    The candidate is grouped by ambient, as sets of coordinate tuples, and
    each distinct multiple t = alpha*a is tried once against every b, as
    whether t + b exists and its value depend on a and alpha only through t.
    """
    by_ambient: dict[AmbientId, set[tuple[int, ...]]] = {}
    if isinstance(candidate, MultiVectorSpace):
        for amb, s in _component_sets(candidate, cfg.enumeration_cap):
            by_ambient.setdefault(amb, set()).update(s)
    else:
        for v in candidate:
            by_ambient.setdefault(v.ambient, set()).add(v.coords)

    parent_sets = _component_sets(parent, cfg.enumeration_cap)
    total = parent.policy is OperationPolicy.TOTAL

    if not all(_in_some(parent_sets, amb, x) for amb, xs in by_ambient.items() for x in xs):
        return False

    for amb, members in by_ambient.items():
        p = amb.p
        multiples = {tuple((alpha * x) % p for x in a) for a in members for alpha in range(p)}
        for t in multiples:
            for b in members:
                if not (total or _in_common(parent_sets, amb, t, b)):
                    continue
                if tuple((x + y) % p for x, y in zip(t, b)) not in members:
                    return False
    return True
