"""Randomized instances and an auditor for the inclusion-exclusion formula.

Disagreement between the alternating-sum dimension and the greedy basis
cardinality is a reported finding, never a process failure: the searcher
exists to map out where the closed formula and the constructive dimension
part ways.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .core import (
    MultiVectorSpace,
    OperationPolicy,
    dim_greedy,
    dim_inclusion_exclusion,
)
from .errors import CapExceeded, MultispaceError
from .fp import FpMatrix, _check_int, check_prime
from .subspace import AmbientId, span

_AMBIENT_LABELS = "ABCDEFGH"


@dataclass(frozen=True)
class GeneratorConfig:
    primes: tuple[int, ...] = (2, 3)
    max_ambient_dim: int = 4
    max_components: int = 4
    max_ambients: int = 2
    policy: OperationPolicy = OperationPolicy.TOTAL
    seed: int = 0

    def __post_init__(self) -> None:
        if type(self.primes) is not tuple or not self.primes:
            raise ValueError(f"primes must be a non-empty tuple, got {self.primes!r}")
        for p in self.primes:
            check_prime(p)
        _check_int("max_ambient_dim", self.max_ambient_dim, 1)
        _check_int("max_components", self.max_components, 1)
        _check_int("max_ambients", self.max_ambients, 1)
        if self.max_ambients > len(_AMBIENT_LABELS):
            raise ValueError(f"max_ambients must be in [1, {len(_AMBIENT_LABELS)}]")
        if not isinstance(self.policy, OperationPolicy):
            raise ValueError(f"policy must be an OperationPolicy, got {self.policy!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")


@dataclass(frozen=True)
class DiscrepancyReport:
    """One instance where the alternating sum disagrees with the greedy dimension."""

    instance: MultiVectorSpace
    ie_value: int
    greedy_value: int
    seed: int
    draw: int

    def __post_init__(self) -> None:
        if self.ie_value == self.greedy_value:
            raise ValueError("a discrepancy report needs differing values")


def random_instance(cfg: GeneratorConfig, draw: int) -> MultiVectorSpace:
    """Deterministic function of (cfg.seed, draw).

    Generator matrices get their row counts drawn uniformly in
    [0, max_ambient_dim]; duplicate components are allowed on purpose.  Every
    used ambient ends up with at least one nonzero component, since an
    ambient carrying only zero spaces has a union no chain can reach.
    """
    rng = random.Random(f"{cfg.seed}:{draw}")
    n_ambients = rng.randint(1, cfg.max_ambients)
    ambients = [
        AmbientId(
            _AMBIENT_LABELS[i],
            rng.choice(cfg.primes),
            rng.randint(1, cfg.max_ambient_dim),
        )
        for i in range(n_ambients)
    ]
    k = rng.randint(1, cfg.max_components)
    components = []
    for _ in range(k):
        ambient = rng.choice(ambients)
        g = rng.randint(0, cfg.max_ambient_dim)
        entries = tuple(rng.randrange(ambient.p) for _ in range(g * ambient.n))
        components.append(span(ambient, FpMatrix(ambient.p, g, ambient.n, entries)))
    for ambient in dict.fromkeys(c.ambient for c in components):
        slots = [i for i, c in enumerate(components) if c.ambient == ambient]
        if all(components[i].dim == 0 for i in slots):
            row = _random_nonzero_row(rng, ambient)
            components[slots[0]] = span(
                ambient, FpMatrix(ambient.p, 1, ambient.n, row)
            )
    return MultiVectorSpace(tuple(components), cfg.policy)


def _random_nonzero_row(rng: random.Random, ambient: AmbientId) -> tuple[int, ...]:
    while True:
        row = tuple(rng.randrange(ambient.p) for _ in range(ambient.n))
        if any(row):
            return row


class Findings(list):
    """Discrepancy reports in draw order; `skipped` counts the draws that hit
    a cap and were left out.  Compares equal to a list of the same reports."""

    skipped = 0


def find_formula_discrepancies(
    cfg: GeneratorConfig,
    trials: int,
    injected: tuple[MultiVectorSpace, ...] = (),
) -> Findings:
    """Compare the two dimension computations over `trials` draws.

    Instances in `injected` replace the random draws at the head of the run,
    which keeps known fixtures reproducible under the same reporting path.
    A draw on which either computation exceeds a cap is counted in
    `skipped`, and the run goes on with the next draw.
    """
    _check_int("trials", trials, 0)
    reports = Findings()
    for draw in range(trials):
        instance = injected[draw] if draw < len(injected) else random_instance(cfg, draw)
        try:
            ie = dim_inclusion_exclusion(instance)
            greedy = dim_greedy(instance)
        except CapExceeded:
            reports.skipped += 1
            continue
        if ie != greedy:
            reports.append(
                DiscrepancyReport(
                    instance=instance,
                    ie_value=ie,
                    greedy_value=greedy,
                    seed=cfg.seed,
                    draw=draw,
                )
            )
    return reports


def _evaluate(instance: MultiVectorSpace) -> tuple[int, int] | None:
    try:
        return dim_inclusion_exclusion(instance), dim_greedy(instance)
    except MultispaceError:
        return None


def _drop_column(instance: MultiVectorSpace, ambient: AmbientId, col: int) -> MultiVectorSpace:
    shrunk = AmbientId(ambient.label, ambient.p, ambient.n - 1)
    components = []
    for comp in instance.components:
        if comp.ambient != ambient:
            components.append(comp)
            continue
        rows = [row[:col] + row[col + 1 :] for row in comp.rows()]
        components.append(
            span(shrunk, FpMatrix.from_rows(ambient.p, rows, cols=shrunk.n))
        )
    return MultiVectorSpace(tuple(components), instance.policy)


def minimize_counterexample(report: DiscrepancyReport) -> DiscrepancyReport:
    """Greedily drop components and coordinates while the disagreement persists.

    The result is locally minimal: no single component drop or single
    coordinate deletion keeps the two values apart.
    """
    instance = report.instance
    ie, greedy = report.ie_value, report.greedy_value
    improved = True
    while improved:
        improved = False
        if len(instance.components) > 1:
            for i in range(len(instance.components)):
                smaller = MultiVectorSpace(
                    instance.components[:i] + instance.components[i + 1 :],
                    instance.policy,
                )
                values = _evaluate(smaller)
                if values is not None and values[0] != values[1]:
                    instance, (ie, greedy) = smaller, values
                    improved = True
                    break
        if improved:
            continue
        for ambient in instance.ambients():
            if ambient.n < 2:
                continue
            for col in range(ambient.n):
                smaller = _drop_column(instance, ambient, col)
                values = _evaluate(smaller)
                if values is not None and values[0] != values[1]:
                    instance, (ie, greedy) = smaller, values
                    improved = True
                    break
            if improved:
                break
    return replace(report, instance=instance, ie_value=ie, greedy_value=greedy)
