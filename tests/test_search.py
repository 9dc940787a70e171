"""Random instance generation and the formula discrepancy searcher."""

import base64
import hashlib
import json
import random
from pathlib import Path

import pytest

from multispace import (
    AmbientId,
    CapExceeded,
    DiscrepancyReport,
    GeneratorConfig,
    MultiVectorSpace,
    OperationPolicy,
    brute_dependent,
    component_basis_vectors,
    dim_greedy,
    dim_inclusion_exclusion,
    find_formula_discrepancies,
    full_subspace,
    greedy_basis,
    minimize_counterexample,
    random_instance,
    validate_axioms,
    zero_subspace,
)
from conftest import brute_axiom_counts, brute_inclusion_exclusion, three_lines_gf2

TOTAL = OperationPolicy.TOTAL
EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"


class TestRandomInstance:
    def test_deterministic(self):
        cfg = GeneratorConfig(seed=42)
        for draw in range(20):
            assert random_instance(cfg, draw) == random_instance(cfg, draw)

    def test_draws_differ(self):
        cfg = GeneratorConfig(seed=42)
        instances = {random_instance(cfg, draw) for draw in range(30)}
        assert len(instances) > 1

    def test_single_component_config(self):
        cfg = GeneratorConfig(max_components=1, seed=3)
        for draw in range(20):
            assert len(random_instance(cfg, draw).components) == 1

    def test_outputs_validate(self):
        cfg = GeneratorConfig(max_ambient_dim=3, seed=11)
        for draw in range(100):
            instance = random_instance(cfg, draw)
            report = validate_axioms(instance)
            counts = (
                report.closure_checks,
                report.associativity_checks,
                report.distributivity_checks,
            )
            assert counts == brute_axiom_counts(instance)

    def test_every_ambient_has_a_nonzero_component(self):
        cfg = GeneratorConfig(seed=8)
        for draw in range(100):
            instance = random_instance(cfg, draw)
            for ambient in instance.ambients():
                assert any(c.dim > 0 for c in instance.components_in(ambient))


class TestFindFormulaDiscrepancies:
    def test_two_components_one_ambient_never_disagree(self):
        cfg = GeneratorConfig(max_components=2, max_ambients=1, policy=TOTAL, seed=13)
        assert find_formula_discrepancies(cfg, 1000) == []

    def test_injected_fixture_reported(self):
        cfg = GeneratorConfig(seed=0)
        reports = find_formula_discrepancies(cfg, 1, injected=(three_lines_gf2(),))
        assert len(reports) == 1
        report = reports[0]
        assert report.draw == 0
        assert report.ie_value == 3
        assert report.greedy_value == 2

    def test_over_cap_draw_skipped(self):
        # the 9 basis rows of GF(5)^9 take 2,441,405 search steps, over the cap
        over_cap = MultiVectorSpace(
            (full_subspace(AmbientId("A", 5, 9)),), OperationPolicy.CLOSED
        )
        cfg = GeneratorConfig(seed=0)
        reports = find_formula_discrepancies(cfg, 3, injected=(over_cap, three_lines_gf2()))
        plain = find_formula_discrepancies(cfg, 3)
        assert (reports.skipped, plain.skipped) == (1, 0)
        # the run goes on past draw 0 to the injected finding and draw 2
        assert reports[0].draw == 1
        assert reports[1:] == [r for r in plain if r.draw == 2]

    def test_zero_trials(self):
        assert find_formula_discrepancies(GeneratorConfig(seed=1), 0) == []

    def test_reproducible(self):
        cfg = GeneratorConfig(seed=77)
        assert find_formula_discrepancies(cfg, 200) == find_formula_discrepancies(cfg, 200)

    def test_reports_are_sound(self):
        cfg = GeneratorConfig(seed=99)
        for report in find_formula_discrepancies(cfg, 200):
            assert dim_inclusion_exclusion(report.instance) == report.ie_value
            assert dim_greedy(report.instance) == report.greedy_value
            assert report.ie_value != report.greedy_value
            assert random_instance(cfg, report.draw) == report.instance

    def test_ordered_by_draw(self):
        cfg = GeneratorConfig(seed=99)
        reports = find_formula_discrepancies(cfg, 200)
        draws = [r.draw for r in reports]
        assert draws == sorted(draws)


class TestMinimize:
    def test_fixed_point(self):
        report = DiscrepancyReport(three_lines_gf2(), 3, 2, seed=0, draw=0)
        assert minimize_counterexample(report) == report

    def test_drops_redundant_zero_component(self):
        base = three_lines_gf2()
        padded = MultiVectorSpace(
            base.components + (zero_subspace(base.components[0].ambient),), TOTAL
        )
        report = DiscrepancyReport(padded, dim_inclusion_exclusion(padded),
                                   dim_greedy(padded), seed=0, draw=0)
        smaller = minimize_counterexample(report)
        assert smaller.instance == base

    def test_result_still_disagrees(self):
        rng = random.Random(5)
        cfg = GeneratorConfig(seed=rng.randrange(1000))
        for report in find_formula_discrepancies(cfg, 100)[:10]:
            smaller = minimize_counterexample(report)
            assert smaller.ie_value != smaller.greedy_value
            assert dim_inclusion_exclusion(smaller.instance) == smaller.ie_value
            assert dim_greedy(smaller.instance) == smaller.greedy_value

    def test_local_minimality(self):
        cfg = GeneratorConfig(seed=21)
        reports = find_formula_discrepancies(cfg, 100)
        assert reports, "expected at least one discrepancy at the default config"
        smaller = minimize_counterexample(reports[0])
        instance = smaller.instance
        for i in range(len(instance.components)):
            if len(instance.components) == 1:
                break
            reduced = MultiVectorSpace(
                instance.components[:i] + instance.components[i + 1 :], instance.policy
            )
            assert dim_inclusion_exclusion(reduced) == dim_greedy(reduced)


def _digest(result: tuple) -> bytes:
    return hashlib.sha256(repr(result).encode()).digest()[:3]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "workload,config,draws",
    [
        pytest.param("audit-total", {}, 2000, id="audit-total"),
        pytest.param(
            "audit-closed",
            {"policy": OperationPolicy.CLOSED, "max_components": 6, "max_ambient_dim": 5},
            500,
            id="audit-closed",
        ),
    ],
)
def test_recorded_audit_digests(workload, config, draws, seed):
    """Replay the head of the benchmark's recorded audit draws.

    Each record is the first 3 bytes of the sha256 of repr(result), where the
    result is ("ok", inclusion-exclusion, basis coordinates) or ("cap",).
    Some CLOSED draws were recorded over the cap before multi-ambient lists
    became independent outright and before the dependence search walked
    chain states instead of coefficient tuples.  A multi-ambient one must now
    give the whole stacked list; a one-ambient one an independent
    subsequence of it.  Both must give the enumerated alternating sum.
    """
    record = json.loads((EXPECTED / f"{workload}.json").read_text())
    blob = base64.b64decode(record["seeds"][str(seed)])
    cfg = GeneratorConfig(seed=seed, **config)
    for draw in range(draws):
        recorded = blob[3 * draw : 3 * draw + 3]
        instance = random_instance(cfg, draw)
        try:
            ie = dim_inclusion_exclusion(instance)
            basis = greedy_basis(instance)
        except CapExceeded:
            continue
        result = ("ok", ie, tuple((v.ambient.label, v.coords) for v in basis))
        if _digest(result) == recorded:
            continue
        assert recorded == _digest(("cap",)), f"draw {draw} differs from its record"
        assert instance.policy is OperationPolicy.CLOSED
        stacked = component_basis_vectors(instance)
        if len(instance.ambients()) > 1:
            assert basis == stacked
        else:
            rest = iter(stacked)
            assert all(v in rest for v in basis), f"draw {draw}: basis not a subsequence"
            assert brute_dependent(instance, basis) == (False, None)
        assert ie == brute_inclusion_exclusion(instance)
