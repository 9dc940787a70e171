"""Random instance generation and the formula discrepancy searcher."""

import random

from multispace import (
    DiscrepancyReport,
    GeneratorConfig,
    MultiVectorSpace,
    OperationPolicy,
    dim_greedy,
    dim_inclusion_exclusion,
    find_formula_discrepancies,
    minimize_counterexample,
    random_instance,
    validate_axioms,
    zero_subspace,
)
from conftest import brute_axiom_counts, three_lines_gf2

TOTAL = OperationPolicy.TOTAL


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
