"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import random
import subprocess
import sys
from dataclasses import replace
from itertools import chain, combinations

from multispace import (
    AmbientId,
    FpMatrix,
    FpScalar,
    GeneratorConfig,
    MultiVectorSpace,
    OperationPolicy,
    OracleConfig,
    TaggedVector,
    basis_invariance_check,
    brute_dependent,
    brute_intersection,
    brute_span,
    brute_subspace_check,
    dim_greedy,
    dim_inclusion_exclusion,
    find_formula_discrepancies,
    fp_inv,
    full_subspace,
    greedy_basis,
    is_multi_subspace,
    linearly_dependent,
    parse_instance,
    random_instance,
    rref,
    span,
)
from multispace.cli import main
from conftest import random_subspace, replay_greedy, three_lines_gf2, union_elements

TOTAL = OperationPolicy.TOTAL
CLOSED = OperationPolicy.CLOSED


def report(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, text


def test_criterion_1_intersection_oracle():
    rng = random.Random(1001)
    mismatches = 0
    checked = 0
    for p in (2, 3, 5):
        max_n = {2: 9, 3: 6, 5: 4}[p]
        for _ in range(500):
            ambient = AmbientId("A", p, rng.randint(1, max_n))
            a = random_subspace(rng, ambient)
            b = random_subspace(rng, ambient)
            fast = set(a.intersect(b).enumerate(cap=729))
            if fast != brute_intersection(a, b, OracleConfig(enumeration_cap=729)):
                mismatches += 1
            checked += 1
    report(1, mismatches == 0,
           f"intersect vs brute_intersection, {checked} pairs, {mismatches} mismatches")


def test_criterion_2_dependence_oracle():
    rng = random.Random(1002)
    disagreements = 0
    checked = 0
    cfg = OracleConfig(coefficient_cap=10**5)
    while checked < 300:
        policy = TOTAL if checked % 2 == 0 else CLOSED
        p = rng.choice([2, 3, 5])
        ambient = AmbientId("A", p, rng.randint(1, 3))
        k = rng.randint(1, 3)
        components = tuple(random_subspace(rng, ambient) for _ in range(k))
        space = MultiVectorSpace(components, policy)
        pool = sorted(union_elements(space), key=lambda v: v.coords)
        vectors = []
        for _ in range(rng.randint(1, 4)):
            if pool and rng.random() < 0.7:
                vectors.append(rng.choice(pool))
            else:
                vectors.append(
                    TaggedVector(ambient, tuple(rng.randrange(p) for _ in range(ambient.n)))
                )
        fast = linearly_dependent(space, vectors)
        brute = brute_dependent(space, vectors, cfg)
        if fast[0] != brute[0]:
            disagreements += 1
        checked += 1
    report(2, disagreements == 0,
           f"linearly_dependent vs brute_dependent, {checked} lists, "
           f"both policies, {disagreements} disagreements")


def test_criterion_3_additive_formula_k2():
    rng = random.Random(1003)
    disagreements = 0
    for _ in range(1000):
        ambient = AmbientId("A", rng.choice([2, 3]), rng.randint(1, 5))
        space = MultiVectorSpace(
            (random_subspace(rng, ambient), random_subspace(rng, ambient)), TOTAL
        )
        if dim_inclusion_exclusion(space) != dim_greedy(space):
            disagreements += 1
    report(3, disagreements == 0,
           f"k=2 one-ambient TOTAL, 1000 instances, {disagreements} disagreements")


def test_criterion_4_three_lines_audit(tmp_path, capsys):
    fixture = three_lines_gf2()
    ie = dim_inclusion_exclusion(fixture)
    greedy = dim_greedy(fixture)
    values_ok = (ie, greedy) == (3, 2)

    path = tmp_path / "three_lines.ms"
    path.write_text(
        "policy TOTAL\n"
        "ambient A p=2 n=2\n"
        "space V1 in A gen 1,0\n"
        "space V2 in A gen 0,1\n"
        "space V3 in A gen 1,1\n"
    )
    exit_code = main(["dim", str(path)])
    out = capsys.readouterr().out
    cli_ok = exit_code == 0 and out == "greedy=2 inclusion-exclusion=3 agree=no\n"

    reports = find_formula_discrepancies(GeneratorConfig(seed=0), 1, injected=(fixture,))
    injected_ok = (
        len(reports) == 1
        and reports[0].ie_value == 3
        and reports[0].greedy_value == 2
        and reports[0].draw == 0
    )
    with capsys.disabled():
        report(4, values_ok and cli_ok and injected_ok,
               f"three lines in the binary plane: inclusion-exclusion={ie} greedy={greedy}, "
               f"cli agree=no exit=0 ({cli_ok}), injected finding reported ({injected_ok})")


def test_criterion_5_basis_existence():
    failures = 0
    checked = 0
    oracle_cfg = OracleConfig()
    for policy, seed in ((TOTAL, 1005), (CLOSED, 2005)):
        cfg = GeneratorConfig(
            primes=(2, 3), max_ambient_dim=3, max_components=3, max_ambients=2,
            policy=policy, seed=seed,
        )
        for draw in range(100):
            instance = random_instance(cfg, draw)
            basis = greedy_basis(instance)
            dependent, _ = brute_dependent(instance, basis, oracle_cfg)
            if policy is TOTAL:
                correct = union_elements(instance) <= brute_span(instance, basis, oracle_cfg)
            else:
                # spanning is not a property of the CLOSED procedure, so the
                # procedure is replayed with the brute-force dependence test
                correct = basis == replay_greedy(
                    instance, lambda vs: brute_dependent(instance, vs, oracle_cfg)
                )
            if dependent or not correct:
                failures += 1
            checked += 1
    # recorded, not asserted: under CLOSED the greedy basis is independent
    # but need not span the union (this is draw 200 of seed 13 with
    # max_components=6, max_ambient_dim=5 under CLOSED)
    instance = parse_instance(
        "policy CLOSED\n"
        "ambient A p=3 n=4\n"
        "space V1 in A gen 1,0,2,1; 0,1,1,2\n"
        "space V2 in A gen 1,0,0,2; 0,1,0,1; 0,0,1,1\n"
        "space V3 in A gen 1,0,1,2; 0,1,0,0\n"
        "space V4 in A gen 1,0,0,2; 0,1,0,1; 0,0,1,2\n"
    )
    basis = greedy_basis(instance)
    coords = [v.coords for v in basis]
    assert coords == [(1, 0, 2, 1), (0, 1, 1, 2), (1, 0, 1, 2), (1, 0, 0, 2)]
    assert brute_dependent(instance, basis, oracle_cfg) == (False, None)
    union = union_elements(instance)
    missed = len(union - brute_span(instance, basis, oracle_cfg))
    print(f"[RECORDED] criterion 5 under CLOSED: GF(3)^4 with 4 components, "
          f"independent greedy basis {coords} misses {missed} of {len(union)} union elements")
    report(5, failures == 0,
           f"greedy basis brute-independent on {checked} random instances (both "
           f"policies), brute-spanning under TOTAL and equal to the brute-force "
           f"replay under CLOSED, {failures} failures")


def test_criterion_6_cardinality_invariance():
    cfg = GeneratorConfig(
        primes=(2, 3), max_ambient_dim=3, max_components=3, max_ambients=1,
        policy=TOTAL, seed=1006,
    )
    total_disagreements = 0
    closed_agree = 0
    closed_cardinality_spreads = []
    for draw in range(200):
        instance = random_instance(cfg, draw)
        if not basis_invariance_check(instance, trials=20, seed=draw).all_agree:
            total_disagreements += 1
        closed_report = basis_invariance_check(
            replace(instance, policy=CLOSED), trials=20, seed=draw
        )
        if closed_report.all_agree:
            closed_agree += 1
        else:
            closed_cardinality_spreads.append(sorted(set(closed_report.cardinalities)))
    # recorded, not asserted: whether invariance survives the CLOSED policy
    print(f"[RECORDED] criterion 6 under CLOSED: {closed_agree}/200 instances "
          f"order-invariant; differing cardinality sets: {closed_cardinality_spreads}")
    report(6, total_disagreements == 0,
           f"20 random removal orders on 200 one-ambient TOTAL instances, "
           f"{total_disagreements} disagreements")


def powerset(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def test_criterion_7_subspace_criterion_sweep():
    mismatches = 0
    checked = 0
    for p in (2, 3):
        ambient = AmbientId("A", p, 2)
        plane = full_subspace(ambient)
        points = [TaggedVector(ambient, v) for v in plane.enumerate()]
        for policy in (TOTAL, CLOSED):
            parent = MultiVectorSpace((plane,), policy)
            for subset in powerset(points):
                candidate = set(subset)
                if is_multi_subspace(candidate, parent) != brute_subspace_check(
                    candidate, parent
                ):
                    mismatches += 1
                checked += 1
        # instance-shaped candidates: all single and paired subspaces
        seen = []
        for rows in powerset([v.coords for v in points]):
            s = span(ambient, FpMatrix.from_rows(p, list(rows), cols=2))
            if s not in seen:
                seen.append(s)
        for policy in (TOTAL, CLOSED):
            parent = MultiVectorSpace((plane,), policy)
            for a in seen:
                candidate = MultiVectorSpace((a,), policy)
                if is_multi_subspace(candidate, parent) != brute_subspace_check(
                    candidate, parent
                ):
                    mismatches += 1
                checked += 1
                for b in seen:
                    candidate = MultiVectorSpace((a, b), policy)
                    if is_multi_subspace(candidate, parent) != brute_subspace_check(
                        candidate, parent
                    ):
                        mismatches += 1
                    checked += 1
    report(7, mismatches == 0,
           f"is_multi_subspace vs brute_subspace_check over {checked} candidates "
           f"(all subsets and all subspace pairs of the binary and ternary planes), "
           f"{mismatches} mismatches")


def test_criterion_8_search_determinism():
    cmd = [sys.executable, "-m", "multispace", "search", "--trials", "1000", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    bytes_ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.endswith(b"\n")
    )
    restricted = GeneratorConfig(
        primes=(2, 3), max_components=2, max_ambients=1, policy=TOTAL, seed=7
    )
    restricted_reports = find_formula_discrepancies(restricted, 1000)
    report(8, bytes_ok and restricted_reports == [],
           f"search --trials 1000 --seed 7 byte-identical across two runs ({bytes_ok}); "
           f"k<=2 one-ambient TOTAL yields {len(restricted_reports)} reports over 1000 trials")


def test_criterion_9_substrate_properties():
    rng = random.Random(1009)
    failures = 0

    for _ in range(10**4):
        p = rng.choice([2, 3, 5, 7])
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        m = FpMatrix(p, rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))
        once = rref(m)
        if rref(once.matrix).matrix != once.matrix:
            failures += 1

    for _ in range(10**4):
        ambient = AmbientId("A", rng.choice([2, 3, 5]), rng.randint(1, 4))
        a = random_subspace(rng, ambient)
        b = random_subspace(rng, ambient)
        if a.sum(b).dim + a.intersect(b).dim != a.dim + b.dim:
            failures += 1

    primes = [2, 3, 5, 7, 101, 65537, 999999937, 2147483647]
    for _ in range(10**4):
        p = rng.choice(primes)
        a = FpScalar(rng.randint(1, p - 1), p)
        if fp_inv(fp_inv(a)) != a:
            failures += 1

    report(9, failures == 0,
           f"rref idempotence, modular dimension law, inverse involution: "
           f"3x10^4 randomized checks, {failures} failures")
