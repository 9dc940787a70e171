"""Command-line front end.

Exit codes: 0 for success (a formula disagreement is a finding, not a
failure), 1 for input errors, 2 for cap overruns.  `search` skips a draw that
hits a cap, goes on, and reports the count as `skipped=<n>` on its summary
line when there is one.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache
from typing import Sequence

from .core import (
    MultiVectorSpace,
    OperationPolicy,
    additive_formula_check,
    dim_greedy,
    dim_inclusion_exclusion,
    greedy_basis,
    is_multi_subspace,
    validate_axioms,
)
from .errors import CapExceeded, MultispaceError
from .instancefile import _INT_RE, format_instance, parse_instance
from .search import GeneratorConfig, find_formula_discrepancies
from .subspace import DEFAULT_ENUMERATION_CAP


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the exit contract reserves
    # 2 for cap overruns, so usage problems are rerouted to exit 1
    def error(self, message):
        raise _UsageError(message)


def _load(path: str, policy: str | None) -> MultiVectorSpace:
    # newline="" hands the parser the file's own line ends, so a file and a
    # string are held to the same grammar
    with open(path, encoding="utf-8", newline="") as handle:
        instance = parse_instance(handle.read())
    if policy is not None:
        instance = replace(instance, policy=OperationPolicy(policy))
    return instance


def _cmd_validate(args) -> int:
    instance = _load(args.file, args.policy)
    report = validate_axioms(instance, enumeration_cap=args.cap)
    print(f"components={len(instance.components)} policy={instance.policy.value}")
    print(f"component-closure=ok checks={report.closure_checks}")
    print(f"cross-associativity=ok checks={report.associativity_checks}")
    print(f"scalar-distributivity=ok checks={report.distributivity_checks}")
    for note in report.notes:
        print(f"note: {note}")
    print("valid=yes")
    return 0


def _cmd_basis(args) -> int:
    instance = _load(args.file, args.policy)
    for vector in greedy_basis(instance):
        print(f"{vector.ambient.label} {','.join(str(x) for x in vector.coords)}")
    return 0


def _cmd_dim(args) -> int:
    instance = _load(args.file, args.policy)
    greedy = dim_greedy(instance)
    ie = dim_inclusion_exclusion(instance)
    print(f"greedy={greedy} inclusion-exclusion={ie} agree={'yes' if greedy == ie else 'no'}")
    return 0


def _cmd_check_subspace(args) -> int:
    parent = _load(args.file, args.policy)
    candidate = _load(args.candidate, args.policy)
    verdict = is_multi_subspace(candidate, parent, enumeration_cap=args.cap)
    print(f"subspace={'yes' if verdict else 'no'}")
    return 0


def _cmd_compare(args) -> int:
    first = _load(args.file, args.policy)
    second = _load(args.other, args.policy)
    report = additive_formula_check(first, second)
    print(
        f"dim-union={report.union_dim} dim-first={report.first_dim} "
        f"dim-second={report.second_dim} dim-intersection={report.intersection_dim} "
        f"additive={report.additive_value} agree={'yes' if report.agree else 'no'}"
    )
    return 0


def _cmd_search(args) -> int:
    policy = OperationPolicy(args.policy) if args.policy else OperationPolicy.TOTAL
    cfg = GeneratorConfig(policy=policy, seed=args.seed)
    reports = find_formula_discrepancies(cfg, args.trials)
    for report in reports:
        print(
            f"discrepancy draw={report.draw} inclusion-exclusion={report.ie_value} "
            f"greedy={report.greedy_value}"
        )
        print(format_instance(report.instance, prefix="  "))
        print()
    skipped = f" skipped={reports.skipped}" if reports.skipped else ""
    print(f"trials={args.trials} findings={len(reports)}{skipped}")
    return 0


def _integer(least: int | None = None):
    """An argparse type for integers written as the instance grammar writes
    them (ASCII digits, an optional leading '-'), of at least `least` if set."""
    def parse(text: str) -> int:
        if not _INT_RE.match(text):
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        value = int(text)
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="multispace", description=__doc__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--policy", choices=["TOTAL", "CLOSED"],
                        help="override the instance file policy")
    # only the enumerating commands take a cap; the dependence search has
    # its own fixed step cap
    capped = argparse.ArgumentParser(add_help=False, parents=[shared])
    capped.add_argument("--cap", type=_integer(1), default=DEFAULT_ENUMERATION_CAP,
                        help="enumeration cap")

    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("validate", parents=[capped], help="axiom report")
    cmd.add_argument("file")
    cmd.set_defaults(func=_cmd_validate)

    cmd = sub.add_parser("basis", parents=[shared], help="greedy basis vectors")
    cmd.add_argument("file")
    cmd.set_defaults(func=_cmd_basis)

    cmd = sub.add_parser("dim", parents=[shared],
                         help="greedy vs inclusion-exclusion dimension")
    cmd.add_argument("file")
    cmd.set_defaults(func=_cmd_dim)

    cmd = sub.add_parser("check-subspace", parents=[capped],
                         help="closure criterion verdict")
    cmd.add_argument("file")
    cmd.add_argument("--candidate", required=True, help="candidate instance file")
    cmd.set_defaults(func=_cmd_check_subspace)

    cmd = sub.add_parser("compare", parents=[shared],
                         help="two-instance additive dimension report")
    cmd.add_argument("file")
    cmd.add_argument("--other", required=True, help="second instance file")
    cmd.set_defaults(func=_cmd_compare)

    cmd = sub.add_parser("search", parents=[shared],
                         help="randomized formula discrepancy search")
    cmd.add_argument("--trials", type=_integer(0), default=100)
    cmd.add_argument("--seed", type=_integer(), default=0)
    cmd.set_defaults(func=_cmd_search)

    return parser


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser, built on the first call and reused: `parse_args` makes a
    fresh namespace each time and keeps nothing between calls."""
    return _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MultispaceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
