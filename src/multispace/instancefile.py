"""Line-oriented instance files.

    # comment
    policy TOTAL
    ambient A p=2 n=2
    space V1 in A gen 1,0; 0,1

Sections appear in order: one policy line, then ambients, then spaces.
Lines end at '\n'; one '\r' before it is dropped, so CRLF files read the
same.  Tokens are separated by ASCII spaces and tabs; any other whitespace
character outside a comment (a vertical tab, form feed, lone '\r', no-break
or ideographic space, ...) is a ParseError at its column.  Integers are ASCII
decimal digits with an optional leading '-'.  Vectors are comma-separated
residues already reduced mod p; out-of-range entries are rejected rather than
silently reduced.
"""

from __future__ import annotations

import re

from .core import MultiVectorSpace, OperationPolicy
from .errors import ParseError, SemanticError
from .fp import MAX_PRIME, FpMatrix, is_prime
from .subspace import _LABEL_RE, AmbientId, Subspace, span

# ASCII digits only: int() would also take '+1', '1_0' and non-ASCII digits
_INT_RE = re.compile(r"-?[0-9]+\Z")


_BLANKS = " \t"
_TOKEN_RE = re.compile(r"[^ \t]+")
# whitespace (as str.isspace sees it) other than a space or a tab
_OTHER_SPACE_RE = re.compile(r"[^\S \t]")


def _tokens(line: str, lineno: int) -> list[tuple[str, int]]:
    """Space- and tab-separated tokens with their 1-based starting columns."""
    bad = _OTHER_SPACE_RE.search(line)
    if bad:
        raise ParseError(
            lineno, bad.start() + 1, f"unexpected whitespace character {bad.group()!r}"
        )
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _lines(text: str) -> list[str]:
    """Lines split at '\n' only, each without one trailing '\r'."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def _parse_int(text: str, lineno: int, col: int, what: str) -> int:
    if not _INT_RE.match(text):
        raise ParseError(lineno, col, f"expected an integer {what}, got {text!r}")
    return int(text)


def _parse_keyed(token: str, key: str, lineno: int, col: int) -> int:
    if not token.startswith(key + "="):
        raise ParseError(lineno, col, f"expected {key}=<integer>, got {token!r}")
    return _parse_int(token[len(key) + 1 :], lineno, col + len(key) + 1, f"after {key}=")


def _parse_vectors(
    rest: str, base_col: int, lineno: int, ambient: AmbientId
) -> list[tuple[int, ...]]:
    if not rest.strip(_BLANKS):
        return []
    rows: list[tuple[int, ...]] = []
    offset = 0
    for piece in rest.split(";"):
        piece_col = base_col + offset
        offset += len(piece) + 1
        if not piece.strip(_BLANKS):
            raise ParseError(lineno, piece_col, "empty vector between ';' separators")
        entries = []
        entry_offset = 0
        for chunk in piece.split(","):
            chunk_col = piece_col + entry_offset + (len(chunk) - len(chunk.lstrip(_BLANKS)))
            entry_offset += len(chunk) + 1
            text = chunk.strip(_BLANKS)
            if not text:
                raise ParseError(lineno, chunk_col, "empty vector entry")
            value = _parse_int(text, lineno, chunk_col, "vector entry")
            if not 0 <= value < ambient.p:
                raise SemanticError(
                    lineno, f"entry {value} is not a reduced residue mod {ambient.p}"
                )
            entries.append(value)
        if len(entries) != ambient.n:
            raise SemanticError(
                lineno,
                f"vector of length {len(entries)} in ambient {ambient.label!r} "
                f"of dimension {ambient.n}",
            )
        rows.append(tuple(entries))
    return rows


def parse_instance(text: str) -> MultiVectorSpace:
    """Parse an instance document into a validated MultiVectorSpace."""
    policy: OperationPolicy | None = None
    ambients: dict[str, AmbientId] = {}
    components: list[Subspace] = []
    lineno = 0
    for lineno, raw in enumerate(_lines(text), 1):
        line = raw.split("#", 1)[0]
        tokens = _tokens(line, lineno)
        if not tokens:
            continue
        head, head_col = tokens[0]

        if head == "policy":
            if policy is not None:
                raise ParseError(lineno, head_col, "duplicate policy line")
            if ambients or components:
                raise ParseError(lineno, head_col, "policy line must come first")
            if len(tokens) != 2:
                raise ParseError(lineno, head_col, "usage: policy TOTAL|CLOSED")
            value, col = tokens[1]
            if value not in ("TOTAL", "CLOSED"):
                raise ParseError(lineno, col, f"unknown policy {value!r}")
            policy = OperationPolicy(value)
            continue

        if head == "ambient":
            if policy is None:
                raise ParseError(lineno, head_col, "ambient line before the policy line")
            if components:
                raise ParseError(lineno, head_col, "ambient line after space lines")
            if len(tokens) != 4:
                raise ParseError(lineno, head_col, "usage: ambient <label> p=<prime> n=<dim>")
            label, label_col = tokens[1]
            if not _LABEL_RE.match(label):
                raise ParseError(lineno, label_col, f"invalid ambient label {label!r}")
            if label in ambients:
                raise SemanticError(lineno, f"duplicate ambient label {label!r}")
            p = _parse_keyed(tokens[2][0], "p", lineno, tokens[2][1])
            n = _parse_keyed(tokens[3][0], "n", lineno, tokens[3][1])
            if p > MAX_PRIME or not is_prime(p):
                raise SemanticError(lineno, f"p={p} is not a prime <= 2**31")
            if n < 0:
                raise SemanticError(lineno, f"n={n} must be >= 0")
            ambients[label] = AmbientId(label, p, n)
            continue

        if head == "space":
            if policy is None:
                raise ParseError(lineno, head_col, "space line before the policy line")
            if not ambients:
                raise ParseError(lineno, head_col, "space line before any ambient line")
            if len(tokens) < 5 or tokens[2][0] != "in" or tokens[4][0] != "gen":
                raise ParseError(
                    lineno, head_col, "usage: space <name> in <label> gen <v1>; <v2>; ..."
                )
            name, name_col = tokens[1]
            if not _LABEL_RE.match(name):
                raise ParseError(lineno, name_col, f"invalid space name {name!r}")
            label, label_col = tokens[3]
            ambient = ambients.get(label)
            if ambient is None:
                raise SemanticError(lineno, f"unknown ambient {label!r}")
            gen_end = tokens[4][1] + len("gen") - 1
            rows = _parse_vectors(line[gen_end:], gen_end + 1, lineno, ambient)
            components.append(
                span(ambient, FpMatrix.from_rows(ambient.p, rows, cols=ambient.n))
            )
            continue

        raise ParseError(lineno, head_col, f"unknown directive {head!r}")

    if policy is None:
        raise ParseError(max(lineno, 1), 1, "expected a policy line")
    if not ambients:
        raise ParseError(lineno + 1, 1, "expected at least one ambient line")
    if not components:
        raise ParseError(lineno + 1, 1, "expected at least one space line")
    return MultiVectorSpace(tuple(components), policy)


def format_instance(space: MultiVectorSpace, prefix: str = "") -> str:
    """Render an instance in the file format; round-trips through parse_instance."""
    lines = [f"{prefix}policy {space.policy.value}"]
    for ambient in space.ambients():
        lines.append(f"{prefix}ambient {ambient.label} p={ambient.p} n={ambient.n}")
    for i, comp in enumerate(space.components, 1):
        gens = "; ".join(",".join(str(x) for x in row) for row in comp.rows())
        suffix = f" {gens}" if gens else ""
        lines.append(f"{prefix}space V{i} in {comp.ambient.label} gen{suffix}")
    return "\n".join(lines)
