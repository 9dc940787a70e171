"""Exception types shared across the library."""

from __future__ import annotations


class MultispaceError(Exception):
    """Base class for all library-specific errors."""


class ZeroInverse(MultispaceError):
    """Raised when inverting the zero residue."""


class DimensionMismatch(MultispaceError):
    """Vector or matrix shapes are inconsistent."""


class AmbientMismatch(MultispaceError):
    """Operands live in different ambient spaces."""


class PolicyMismatch(MultispaceError):
    """Instances combined under different operation policies."""


class EmptyChain(MultispaceError):
    """A combination chain needs at least one term."""


class CapExceeded(MultispaceError):
    """A computation would exceed one of its configured caps."""


class EnumerationTooLarge(CapExceeded):
    """An exhaustive enumeration would exceed the configured cap."""


class SearchTooLarge(CapExceeded):
    """A coefficient search space exceeds the configured cap."""


class TooManyComponents(CapExceeded):
    """Inclusion-exclusion would form more subset meets than its cap allows."""


class ParseError(MultispaceError):
    """Malformed instance file; carries a 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SemanticError(MultispaceError):
    """Well-formed but meaningless instance file content."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
