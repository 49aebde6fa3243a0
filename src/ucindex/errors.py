"""Exception hierarchy for the ucindex package.

Every domain failure raises a subclass of :class:`UcindexError`, so callers
(including the CLI, which maps them to exit code 1) can catch one base type.
Usage errors at the command line are handled by argparse and are not part of
this hierarchy; OS-level read and write failures propagate as ``OSError``.
"""

from __future__ import annotations


class UcindexError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(UcindexError):
    """Two inputs that must agree in shape or length do not."""


class NonFiniteValue(UcindexError):
    """A value that must be finite is NaN or infinite."""


class WindowOutOfRange(UcindexError):
    """A lag window extends before the first recorded period."""


class BadWindow(UcindexError):
    """A window matrix is unusable: fewer than 2 rows, or row count mismatch."""


class SeriesTooShort(UcindexError):
    """No period admits a full lag window, or a series has no periods at all."""


class ConfigMismatch(UcindexError):
    """Two indicator series being compared were built under different settings."""


class NegativeIndicator(UcindexError):
    """An ingested indicator value is negative (indicators are sums of absolute values)."""


class BudgetExceeded(UcindexError):
    """A compliance mapping costs more than the resource limit allows."""


class FixtureMismatch(UcindexError):
    """A fixture's computed totals differ from the totals it declares."""


class InvalidScenario(UcindexError):
    """A scenario definition violates its own constraints."""


class ParseError(UcindexError):
    """An input document is malformed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonMonotonicTime(ParseError):
    """Period indices in a series file are not consecutive from 1."""


class RaggedRow(ParseError):
    """A data row has a different number of fields than the header."""


class NonBinaryEntry(ParseError):
    """A compliance-matrix token is not the literal ``0`` or ``1``."""

