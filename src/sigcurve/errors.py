"""Exception taxonomy shared across the package."""

from __future__ import annotations


class SigcurveError(Exception):
    """Base class for all package errors."""


class RingMismatchError(SigcurveError):
    """Two polynomials from different rings were combined."""


class UnknownVariableError(SigcurveError):
    """A variable name is not part of the ring."""


class PoleError(SigcurveError, ZeroDivisionError):
    """A rational function was evaluated at a zero of its denominator."""


class ParseError(SigcurveError):
    """Polynomial expression could not be parsed; carries line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InvalidCurveError(SigcurveError, ValueError):
    """The input polynomial defines no reduced plane curve (it is constant
    or has a repeated factor)."""


class ExceptionalCurveError(SigcurveError):
    """The curve fails the regularity conditions for the requested group."""

    def __init__(self, reason: str):
        super().__init__(f"exceptional: {reason}")
        self.reason = reason


class VerticalLineError(ExceptionalCurveError):
    """F_y vanishes identically: the curve is a union of vertical lines."""

    def __init__(self):
        super().__init__("vertical-line curve (F_y = 0)")


class TruncationError(SigcurveError):
    """Series truncation too small to certify a nonzero leading coefficient."""


class ShearRequiredError(SigcurveError):
    """The curve violates the chart conditions at infinity; shear and retry."""


class NonIntegralSymmetryError(SigcurveError):
    """Degree formula did not divide evenly; carries the three quantities."""

    def __init__(self, total: int, divisor: int, label: str):
        super().__init__(
            f"inconsistent n: {label} {total} is not divisible by {divisor}"
        )
        self.total = total
        self.divisor = divisor
