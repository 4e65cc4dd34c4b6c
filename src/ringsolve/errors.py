"""Exception types shared across the package.

``NumericalError`` subclasses signal conditions of the mathematical problem
itself (zero diagonal, divergent iteration, no convergent method, unsuitable
reduction); the CLI maps them to exit status 2.  Malformed input files
raise ``ParseError``, which the CLI maps to exit status 1 together with
ordinary ``ValueError`` precondition failures.
"""

__all__ = [
    "NumericalError",
    "ZeroDiagonalError",
    "DivergenceError",
    "NoConvergentMethodError",
    "ReductionError",
    "ParseError",
]


class NumericalError(Exception):
    """A mathematically unsolvable or failed computation."""


class ZeroDiagonalError(NumericalError):
    """A diagonal entry is zero, so no stationary sweep is defined."""


class DivergenceError(NumericalError):
    """An iterate overflowed or became non-finite during a solve."""


class NoConvergentMethodError(NumericalError):
    """Every stationary method has an estimated spectral radius >= 1."""


class ReductionError(NumericalError):
    """The singular-system reduction was applied to an unsuitable matrix."""


class ParseError(ValueError):
    """A malformed input file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
