"""Exception types shared across the package."""

from __future__ import annotations


class RicciCritError(Exception):
    """Base class for every error raised by this library."""


class EdgeListParseError(RicciCritError):
    """Malformed edge-list input; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InputFileError(RicciCritError):
    """A named input file is not UTF-8 text; the message names the file."""


class OracleBoundError(RicciCritError):
    """Exhaustive matching enumeration refused: matrix larger than the bound."""


class BudgetExceededError(RicciCritError):
    """Brute-force search space exceeds the configured subset budget."""


class UnsupportedVariantError(RicciCritError):
    """The requested problem variant has no algorithm in this library."""


class InfeasibleInstanceError(RicciCritError):
    """No permissible edit set can flip the curvature sign as demanded."""


class RetryExhaustedError(RicciCritError):
    """A solver could not verify its answer, so nothing is returned.

    Raised when every randomized trial failed to certify a matching or to
    extract its witness, when an edited graph's curvature failed its
    optimality certificate, and when a built edit set failed verification.
    """


class FieldConfigError(RicciCritError):
    """Interpolation degrees or grid size are incompatible with the field."""
