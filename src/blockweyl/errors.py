"""Exception types shared across the package.

The CLI maps these onto process exit codes; see ``blockweyl.cli``.
"""

from __future__ import annotations


class BlockweylError(Exception):
    """Base class for all package errors."""


class StructuralError(BlockweylError, ValueError):
    """Malformed input data: segment ordering, atom placement, shape mismatches.

    ``report``, when set, is a :class:`~blockweyl.measures.ValidationReport`
    of every violation found; the message is the first.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(BlockweylError, ValueError):
    """Problem configuration cannot be parsed or is inconsistent."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class AccuracyError(BlockweylError, RuntimeError):
    """A numerical routine failed to reach its tolerance.

    ``achieved`` carries the best error estimate obtained before giving up.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class SingularTransferError(BlockweylError, RuntimeError):
    """A jump matrix was too ill-conditioned to continue a solution across an atom."""

    def __init__(self, x: float, lam: complex, cond: float):
        super().__init__(
            f"jump matrix at x={x!r} is numerically singular for lambda={lam!r} "
            f"(condition number {cond:.3e})"
        )
        self.x = x
        self.lam = lam
        self.cond = cond


class TheoryViolationError(BlockweylError, RuntimeError):
    """An identity guaranteed by the underlying theory failed numerically.

    Signals either a modelling bug or an input outside the supported hypotheses
    (for instance a spectral parameter too close to an exceptional point).
    """


class DegeneratePointError(BlockweylError, RuntimeError):
    """Poisson-quotient denominator fell below the underflow guard."""
