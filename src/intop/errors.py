"""Exception types shared across the package.

Numerical failures derive from NumericalError so the CLI can map them to a
distinct exit code; bad arguments stay plain ValueError (IntervalMap: a >= b is
a bad argument, a half-length that underflows to 0 a NumericalError).
"""

__all__ = [
    "NumericalError",
    "NodeComputationError",
    "IllConditionedError",
    "PoleEvaluationError",
    "NonContractionError",
    "SingularDesignError",
    "OracleError",
]


class NumericalError(Exception):
    """A computation failed to meet its accuracy or stability contract."""


class NodeComputationError(NumericalError):
    """Gauss rule not representable in double precision: nodes unordered or
    outside (-1, 1), or a total weight mass that overflows."""


class IllConditionedError(NumericalError):
    """Eigenvector matrix too ill-conditioned to use as a function basis."""


class PoleEvaluationError(NumericalError):
    """A scalar symbol has a pole at an eigenvalue: it evaluated to a
    non-finite value there, or the matrix I +- C that applies a rational
    symbol by a solve is singular to working precision."""


class NonContractionError(NumericalError):
    """Fixed-point iteration is diverging; shrink the interval and restart."""


class SingularDesignError(NumericalError):
    """The inverse design map hit a zero diagonal factor."""


class OracleError(NumericalError):
    """Reference quadrature reached neither its tolerance nor the roundoff
    floor within its depth or panel budget."""
