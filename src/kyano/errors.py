"""Exception types, the form of a value an error message echoes, and the rule for a tolerance."""

import math


def clipped(value) -> str:
    """``repr(value)``, cut to 60 characters and ``...`` where longer."""
    return (text := repr(value))[:60] + "..." * (len(text) > 60)


def require_tolerances(**tols: float) -> None:
    """A ValueError naming the first of ``tols`` that is not a finite number at least 0."""
    for name, tol in tols.items():
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"{name} must be a finite number at least 0, got {tol!r}")


class KyanoError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(KyanoError):
    """Rejected expression source.

    Carries the 0-based byte offset of the offending token so callers can
    point at the exact position in the input string.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class SingularEvaluation(KyanoError):
    """Evaluation hit a pole or left a function's domain.

    Raised for division by zero, sqrt/ln of non-positive arguments, abs at
    zero (where the derivative is undefined), tan at a pole, and non-integer
    powers of non-positive bases.
    """


class DomainError(KyanoError):
    """Point lies outside the admissible chart domain of a metric."""


class SingularMetric(DomainError):
    """Metric matrix is not invertible at the requested point."""


class SymplecticRejection(KyanoError):
    """A two-form failed one of the checks required of a symplectic form.

    ``reason`` is one of ``"odd-dimension"``, ``"degenerate"``,
    ``"not-covariant-constant"``, ``"not-closed"``.
    """

    def __init__(self, reason: str, detail: str = ""):
        msg = reason if not detail else f"{reason}: {detail}"
        super().__init__(msg)
        self.reason = reason
