"""Exception types shared across the package, and the time check they share."""

import math


class QpermError(Exception):
    """Base class for package errors."""


class ValidationError(QpermError):
    """Input data violates a documented invariant or precondition."""


class BudgetError(QpermError):
    """A combinatorial term budget or resource limit was exceeded."""


def check_time(time: float) -> None:
    """Raise ValidationError unless the time of a semigroup or process is finite and >= 0."""
    if not (time >= 0 and math.isfinite(time)):
        raise ValidationError(f"time must be finite and >= 0, got {time!r}")
