"""Exception types shared across the package, the input checks they share, and
the one term-budget charge."""

import math

import numpy as np

from . import config


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


def _charge(need: int, what: str, unit: str) -> None:
    """Raise BudgetError if `what` needs more than the term budget's units of work.

    The only reader of the budget: it reads `config.DEFAULT_CONFIG.term_budget`
    at each call, so replacing `qperm.config.DEFAULT_CONFIG` changes every charge.
    """
    budget = config.DEFAULT_CONFIG.term_budget
    if need > budget:
        raise BudgetError(f"{what} needs {need} {unit}, over the term budget {budget}")


def _require_finite(arr, what: str) -> None:
    """Raise ValidationError if `arr` holds a NaN or an infinite entry."""
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must hold finite numbers")
