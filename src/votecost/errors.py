"""Exception types shared across the package, and the one test of a number from outside."""

import math

__all__ = ["VoteCostError", "DomainError", "ConvergenceError", "TruncationLimitError"]


class VoteCostError(Exception):
    """Base class for all package-specific errors."""


class DomainError(VoteCostError, ValueError):
    """An argument lies outside a function's mathematical domain."""


class ConvergenceError(VoteCostError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class TruncationLimitError(VoteCostError, RuntimeError):
    """A truncated-sum evaluation would exceed its configured cell budget."""


def finite_real(value) -> bool:
    """Whether ``value`` is one finite real; a str, None, a complex, an array or 10**400 is not.

    Entry points test ``finite_real(v) and <range comparison>`` (README, "Numerical notes").
    """
    try:
        # an older numpy converts a one-element array to a float, with a warning
        return math.isfinite(value) and not getattr(value, "ndim", 0)
    except (TypeError, ValueError, OverflowError):
        return False
