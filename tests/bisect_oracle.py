"""Reference root finder for the equilibrium solvers: plain bisection.

``bisect`` takes the arguments of ``votecost.equilibria._brent``, so a
test can substitute it for the solvers' root finder and compare the two
on the same brackets.  It halves the bracket until its width is below
``equilibria.Z_REL_TOL`` * max(1, |lo|, |hi|) of the initial bracket,
one evaluation per halving, and raises after ``equilibria.MAX_ITER``
halvings; both are read when it runs.
"""

from __future__ import annotations

from typing import Callable

import votecost.equilibria as eqm
from votecost.errors import ConvergenceError


def bisect(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    label: str,
) -> float:
    """Bisection on a bracket with f(lo) and f(hi) of opposite (or zero) sign."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ConvergenceError(f"{label}: endpoints do not bracket a root")
    width_goal = eqm.Z_REL_TOL * max(1.0, abs(lo), abs(hi))
    max_iter = eqm.MAX_ITER
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= width_goal or mid == lo or mid == hi:
            return mid
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise ConvergenceError(
        f"{label}: no convergence after {max_iter} iterations "
        f"(bracket width {hi - lo:.3e})"
    )
