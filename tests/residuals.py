"""Relative residual of an equilibrium's conditions, for the frontier checks.

``relative_residual`` reads both pivot gains from ``r1_closed`` and
``r2_closed`` and returns the largest defect of the equalities and
inequalities that define the equilibrium's kind, relative to the cost.
``RESIDUAL_BOUND`` is the largest such defect the frontier fuzz and the
property tests accept.
"""

from __future__ import annotations

from votecost import ElectorateParams, Equilibrium, r1_closed, r2_closed

RESIDUAL_BOUND = 1e-8


def relative_residual(params: ElectorateParams, eq: Equilibrium, c: float) -> float:
    """Largest relative defect of the equalities and inequalities of ``eq``."""
    r1, r2 = r1_closed(params, eq.strategies), r2_closed(params, eq.strategies)
    conditions = {
        "coin_toss": (abs(r1 - c), abs(r2 - c)),
        "partial_absenteeism": (abs(r2 - c), r1 - c),
        "no_queue": (r1 - c, r2 - c),
        "minority_swipe": (r1 - c, c - r2),
        "partial_saturation": (abs(r1 - c), c - r2),
        "all_swipe": (c - r1, c - r2),
    }[eq.kind.value]
    return max(0.0, *conditions) / c
