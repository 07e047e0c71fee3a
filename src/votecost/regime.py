"""Designer-facing layer: cost-regime classification and threshold sweeps.

For a large electorate with x_a > sqrt(2) and x_a <= n (1 - p_a), the
four frontiers of :func:`votecost.pivot.thresholds` are strictly ordered
and partition the cost axis into five regimes:

    case 1   c >  ct_upper            0-2 absenteeism equilibria + no-queue
    case 2   ct_lower <= c <= ct_upper  coin toss + absenteeism + no-queue
    case 3   pa_lower <= c < ct_lower   absenteeism + saturation + no-queue
    case 4   ps_lower <= c <= pa_lower  exactly one saturation equilibrium
    case 5   c <  ps_lower             only the all-swipe equilibrium

Only case 2 admits the coin toss, in which the majority side is no
longer guaranteed to win; a cost designer must keep c out of that
window (``coin_toss_interval`` / ``recommend_cost``).

The frontiers and the cost are compared in log space, so the cases stay
distinct where pa_lower and ps_lower underflow to 0.0 (n >~ 1e6).
Costs within ``eps_cmp`` (relative) of a frontier are assigned to the
lower-numbered case and flagged.  When the frontiers are not strictly
ordered at the given parameters (small populations, or x_a above the
admissibility bound), the classifier reports case 0 with the realized
equilibrium list and no case prediction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .equilibria import (
    DEFAULT_SOLVER_CONFIG,
    Equilibrium,
    EquilibriumKind,
    SolverConfig,
    enumerate_equilibria,
)
from .errors import DomainError
from .pivot import (
    ElectorateParams,
    ThresholdSet,
    log_coin_toss_bounds,
    log_frontiers,
    thresholds,
)
from .special_fn import SQRT2

__all__ = [
    "RegimeReport",
    "SweepSpec",
    "SweepTable",
    "classify",
    "coin_toss_interval",
    "recommend_cost",
    "sweep_bounds",
    "THRESHOLD_NAMES",
]

THRESHOLD_NAMES = ("ct_upper", "ct_lower", "pa_lower", "ps_lower")

CASE_DESCRIPTIONS = {
    0: "pre-asymptotic: frontiers not strictly ordered; enumeration only",
    1: "cost above the coin-toss ceiling",
    2: "coin-toss window (avoid)",
    3: "between the absenteeism floor and the coin-toss floor",
    4: "between the saturation and absenteeism floors",
    5: "below the saturation floor",
}


@dataclass(frozen=True)
class RegimeReport:
    """Classification of one cost against the five-regime landscape."""

    case_index: int
    thresholds: ThresholdSet
    equilibria: tuple[Equilibrium, ...]
    avoid: bool
    notes: tuple[str, ...]


def _case_for_cost(log_c: float, logs: list[float], log_slack: float) -> int:
    # c >= f - eps * max(c, f)  <=>  log c >= log f - log_slack
    for case, log_f in enumerate(logs, start=1):
        if log_c >= log_f - log_slack:
            return case
    return 5


def predicted_kinds(case_index: int) -> dict[EquilibriumKind, tuple[int, int]]:
    """Kind -> (min count, max count) promised by the regime table."""
    K = EquilibriumKind
    table = {
        1: {K.PARTIAL_ABSENTEEISM: (0, 2), K.NO_QUEUE: (1, 1)},
        2: {K.COIN_TOSS: (1, 1), K.PARTIAL_ABSENTEEISM: (1, 1), K.NO_QUEUE: (1, 1)},
        3: {
            K.PARTIAL_ABSENTEEISM: (1, 1),
            K.PARTIAL_SATURATION: (1, 1),
            K.NO_QUEUE: (1, 1),
        },
        4: {K.PARTIAL_SATURATION: (1, 1)},
        5: {K.ALL_SWIPE: (1, 1)},
    }
    return table[case_index]


def _check_prediction(case_index: int, eqs: tuple[Equilibrium, ...]) -> str | None:
    promised = predicted_kinds(case_index)
    realized = Counter(eq.kind for eq in eqs)
    for kind in EquilibriumKind:
        lo, hi = promised.get(kind, (0, 0))
        if not (lo <= realized.get(kind, 0) <= hi):
            promised_str = ", ".join(
                f"{k.value}x{lo}" + (f"-{hi}" if hi != lo else "")
                for k, (lo, hi) in promised.items()
            )
            realized_str = ", ".join(f"{k.value}x{v}" for k, v in realized.items()) or "none"
            return (
                f"case {case_index} predicts [{promised_str}] "
                f"but solvers returned [{realized_str}]"
            )
    return None


def classify(
    params: ElectorateParams, c: float, cfg: SolverConfig | None = None
) -> RegimeReport:
    """Classify cost ``c`` and cross-check the prediction against the solvers.

    A mismatch between the regime table and the realized equilibrium set
    is recorded in ``notes``, never reconciled silently.
    """
    cfg = cfg or DEFAULT_SOLVER_CONFIG
    if not (c > 0.0):
        raise DomainError(f"cost must be > 0, got {c!r}")
    ts = thresholds(params)
    eqs = tuple(enumerate_equilibria(params, c, cfg, ts))
    notes: list[str] = []
    logs = [ts.log_ct_upper, ts.log_ct_lower, ts.log_pa_lower, ts.log_ps_lower]
    ordered = logs[0] > logs[1] > logs[2] > logs[3]
    if not (ts.ct_admissible and params.x_a > SQRT2 and ordered):
        case = 0
        notes.append(CASE_DESCRIPTIONS[0])
    else:
        log_c = math.log(c)
        # |c - f| <= eps_cmp * max(c, f)  <=>  |log c - log f| <= log_slack
        log_slack = -math.log1p(-cfg.eps_cmp)
        for name, log_f in zip(THRESHOLD_NAMES, logs):
            if abs(log_c - log_f) <= log_slack:
                notes.append(
                    f"cost within eps_cmp of the {name} frontier; assigned to the "
                    f"lower-numbered case by convention"
                )
        case = _case_for_cost(log_c, logs, log_slack)
        mismatch = _check_prediction(case, eqs)
        if mismatch is not None:
            notes.append(mismatch)
    avoid = any(eq.kind is EquilibriumKind.COIN_TOSS for eq in eqs)
    return RegimeReport(
        case_index=case,
        thresholds=ts,
        equilibria=eqs,
        avoid=avoid,
        notes=tuple(notes),
    )


def coin_toss_interval(params: ElectorateParams) -> tuple[float, float] | None:
    """The open cost interval admitting a coin toss, or None.

    Absent when the mean A-partisan count exceeds the mean count of all
    B supporters; otherwise (g(2 n (1-p_a))/2, g(2 x_a)/2).
    """
    if params.x_a > params.total_b:
        return None
    upper, lower = np.exp(log_coin_toss_bounds(params.x_a, params.total_b)).tolist()
    return (lower, upper)


def recommend_cost(
    params: ElectorateParams, c_min: float, cfg: SolverConfig | None = None
) -> float:
    """Smallest feasible cost >= c_min that avoids the coin-toss window.

    Returns c_min unchanged when it already lies outside the (open)
    window; otherwise the window's upper bound plus eps_cmp.
    """
    cfg = cfg or DEFAULT_SOLVER_CONFIG
    if not (c_min > 0.0):
        raise DomainError(f"c_min must be > 0, got {c_min!r}")
    interval = coin_toss_interval(params)
    if interval is None:
        return c_min
    lower, upper = interval
    if c_min <= lower or c_min >= upper:
        return c_min
    return upper + cfg.eps_cmp


@dataclass(frozen=True)
class SweepSpec:
    """A population sweep at fixed shares p and p_a."""

    p: float
    p_a: float
    n_grid: tuple[float, ...]
    quantities: tuple[str, ...] = THRESHOLD_NAMES

    def __post_init__(self):
        if len(self.n_grid) == 0:
            raise DomainError("n_grid must be nonempty")
        if not all(b > a for a, b in zip(self.n_grid, self.n_grid[1:])):  # rejects NaN too
            raise DomainError("n_grid must be strictly increasing")
        if len(self.quantities) == 0:
            raise DomainError("quantities must be nonempty")
        unknown = set(self.quantities) - set(THRESHOLD_NAMES)
        if unknown:
            raise DomainError(f"unknown sweep quantities: {sorted(unknown)}")
        # parameter validity is delegated to ElectorateParams; the grid
        # increases strictly, so its two ends bound every point
        ElectorateParams(n=self.n_grid[0], p=self.p, p_a=self.p_a)
        ElectorateParams(n=self.n_grid[-1], p=self.p, p_a=self.p_a)


@dataclass(frozen=True)
class SweepTable:
    """Threshold curves over a population grid.

    ``onset[q]`` is the first grid index from which column q decreases
    strictly through the end of the grid (the frontiers are guaranteed
    to decrease only eventually, so the onset is reported, not assumed
    to be zero).  The exponentially decaying frontiers underflow to
    exactly 0.0 beyond some population size; such trailing zeros count
    as having reached the floor and do not move the onset.  The
    columns are the exponentials of ``log_frontiers``; use that function
    where the values below the underflow floor matter.
    """

    n: np.ndarray
    columns: dict[str, np.ndarray]
    onset: dict[str, int]


def _decrease_onset(col: np.ndarray) -> int:
    positive = np.nonzero(col > 0.0)[0]
    # keep one zero after the last positive entry: the drop to the
    # underflow floor is itself a decrease, the flat zeros after are not
    end = len(col) if len(positive) == 0 else min(len(col), int(positive[-1]) + 2)
    # the onset follows the last step that does not decrease
    rises = np.nonzero(np.diff(col[:end]) >= 0.0)[0]
    return int(rises[-1]) + 1 if len(rises) else 0


def sweep_bounds(spec: SweepSpec) -> SweepTable:
    """Evaluate the requested frontiers on the population grid."""
    n_arr = np.asarray(spec.n_grid, dtype=float)
    logs = dict(zip(THRESHOLD_NAMES, log_frontiers(n_arr, spec.p, spec.p_a)))
    columns = {q: np.exp(logs[q]) for q in spec.quantities}
    onset = {q: _decrease_onset(col) for q, col in columns.items()}
    return SweepTable(n=n_arr, columns=columns, onset=onset)
