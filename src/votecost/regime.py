"""Designer-facing layer: cost-regime classification and threshold sweeps.

For a large electorate with x_a > sqrt(2) and x_a <= n (1 - p_a), the
four frontiers of :func:`votecost.pivot.thresholds` are strictly ordered
and partition the cost axis into five regimes:

    case 1   c >  ct_upper            0-2 absenteeism equilibria + no-queue
    case 2   ct_lower <= c <= ct_upper  coin toss + absenteeism + no-queue
    case 3   pa_lower <= c < ct_lower   absenteeism + saturation + no-queue
    case 4   ps_lower <= c < pa_lower   exactly one saturation equilibrium
    case 5   c <  ps_lower             only the all-swipe equilibrium

Only case 2 admits the coin toss, in which the majority side is no
longer guaranteed to win; a cost designer must keep c out of that
window (``coin_toss_interval`` / ``recommend_cost``).

The frontiers and the cost are compared in log space, so the cases stay
distinct where pa_lower and ps_lower underflow to 0.0 (n >~ 1e6).
Boundary conventions: whether a cost is below, on or above a frontier
is decided by ``equilibria.cost_side``, the rule the solvers use: "<="
in the table includes a cost on the frontier and "<" excludes it, so
the coin-toss window is closed.  A cost on frontier k (k = 1 for
ct_upper through 4 for ps_lower) is flagged in the notes, and the
solvers' list must fit the prediction of case k or of case k + 1 on
its own (``_PREDICTIONS``).  When the frontiers are not strictly
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
    Equilibrium,
    EquilibriumKind,
    _enumerate,
    _in_window,
    _read_cost,
    cost_side,
    cost_sides,
)
# not called here: kept only for bench/tracing.py, which wraps it in this module
from .equilibria import enumerate_equilibria  # noqa: F401
from .errors import DomainError, finite_real
from .pivot import ElectorateParams, ThresholdSet, log_frontiers, thresholds
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
    """Classification of one cost against the five-regime landscape.

    ``avoid`` is True exactly when the cost's sides of ct_upper and
    ct_lower put it in the closed coin-toss window (case 2, outside case 0).
    """

    case_index: int
    thresholds: ThresholdSet
    equilibria: tuple[Equilibrium, ...]
    avoid: bool
    notes: tuple[str, ...]


def _regime_table(on_pa_lower: bool) -> dict[int, dict[EquilibriumKind, tuple[int, int]]]:
    K = EquilibriumKind
    return {
        1: {K.PARTIAL_ABSENTEEISM: (0, 2), K.NO_QUEUE: (1, 1)},
        2: {K.COIN_TOSS: (1, 1), K.PARTIAL_ABSENTEEISM: (1, 1), K.NO_QUEUE: (1, 1)},
        3: {
            K.PARTIAL_ABSENTEEISM: (0, 0) if on_pa_lower else (1, 1),
            K.PARTIAL_SATURATION: (1, 1),
            K.NO_QUEUE: (1, 1),
        },
        4: {K.PARTIAL_SATURATION: (1, 1)},
        5: {K.ALL_SWIPE: (1, 1)},
    }


# (case, on_pa_lower) -> kind -> (min count, max count) promised by the
# regime table, built once and never changed: ``_ACCEPTED`` expands them,
# and they word the mismatch note.  On pa_lower, case 3's absenteeism
# root is the no-queue corner, which the solvers list once.
_PREDICTIONS = {
    (k, on): t for on in (False, True) for k, t in _regime_table(on).items()
}


def _accepted(table: dict[EquilibriumKind, tuple[int, int]]) -> frozenset:
    # every list of kinds, in EquilibriumKind order (the solvers' order),
    # whose counts fit the table
    lists = [()]
    for kind in EquilibriumKind:
        lo, hi = table.get(kind, (0, 0))
        lists = [kinds + (kind,) * m for kinds in lists for m in range(lo, hi + 1)]
    return frozenset(lists)


# the same tables as the kind lists each accepts, expanded once
_ACCEPTED = {key: _accepted(t) for key, t in _PREDICTIONS.items()}


def _check_prediction(
    case_index: int, keys: list[tuple[int, bool]], eqs: tuple[Equilibrium, ...]
) -> str | None:
    # the listed kinds must be a list that one of the tables accepts on its own
    kinds = tuple([eq.kind for eq in eqs])
    for key in keys:
        if kinds in _ACCEPTED[key]:
            return None
    realized = Counter(kinds)  # in first-seen order
    promised_str = " or ".join(
        "["
        + ", ".join(
            f"{k.value}x{lo}" + (f"-{hi}" if hi != lo else "")
            for k, (lo, hi) in _PREDICTIONS[key].items()
        )
        + "]"
        for key in keys
    )
    realized_str = ", ".join(f"{k.value}x{v}" for k, v in realized.items()) or "none"
    return f"case {case_index} predicts {promised_str} but solvers returned [{realized_str}]"


def classify(params: ElectorateParams, c: float) -> RegimeReport:
    """Classify cost ``c`` and cross-check the prediction against the solvers.

    The case and ``avoid`` come from the one cost reading the solvers
    share.  A mismatch between the regime table and the solvers' list
    is recorded in ``notes``, never reconciled silently.
    """
    reading = _read_cost(params, c)
    ts, _, sides, _, _ = reading
    eqs = tuple(_enumerate(params, c, reading))
    avoid = _in_window(ts, sides)
    ordered = ts.log_ct_upper > ts.log_ct_lower > ts.log_pa_lower > ts.log_ps_lower
    if not (ts.ct_admissible and params.x_a > SQRT2 and ordered):
        return RegimeReport(0, ts, eqs, avoid, (CASE_DESCRIPTIONS[0],))
    # above ct_upper is case 1; otherwise the first frontier the cost is
    # on or above closes its case from below
    case = 1
    if sides[0] <= 0:
        case = 5
        for k in (2, 3, 4):
            if sides[k - 1] >= 0:
                case = k
                break
    notes = []
    cases = {case}
    if 0 in sides:
        for k, (name, side) in enumerate(zip(THRESHOLD_NAMES, sides), start=1):
            if side == 0:
                notes.append(
                    f"cost on the {name} frontier (within the relative slack "
                    f"EPS_CMP): the solution set of case {k} or {k + 1} applies"
                )
                cases |= {k, k + 1}
    on_pa_lower = sides[2] == 0
    mismatch = _check_prediction(case, [(k, on_pa_lower) for k in sorted(cases)], eqs)
    if mismatch is not None:
        notes.append(mismatch)
    return RegimeReport(case, ts, eqs, avoid, tuple(notes))


def coin_toss_interval(params: ElectorateParams) -> tuple[float, float] | None:
    """The closed cost interval admitting a coin toss, or None.

    Absent when the mean A-partisan count exceeds the mean count of all
    B supporters (``ct_admissible`` false); otherwise [ct_lower,
    ct_upper] of ``thresholds``, with its ends read by
    ``equilibria.cost_side``.
    """
    ts = thresholds(params)
    return (ts.ct_lower, ts.ct_upper) if ts.ct_admissible else None


def recommend_cost(params: ElectorateParams, c_min: float) -> float:
    """Lowest feasible cost >= c_min that avoids the coin-toss window.

    Returns c_min unchanged when ``avoid``'s rule puts it outside the
    closed window.  Otherwise steps up from the window's upper bound in
    doubling steps to the first cost that ``cost_side`` puts above it,
    at most about twice as far above the bound as the smallest such.
    """
    ts = thresholds(params)
    # read first, so that cost_sides rejects a c_min that is not > 0
    sides = cost_sides(c_min, (ts.log_ct_upper, ts.log_ct_lower))[1]
    if not _in_window(ts, sides):
        return c_min
    c = math.exp(ts.log_ct_upper)
    step = math.ulp(c)
    while cost_side(c, ts.log_ct_upper) <= 0:
        c, step = c + step, 2.0 * step
    return c


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
        for n in self.n_grid:
            if not finite_real(n):
                raise DomainError(f"n_grid must hold finite reals, got {n!r}")
        if not all(b > a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise DomainError("n_grid must be strictly increasing")
        if len(self.quantities) == 0:
            raise DomainError("quantities must be nonempty")
        unknown = set(self.quantities) - set(THRESHOLD_NAMES)
        if unknown:
            raise DomainError(f"unknown sweep quantities: {sorted(unknown)}")
        # a repeat would print its CSV column twice and its JSON column once
        repeated = {q for q in self.quantities if self.quantities.count(q) > 1}
        if repeated:
            raise DomainError(f"repeated sweep quantities: {sorted(repeated)}")
        # parameter validity is delegated to ElectorateParams; the grid
        # increases strictly, so its two ends bound every point
        ElectorateParams(n=self.n_grid[0], p=self.p, p_a=self.p_a)
        ElectorateParams(n=self.n_grid[-1], p=self.p, p_a=self.p_a)


@dataclass(frozen=True)
class SweepTable:
    """Threshold curves over a population grid.

    The columns are the rows of one ``np.exp`` over ``log_frontiers``;
    README, "Numerical notes", says what ``onset`` and the zeros mean.
    """

    n: np.ndarray
    columns: dict[str, np.ndarray]
    onset: dict[str, int]


def _decrease_onsets(block: np.ndarray) -> list[int]:
    # rows shifted one point right: comparing contiguous rows, not two
    # strided slices, made this about 30% faster
    prev = np.empty_like(block)
    prev[:, 0] = 0.0
    prev[:, 1:] = block[:, :-1]
    rises = block >= prev
    rises &= block > 0.0
    rises[:, 0] = True  # "no rise": the onset is the index of the last True
    return (block.shape[1] - 1 - rises[:, ::-1].argmax(axis=1)).tolist()


def sweep_bounds(spec: SweepSpec) -> SweepTable:
    """Evaluate the requested frontiers on the population grid."""
    n_arr = np.fromiter(spec.n_grid, dtype=float, count=len(spec.n_grid))
    logs = log_frontiers(n_arr, spec.p, spec.p_a)
    if spec.quantities != THRESHOLD_NAMES:
        logs = logs[[THRESHOLD_NAMES.index(q) for q in spec.quantities]]
    block = np.exp(logs)
    columns = dict(zip(spec.quantities, block))
    onset = dict(zip(spec.quantities, _decrease_onsets(block)))
    return SweepTable(n=n_arr, columns=columns, onset=onset)
