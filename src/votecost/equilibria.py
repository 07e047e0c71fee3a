"""Root-finding for every type-symmetric equilibrium at a cost.

Each of alpha_a, alpha_b is 0, interior or 1, so an equilibrium has one
of nine support types.  Six occur, distinguished by which non-partisan
groups mix, abstain, or vote for sure:

    coin toss            both alpha interior; both sides indifferent;
                         expected turnouts equal (a tie in expectation)
    partial absenteeism  alpha_a = 0, B-side indifferent
    no queue             (0, 0); only partisans vote
    minority swipe       (0, 1); only B non-partisans vote
    partial saturation   alpha_b = 1, A-side indifferent
    all swipe            (1, 1); everyone votes

The other three, (interior, 0), (1, 0) and (1, interior), never occur:
with alpha_a = 1 or alpha_b = 0 the A total exceeds the B total, so the
A gain is below the B gain, which contradicts each of their conditions.
The minority swipe needs x_a > n (1 - p_a) (``ct_admissible`` false), so
it occurs only in ``classify`` case 0.

Each family with a mixing side reduces to a one-dimensional condition
in an aggregate turnout variable z, solved only over the z of valid
strategies:

    coin toss            g(z) = 2c on [2 x_a, 2 n (1 - p_a)]      (g decreasing)
    partial absenteeism  h(x_a, z) = c on (x_b, min(x_a, n (1 - p_a)))
                                                              (unimodal in z)
    partial saturation   h(n(1-p_a), z) = c on (max(n(1-p_a), x_a), n p_a)
                                                              (decreasing)

and the existence of each pure corner is a pair of inequalities.
The absenteeism kernel z -> h(x_a, z) is strictly decreasing when
x_a <= sqrt(2) and otherwise rises to a unique interior peak and falls;
``find_h_peak`` locates the peak from the single sign change of the
slope probe ``_i_sign_core``, and each monotone branch is solved
separately with Brent's bracketed method (``_brent``), which is correct
in every sub-case.

The kernel values at the interval ends are the cost frontiers of
``pivot.thresholds``, which each ``ElectorateParams`` evaluates once and
keeps.  The solvers read them from there, so solvers and classifier
compare the cost against the same numbers and no frontier is evaluated
twice.
Where ``ct_admissible`` is false (x_a > n (1 - p_a), ``classify`` case
0), the strategy bound replaces x_a or n (1 - p_a) as an interval end,
and one kernel call gives its value.

Boundary conventions.  One rule, ``cost_side``, decides whether a cost
lies below, on or above a kernel value f: on means
|c - f| <= EPS_CMP * max(c, f), compared in log space so that it holds
where f underflows.  The solvers, the existence tests and ``classify``
all decide with it, and never by comparing solved z or alpha values.
Every strategy pair where two families meet has one owner, which lists
it once:

* the coin toss owns both edges of its closed window [ct_lower,
  ct_upper], and notes the family it meets there;
* each pure corner owns its own point: (0, 0), (0, 1) and (1, 1);
* the absenteeism and saturation solvers return only roots strictly
  inside their edge: an end that ``cost_side`` puts the cost on is
  left to its owner.

EPS_CMP is relative: the frontiers range from ~1/2 down to
exponentially small values, where any fixed absolute slack would
swallow whole regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import ConvergenceError, DomainError
from .pivot import (
    ElectorateParams,
    StrategyPair,
    expected_margin,
    r1_closed,
    r2_closed,
    thresholds,
)
from .special_fn import SQRT2, g, h, _i_sign_core

__all__ = [
    "EquilibriumKind",
    "Winner",
    "Equilibrium",
    "cost_side",
    "solve_coin_toss",
    "find_h_peak",
    "solve_partial_absenteeism",
    "no_queue_exists",
    "solve_partial_saturation",
    "all_swipe_exists",
    "enumerate_equilibria",
]

# Tolerances, read when a function runs.  A root finder stops once the
# root is bracketed within Z_REL_TOL * max(1, |z|) and raises after
# MAX_ITER function evaluations; EPS_CMP is the relative slack of
# ``cost_side``.
Z_REL_TOL = 1e-12
MAX_ITER = 200
EPS_CMP = 1e-12


class EquilibriumKind(str, Enum):
    COIN_TOSS = "coin_toss"
    PARTIAL_ABSENTEEISM = "partial_absenteeism"
    NO_QUEUE = "no_queue"
    MINORITY_SWIPE = "minority_swipe"
    PARTIAL_SATURATION = "partial_saturation"
    ALL_SWIPE = "all_swipe"


class Winner(str, Enum):
    A = "A"
    TIE_IN_EXPECTATION = "tie_in_expectation"


@dataclass(frozen=True)
class Equilibrium:
    """One type-symmetric equilibrium with solver diagnostics.

    z_root is the solved aggregate (2(x_a + y_a) for a coin toss, the
    opponent total x_b + y_b for absenteeism, the own total x_a + y_a
    for saturation) and None for the three pure corners.  residual is the
    absolute defect of the defining indifference condition at the
    returned strategies.
    """

    kind: EquilibriumKind
    strategies: StrategyPair
    z_root: float | None
    residual: float
    winner: Winner
    notes: tuple[str, ...] = ()


def cost_side(c: float, log_f: float) -> int:
    """-1, 0 or +1 as the cost ``c`` lies below, on or above f = exp(log_f).

    On means |c - f| <= EPS_CMP * max(c, f), which is
    |log c - log f| <= -log1p(-EPS_CMP).  ``log_f`` may be -inf (a
    kernel value that underflowed); every positive cost is above it.
    A cost that is not > 0 (NaN included) raises ``DomainError``.
    """
    if not (c > 0.0):
        raise DomainError(f"cost must be > 0, got {c!r}")
    gap = math.log(c) - log_f
    slack = -math.log1p(-EPS_CMP)
    if gap > slack:
        return 1
    return -1 if gap < -slack else 0


def _winner_from_margin(margin: float) -> Winner:
    return Winner.A if margin > 0.0 else Winner.TIE_IN_EXPECTATION


def _brent(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    label: str,
) -> float:
    """Root of ``fn`` on a bracket with f(lo) and f(hi) of opposite (or zero) sign.

    Brent-Dekker (Brent 1973, ch. 4; the loop of scipy's ``brentq``):
    secant or inverse quadratic steps while they shrink the bracket fast
    enough, bisection otherwise.  Every evaluation lies inside the
    bracket.  Stops when the half-bracket is below
    Z_REL_TOL/2 * max(1, |x|) at the best point x, or when no float is
    left between x and the midpoint.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # compare signs, not the product: products of exponentially small
    # values underflow to 0.0 and would defeat the bracket check
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ConvergenceError(f"{label}: endpoints do not bracket a root")
    z_rel_tol, max_iter = Z_REL_TOL, MAX_ITER
    x_pre, f_pre, x_cur, f_cur = lo, f_lo, hi, f_hi
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(max_iter):
        if (f_pre > 0.0) != (f_cur > 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * z_rel_tol * max(1.0, abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        mid = x_cur + s_bis
        if abs(s_bis) < delta or mid == x_cur or mid == x_blk:
            return x_cur
        s_try = math.nan  # NaN fails the acceptance test below: bisect
        # |f_cur| < |f_pre| keeps x_pre and x_cur apart, and the bracket
        # check above keeps x_blk and x_cur apart
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                num, den = -f_cur * (x_cur - x_pre), f_cur - f_pre
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                num = -f_cur * (f_blk * d_blk - f_pre * d_pre)
                den = d_blk * d_pre * (f_blk - f_pre)
            # the product underflows to 0.0 for tiny residuals, as at the
            # costs of ~1e-200 that regime 4 has at n ~ 1e7
            if den != 0.0:
                s_try = num / den
        # take a step toward x_blk that cuts the bracket to 3/4 or less:
        # every evaluation then stays inside the bracket (Brent's rule)
        if s_try * s_bis > 0.0 and 2.0 * abs(s_try) < min(
            abs(s_pre), 3.0 * abs(s_bis) - delta
        ):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = fn(x_cur)
        if f_cur == 0.0:
            return x_cur
    raise ConvergenceError(
        f"{label}: no convergence after {max_iter} iterations "
        f"(bracket width {abs(x_blk - x_cur):.3e})"
    )


def _kernel_point(x: float, z: float, c: float) -> tuple[float, float, float]:
    """(z, log h(x, z), h(x, z) - c) for ``_roots``; log -inf where h underflows."""
    value = h(x, z)
    return z, (math.log(value) if value > 0.0 else -math.inf), value - c


def _roots(
    fn: Callable[[float], float],
    c: float,
    points: list[tuple[float, float, float]],
    label: str,
    closed: bool = False,
) -> list[float]:
    """Sorted roots of fn(z) = kernel(z) - c over consecutive monotone pieces.

    ``points`` are (z, log kernel(z), fn(z)) at the ends of the monotone
    pieces, in increasing z.  A point whose kernel value ``cost_side``
    puts the cost on is a root itself, the first and last only if
    ``closed``; a piece whose two ends it puts on opposite sides holds
    one root, which ``_brent`` finds.
    """
    sides = [cost_side(c, log_f) for _, log_f, _ in points]
    inner = range(len(points)) if closed else range(1, len(points) - 1)
    roots = [points[i][0] for i in inner if sides[i] == 0]
    for (a, _, f_a), (b, _, f_b), s_a, s_b in zip(points, points[1:], sides, sides[1:]):
        if s_a * s_b < 0:
            roots.append(_brent(fn, a, b, f_a, f_b, label))
    return sorted(roots)


def solve_coin_toss(params: ElectorateParams, c: float) -> Equilibrium | None:
    """The unique interior mixed equilibrium, if the cost admits one.

    Exists iff ct_lower <= c <= ct_upper on the closed window that
    ``cost_side`` reads, which requires x_a <= n (1 - p_a)
    (``ct_admissible``).  The defining condition g(z) = 2c is solved
    on [2 x_a, 2 n (1 - p_a)], where g falls from 2 ct_upper to
    2 ct_lower; a cost on a bound takes that end, where alpha_a = 0 or
    alpha_b = 1, and notes the absenteeism or saturation family met
    there.  Both alpha values are recovered from the root and the
    equal-turnout identity.  A cost outside (0, 1/2) raises
    ``DomainError`` unless ``cost_side`` puts it on a ct_upper within
    EPS_CMP of 1/2.
    """
    ts = thresholds(params)
    if not (0.0 < c < 0.5 or (c >= 0.5 and cost_side(c, ts.log_ct_upper) == 0)):
        raise DomainError(
            f"coin-toss costs must lie in (0, 1/2) since pivot gains never "
            f"exceed 1/2, got {c!r}"
        )
    if not ts.ct_admissible:
        return None
    target = 2.0 * c
    roots = _roots(
        lambda t: g(t) - target,
        c,
        [
            (2.0 * params.x_a, ts.log_ct_upper, 2.0 * ts.ct_upper - target),
            (2.0 * params.total_b, ts.log_ct_lower, 2.0 * ts.ct_lower - target),
        ],
        "coin toss",
        closed=True,
    )
    if not roots:
        return None
    z = roots[0]
    turnout = 0.5 * z
    alpha_a = (turnout - params.x_a) / params.m_a
    alpha_a = min(1.0, max(0.0, alpha_a))
    alpha_b = (
        params.p * (2.0 * params.p_a - 1.0) + params.p_a * (1.0 - params.p) * alpha_a
    ) / ((1.0 - params.p) * (1.0 - params.p_a))
    alpha_b = min(1.0, max(0.0, alpha_b))
    s = StrategyPair(alpha_a, alpha_b)
    residual = max(abs(r1_closed(params, s) - c), abs(r2_closed(params, s) - c))
    return Equilibrium(
        kind=EquilibriumKind.COIN_TOSS,
        strategies=s,
        z_root=z,
        residual=residual,
        winner=Winner.TIE_IN_EXPECTATION,
        notes=tuple(
            f"coincides with {kind.value} solution"
            for kind, log_f in (
                (EquilibriumKind.PARTIAL_ABSENTEEISM, ts.log_ct_upper),
                (EquilibriumKind.PARTIAL_SATURATION, ts.log_ct_lower),
            )
            if cost_side(c, log_f) == 0
        ),
    )


def find_h_peak(x_a: float) -> float:
    """Maximizer of z -> h(x_a, z) on [0, inf).

    Returns 0 when x_a <= sqrt(2) (the kernel is then decreasing
    throughout).  Otherwise the slope probe is positive near 0 and
    negative at z = x_a, and its unique sign change is solved for.  If no
    positive probe value is found above z = 1e-13 x_a (possible only
    for x_a within roundoff of sqrt(2)), the peak is indistinguishable
    from 0 at double precision and 0 is returned.
    """
    if not (x_a > 0.0):
        raise DomainError(f"find_h_peak requires x_a > 0, got {x_a!r}")
    if x_a <= SQRT2:
        return 0.0
    f_hi = _i_sign_core(x_a, x_a)
    lo = 0.5 * x_a
    f_lo = _i_sign_core(x_a, lo)
    floor = 1e-13 * x_a
    while f_lo <= 0.0 and lo > floor:
        lo *= 0.5
        f_lo = _i_sign_core(x_a, lo)
    if f_lo <= 0.0:
        return 0.0
    return _brent(lambda t: _i_sign_core(x_a, t), lo, x_a, f_lo, f_hi, "h peak")


def _balance_note(margin: float) -> tuple[str, ...]:
    if margin <= 0.0:
        return ("expected turnouts equal: sits on the mixed-equilibrium boundary",)
    return ()


def solve_partial_absenteeism(params: ElectorateParams, c: float) -> list[Equilibrium]:
    """All equilibria with alpha_a = 0 and the B side indifferent.

    Solves h(x_a, z) = c for the opponent total z on
    (x_b, min(x_a, n (1 - p_a))), where alpha_b runs inside (0, 1),
    split at the kernel peak into at most two monotone branches, so 0, 1
    or 2 roots are found.  The kernel values at the interval ends are
    pa_lower and ct_upper (one kernel call at z = n (1 - p_a) where
    ``ct_admissible`` is false).  A cost on an end value has its root
    at that end, which belongs to the no-queue corner, the coin toss or
    the minority-swipe corner, and is not returned here.
    """
    ts = thresholds(params)
    x_a, z_lo = params.x_a, params.x_b
    if ts.ct_admissible:  # h(x_a, x_a) = g(2 x_a) / 2
        top = (x_a, ts.log_ct_upper, ts.ct_upper - c)
    else:
        top = _kernel_point(x_a, params.total_b, c)
    points = [(z_lo, ts.log_pa_lower, ts.pa_lower - c), top]
    peak = find_h_peak(x_a)
    if z_lo < peak < top[0]:
        points.insert(1, _kernel_point(x_a, peak, c))
    out = []
    for z in _roots(lambda t: h(x_a, t) - c, c, points, "absenteeism"):
        s = StrategyPair(0.0, (z - z_lo) / (params.total_b - z_lo))
        margin = x_a - z
        out.append(
            Equilibrium(
                kind=EquilibriumKind.PARTIAL_ABSENTEEISM,
                strategies=s,
                z_root=z,
                residual=abs(r2_closed(params, s) - c),
                winner=_winner_from_margin(margin),
                notes=_balance_note(margin),
            )
        )
    return out


def no_queue_exists(params: ElectorateParams, c: float) -> bool:
    """Whether (0, 0) is an equilibrium: c on or above h(x_a, x_b).

    The A-side inequality is implied (its gain at (0,0) is the smaller
    of the two), so only the B-side bound h(x_a, x_b) = pa_lower
    matters.
    """
    return cost_side(c, thresholds(params).log_pa_lower) >= 0


def solve_partial_saturation(params: ElectorateParams, c: float) -> Equilibrium | None:
    """The equilibrium with alpha_b = 1 and the A side indifferent, if any.

    Solves h(n(1-p_a), z) = c for the own total z on
    (max(n(1-p_a), x_a), n p_a), where alpha_a runs inside (0, 1) and
    the kernel is strictly decreasing (its peak lies left of the
    interval), so the root is unique.  Exists iff c lies strictly
    between the kernel values at the two ends: ps_lower at z = n p_a
    and ct_lower at z = n(1-p_a) (one kernel call at z = x_a where
    ``ct_admissible`` is false).  A cost on an end value belongs to the
    all-swipe corner, the coin toss or the minority-swipe corner.
    """
    ts = thresholds(params)
    k, x_a, z_hi = params.total_b, params.x_a, params.total_a
    if ts.ct_admissible:  # h(k, k) = g(2 n (1-p_a)) / 2
        bottom = (k, ts.log_ct_lower, ts.ct_lower - c)
    else:
        bottom = _kernel_point(k, x_a, c)
    roots = _roots(
        lambda t: h(k, t) - c,
        c,
        [bottom, (z_hi, ts.log_ps_lower, ts.ps_lower - c)],
        "saturation",
    )
    if not roots:
        return None
    z = roots[0]
    s = StrategyPair((z - x_a) / (z_hi - x_a), 1.0)
    margin = z - k
    return Equilibrium(
        kind=EquilibriumKind.PARTIAL_SATURATION,
        strategies=s,
        z_root=z,
        residual=abs(r1_closed(params, s) - c),
        winner=_winner_from_margin(margin),
        notes=_balance_note(margin),
    )


def all_swipe_exists(params: ElectorateParams, c: float) -> bool:
    """Whether (1, 1) is an equilibrium: c on or below h(n(1-p_a), n p_a).

    The B-side inequality is implied (its gain at (1,1) is the larger of
    the two), so only the A-side bound ps_lower matters.
    """
    return cost_side(c, thresholds(params).log_ps_lower) <= 0


def _minority_swipe_exists(params: ElectorateParams, c: float) -> bool:
    """Whether (0, 1) is an equilibrium: h(n(1-p_a), x_a) <= c <= h(x_a, n(1-p_a)).

    The A gain (left) is below the B gain (right) only where
    x_a > n (1 - p_a), so the corner is tested only where
    ``ct_admissible`` is false; where x_a = n (1 - p_a) it is the coin
    toss.  The kernel arguments are those of the solvers' end points,
    so the corner and the end roots they leave to it read the same bits.
    """
    if thresholds(params).ct_admissible:
        return False
    k, x_a = params.total_b, params.x_a
    r1, r2 = _kernel_point(k, x_a, c)[1], _kernel_point(x_a, k, c)[1]
    return cost_side(c, r1) >= 0 and cost_side(c, r2) <= 0


def _corner_equilibrium(
    params: ElectorateParams, kind: EquilibriumKind, alpha_a: float, alpha_b: float
) -> Equilibrium:
    s = StrategyPair(alpha_a, alpha_b)
    return Equilibrium(
        kind=kind,
        strategies=s,
        z_root=None,
        residual=0.0,
        winner=_winner_from_margin(expected_margin(params, s)),
    )


def enumerate_equilibria(params: ElectorateParams, c: float) -> list[Equilibrium]:
    """Every type-symmetric equilibrium at cost ``c``, each listed once.

    The order follows the path of the families: coin toss, absenteeism,
    (0, 0), (0, 1), saturation, (1, 1).  A strategy pair where two
    families meet is listed by its owner alone (see the module
    docstring).

    The mixed solver is skipped where ``cost_side`` puts ``c`` above
    ct_upper, which holds for every cost of 1/2 and above except one
    within EPS_CMP of a ct_upper just below 1/2.  Every solver compares
    ``c`` against the same frontiers, ``thresholds(params)``.
    """
    if not (c > 0.0):
        raise DomainError(f"cost must be > 0, got {c!r}")
    K = EquilibriumKind
    above_window = cost_side(c, thresholds(params).log_ct_upper) > 0
    found = [] if above_window else [solve_coin_toss(params, c)]
    found += solve_partial_absenteeism(params, c)
    if no_queue_exists(params, c):
        found.append(_corner_equilibrium(params, K.NO_QUEUE, 0.0, 0.0))
    if _minority_swipe_exists(params, c):
        found.append(_corner_equilibrium(params, K.MINORITY_SWIPE, 0.0, 1.0))
    found.append(solve_partial_saturation(params, c))
    if all_swipe_exists(params, c):
        found.append(_corner_equilibrium(params, K.ALL_SWIPE, 1.0, 1.0))
    return [eq for eq in found if eq is not None]
