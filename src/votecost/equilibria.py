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
x_a <= sqrt(2) and otherwise rises to a unique interior peak and falls.
Where the cost lies strictly between its values at the interval ends,
or below one end and not above the other, the ends decide: one root on
the whole interval, or none inside it.  Only where the cost is on or
above both ends does ``find_h_peak`` locate the peak, from the single
sign change of the slope probe ``_i_sign_core``, and each monotone
branch is solved separately.

One root finder, ``_rtsafe``, serves all four roots: Newton's method
safeguarded by bisection on a bracket (Press et al., Numerical Recipes,
section 9.4).  The three families are solved on log residuals,
log g - log 2c and log h - log c, which stay finite where h underflows;
their slopes come from the kernel's own Bessel values
(``special_fn._log_g_slope`` and ``_log_h_slope``), and the peak from
the probe's analytic slope.

The kernel values at the interval ends are the cost frontiers of
``pivot.thresholds``, which each ``ElectorateParams`` evaluates once and
keeps.  The solvers read them from there, so solvers and classifier
compare the cost against the same numbers and no frontier is evaluated
twice.
Where ``ct_admissible`` is false (x_a > n (1 - p_a), ``classify`` case
0), the strategy bound replaces x_a or n (1 - p_a) as an interval end,
and ``_kernel_point`` reads its log value, as it reads the peak's.

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
from functools import partial
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
# g and h are not called here: they stay importable as
# votecost.equilibria.g and .h only because bench/tracing.py wraps them
from .special_fn import SQRT2, _i_sign_core, _log_g_slope, _log_h_slope, g, h  # noqa: F401

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
LOG_2 = math.log(2.0)


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


def _rtsafe(
    fn: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    start: float,
    label: str,
) -> float:
    """Root of f on a bracket with f(lo) and f(hi) of opposite (or zero) sign.

    ``fn(z)`` returns (f(z), step), the Newton step -f(z)/f'(z).  An end
    whose sign is known but whose value was not computed may pass +-inf.
    Safeguarded Newton (rtsafe: Press et al., Numerical Recipes, 3rd ed.,
    section 9.4) from ``start`` (the midpoint if ``start`` is not inside
    the bracket): each evaluation narrows the bracket to the sign change,
    and a Newton step that is not finite, leaves the bracket, or is more
    than half the step before last becomes bisection, so every
    evaluation lies inside the bracket.  A step below
    delta = Z_REL_TOL/2 * max(1, |z|) is lengthened to delta, which
    closes the bracket across a root that Newton has located.  Stops when
    the bracket is narrower than 2 delta, or when no float is left
    inside it, and returns the end with the smaller |f|.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # compare signs, not the product: products of exponentially small
    # values underflow to 0.0 and would defeat the bracket check
    lo_positive = f_lo > 0.0
    if lo_positive == (f_hi > 0.0):
        raise ConvergenceError(f"{label}: endpoints do not bracket a root")
    z_rel_tol, max_iter = Z_REL_TOL, MAX_ITER
    z = start if lo < start < hi else lo + 0.5 * (hi - lo)
    step_old = step_last = hi - lo
    for _ in range(max_iter):
        f, step = fn(z)
        if f == 0.0:
            return z
        if (f > 0.0) == lo_positive:
            lo, f_lo = z, f
        else:
            hi, f_hi = z, f
        delta = 0.5 * z_rel_tol * max(1.0, abs(z))
        mid = lo + 0.5 * (hi - lo)
        if hi - lo < 2.0 * delta or mid == lo or mid == hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        if abs(step) < delta:
            step = math.copysign(delta, step)
        # NaN fails both tests: bisect
        if lo < z + step < hi and abs(step) <= 0.5 * abs(step_old):
            step_old, step_last = step_last, step
            z += step
        else:
            step_old, step_last = step_last, mid - z
            z = mid
    raise ConvergenceError(
        f"{label}: no convergence after {max_iter} iterations "
        f"(bracket width {hi - lo:.3e})"
    )


def _kernel_point(x: float, z: float) -> tuple[float, float]:
    """(z, log h(x, z)) for ``_roots``, by ``_log_h_slope``: finite where h underflows."""
    return z, _log_h_slope(x, z)[0]


def _roots(
    kernel: Callable[[float], tuple[float, float]],
    c: float,
    points: list[tuple[float, float]],
    start: Callable[[float, float, float, float, float], float],
    label: str,
    closed: bool = False,
) -> list[float]:
    """Sorted roots of f(z) = c, f = exp(log f), between consecutive points.

    ``kernel(z)`` returns (log f(z), d log f / dz), and ``points`` are
    (z, log f(z)) in increasing z, chosen so that f crosses c at most
    once between two of them.  A point whose value ``cost_side`` puts
    the cost on is a root itself, the first and last only if ``closed``;
    a piece whose two ends it puts on opposite sides holds one root,
    which ``_rtsafe`` finds on the log residual log f - log c, starting
    at ``start(a, log f(a), b, log f(b), log c)`` on the piece [a, b].
    """
    sides = [cost_side(c, log_f) for _, log_f in points]
    inner = range(len(points)) if closed else range(1, len(points) - 1)
    roots = [points[i][0] for i in inner if sides[i] == 0]
    log_c = math.log(c)  # cost_side has rejected c <= 0

    def residual(z: float) -> tuple[float, float]:
        log_f, slope = kernel(z)
        f = log_f - log_c
        return f, (-f / slope if slope else math.inf)

    for (a, log_a), (b, log_b), s_a, s_b in zip(points, points[1:], sides, sides[1:]):
        if s_a * s_b < 0:
            z0 = start(a, log_a, b, log_b, log_c)
            roots.append(_rtsafe(residual, a, b, log_a - log_c, log_b - log_c, z0, label))
    return sorted(roots)


def _log_log_start(a: float, log_a: float, b: float, log_b: float, log_c: float) -> float:
    """Where log f reaches log c if it is linear in log z on [a, b].

    For large z, log g = log(2 / (pi z)) / 2 + O(1/z), so the coin-toss
    root is found within a few per cent of the bracket.
    """
    return a * (b / a) ** ((log_c - log_a) / (log_b - log_a))


def _gauss_start(x: float) -> Callable[[float, float, float, float, float], float]:
    """Start points for h(x, z) = c on pieces on one side of z = x.

    log h(x, z) = log S(z) - (sqrt(x) - sqrt(z))^2, where log S varies
    slowly: take log S from the two ends, weighted by where log c lies
    between their values, and solve (sqrt(x) - sqrt(z))^2 = log S - log c
    for z on the side of x that the piece lies on.
    """
    root_x = math.sqrt(x)

    def start(a: float, log_a: float, b: float, log_b: float, log_c: float) -> float:
        s_a = log_a + (root_x - math.sqrt(a)) ** 2
        s_b = log_b + (root_x - math.sqrt(b)) ** 2
        depth = s_a + (log_c - log_a) / (log_b - log_a) * (s_b - s_a) - log_c
        if not depth > 0.0:  # NaN too, where an end underflowed
            return a  # not inside the piece: _rtsafe starts at its midpoint
        offset = math.sqrt(depth)
        return (root_x + offset if a >= x else root_x - offset) ** 2

    return start


def _log_half_g(z: float) -> tuple[float, float]:
    # the coin-toss frontiers are g / 2: log g - log 2c = log(g / 2) - log c
    log_g, slope = _log_g_slope(z)
    return log_g - LOG_2, slope


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
    roots = _roots(
        _log_half_g,
        c,
        [(2.0 * params.x_a, ts.log_ct_upper), (2.0 * params.total_b, ts.log_ct_lower)],
        _log_log_start,
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
    throughout).  Otherwise the slope probe ``_i_sign_core`` is positive
    on (0, peak) and negative on (peak, x_a], and ``_rtsafe`` solves for
    its sign change on (0, x_a) with the probe's analytic slope.  Both
    signs are known, so neither end is evaluated.  Newton starts at
    x_a - 1 - 1/(4 x_a), the large-x_a expansion of the peak, and
    usually needs two steps and one closing evaluation.  A peak within
    Z_REL_TOL of 0 (x_a within roundoff of sqrt(2)) is returned as some
    point within that distance of 0.
    """
    if not (x_a > 0.0):
        raise DomainError(f"find_h_peak requires x_a > 0, got {x_a!r}")
    if x_a <= SQRT2:
        return 0.0

    def probe(t: float) -> tuple[float, float]:
        value, slope = _i_sign_core(x_a, t)
        return value, (-value / slope if slope else math.inf)

    start = x_a - 1.0 - 0.25 / x_a
    return _rtsafe(probe, 0.0, x_a, math.inf, -math.inf, start, "h peak")


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
        top = (x_a, ts.log_ct_upper)
    else:
        top = _kernel_point(x_a, params.total_b)
    points = [(z_lo, ts.log_pa_lower), top]
    # the kernel is unimodal, so the end values decide unless c is on or
    # above both: then the peak splits the interval into monotone branches
    if min(cost_side(c, ts.log_pa_lower), cost_side(c, top[1])) >= 0:
        peak = find_h_peak(x_a)
        if z_lo < peak < top[0]:
            points.insert(1, _kernel_point(x_a, peak))
    out = []
    for z in _roots(partial(_log_h_slope, x_a), c, points, _gauss_start(x_a), "absenteeism"):
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
        bottom = (k, ts.log_ct_lower)
    else:
        bottom = _kernel_point(k, x_a)
    roots = _roots(
        partial(_log_h_slope, k),
        c,
        [bottom, (z_hi, ts.log_ps_lower)],
        _gauss_start(k),
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
    r1, r2 = _kernel_point(k, x_a)[1], _kernel_point(x_a, k)[1]
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
