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

Only the coin toss is a tie in expectation.  Every other family elects
A, by where it lies: an absenteeism root strictly inside its interval below
has z < x_a, a saturation root z > n (1 - p_a), and the corner margins
x_a - x_b, x_a - n (1 - p_a) and n (2 p_a - 1) are positive (by
``ElectorateParams``, ``ct_admissible`` false and p_a > 1/2).

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
x_a <= sqrt(2) and otherwise rises to a unique interior peak and falls,
so the interval ends decide unless the cost is on or above both.  Then
a cost above 1/sqrt(2 pi (x_a - 3/2)), which no peak reaches, has no
root; only below that bound does ``find_h_peak`` locate the peak, from
the single sign change of the slope probe ``_i_sign_core``, and each
monotone branch is solved separately.

``enumerate_equilibria`` reads the cost once, against the four
frontiers and, in case 0, the two strategy bounds; every solver and
corner decides from those sides, and no root search starts where they
rule a root out; ``classify`` shares that reading.  One root finder,
``_rtsafe``, serves all four roots; ``cost_side`` decides whether a
cost is below, on or above a kernel value, and ``_in_window`` whether
it lies in the coin-toss window.  README, "Numerical notes", has all three.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .errors import ConvergenceError, DomainError, finite_real
from .pivot import (
    ElectorateParams,
    StrategyPair,
    ThresholdSet,
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
    "cost_sides",
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
LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    returned strategies.  ``winner`` is a tie only for a coin toss.
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
    A cost that is not > 0 (NaN included) or finite, or that does not
    compare as one real number (a str, None, an array), raises
    ``DomainError``.
    """
    return cost_sides(c, (log_f,))[1][0]


def cost_sides(c: float, log_fs: Sequence[float]) -> tuple[float, list[int]]:
    """log c and ``cost_side(c, log_f)`` for each of ``log_fs``, with one check of ``c``."""
    # math.log needs one float: it raises for a str or None, and for an
    # array of one element wherever numpy refuses to convert one
    try:
        log_c = math.log(c) if c > 0.0 else None
    except (TypeError, ValueError):
        log_c = None
    if log_c is None:
        raise DomainError(f"cost must be > 0, got {c!r}")
    # a double's log is at most LOG_FLOAT_MAX; at it, inf and an int that
    # no double holds (math.log takes an int of any size) fail finite_real
    if log_c >= LOG_FLOAT_MAX and not finite_real(c):
        raise DomainError(f"cost must be finite, got {c!r}")
    slack = -math.log1p(-EPS_CMP)
    sides = []
    for log_f in log_fs:  # a loop: a comprehension took three times as long
        gap = log_c - log_f
        sides.append(1 if gap > slack else -1 if gap < -slack else 0)
    return log_c, sides


# the members, read once: looking one up on its class costs ~0.13 us on
# CPython 3.11, a few times in each classify
_WINNER_A, _TIE = Winner.A, Winner.TIE_IN_EXPECTATION


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


_Point = tuple[float, float, int]  # (z, log f(z), the cost's side of it)
_Reading = tuple[ThresholdSet, float, list[int], _Point, _Point]  # see _read_cost


def _read_cost(params: ElectorateParams, c: float) -> _Reading:
    """The cost read once against every value the solvers compare it with.

    Returns (ts, log c, sides, top, bottom): the cost's sides of
    ct_upper, ct_lower, pa_lower and ps_lower, and the points that end
    the absenteeism interval above and the saturation interval below:
    (x_a, log ct_upper) and (n(1-p_a), log ct_lower) where
    ``ct_admissible``, else the strategy bounds (n(1-p_a), log h(x_a,
    n(1-p_a))) and (x_a, log h(n(1-p_a), x_a)), which the minority
    swipe reads too.
    """
    ts = thresholds(params)
    k, x_a = params.total_b, params.x_a
    logs = [ts.log_ct_upper, ts.log_ct_lower, ts.log_pa_lower, ts.log_ps_lower]
    if not ts.ct_admissible:
        logs += (_log_h_slope(x_a, k)[0], _log_h_slope(k, x_a)[0])
    log_c, sides = cost_sides(c, logs)
    if ts.ct_admissible:  # h(x, x) = g(2x) / 2
        return ts, log_c, sides, (x_a, logs[0], sides[0]), (k, logs[1], sides[1])
    return ts, log_c, sides, (k, logs[4], sides[4]), (x_a, logs[5], sides[5])


def _in_window(ts: ThresholdSet, sides: Sequence[int]) -> bool:
    """Whether sides of (ct_upper, ct_lower) put a cost in the closed coin-toss window."""
    return ts.ct_admissible and sides[0] <= 0 <= sides[1]


def _roots(
    kernel: Callable[[float], tuple[float, float]],
    log_c: float,
    points: list[_Point],
    start: Callable[[float, float, float, float, float], float],
    label: str,
    closed: bool = False,
) -> list[float]:
    """Sorted roots of f(z) = c, f = exp(log f), between consecutive points.

    ``kernel(z)`` returns (log f(z), d log f / dz), and ``points`` are
    (z, log f(z), side) in increasing z, chosen so that f crosses c at
    most once between two of them.  A point the cost is on is a root
    itself, the first and last only if ``closed``; a piece whose two
    ends have opposite sides holds one root, which ``_rtsafe`` finds on
    the log residual log f - log c, starting at
    ``start(a, log f(a), b, log f(b), log c)`` on the piece [a, b].
    """
    inner = points if closed else points[1:-1]
    roots = [z for z, _, side in inner if side == 0]

    def residual(z: float) -> tuple[float, float]:
        log_f, slope = kernel(z)
        f = log_f - log_c
        return f, (-f / slope if slope else math.inf)

    for (a, log_a, s_a), (b, log_b, s_b) in zip(points, points[1:]):
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
    equal-turnout identity.  Any other positive cost gets None.
    """
    return _coin_toss(params, c, _read_cost(params, c))


def _coin_toss(params: ElectorateParams, c: float, reading: _Reading) -> Equilibrium | None:
    K = EquilibriumKind
    ts, log_c, sides, _, _ = reading
    if not _in_window(ts, sides):
        return None
    upper, lower, k = sides[0], sides[1], params.total_b
    ends = [(2.0 * params.x_a, ts.log_ct_upper, upper), (2.0 * k, ts.log_ct_lower, lower)]
    z = _roots(_log_half_g, log_c, ends, _log_log_start, "coin toss", closed=True)[0]
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
        kind=K.COIN_TOSS,
        strategies=s,
        z_root=z,
        residual=residual,
        winner=_TIE,
        notes=tuple(
            f"coincides with {kind.value} solution"
            for kind, side in ((K.PARTIAL_ABSENTEEISM, upper), (K.PARTIAL_SATURATION, lower))
            if side == 0
        ),
    )


def find_h_peak(x_a: float) -> float:
    """Maximizer of z -> h(x_a, z) on [0, inf), for a finite x_a > 0.

    Returns 0 when x_a <= sqrt(2) (the kernel is then decreasing
    throughout).  Otherwise the slope probe ``_i_sign_core`` is positive
    on (0, peak) and negative on (peak, x_a], and ``_rtsafe`` solves for
    its sign change on (0, x_a) with the probe's analytic slope.  Both
    signs are known, so neither end is evaluated.  Newton starts at
    x_a - 1 - 1/(4 x_a), the large-x_a expansion of the peak, and
    usually needs two steps and one closing evaluation.  A peak within
    Z_REL_TOL of 0 (x_a within roundoff of sqrt(2)) is returned as some
    point within that distance of 0.  The solvers call it only for a
    cost on or above both absenteeism ends and not above
    ``_log_peak_bound``.
    """
    if not (finite_real(x_a) and x_a > 0.0):
        raise DomainError(f"find_h_peak requires a finite x_a > 0, got {x_a!r}")
    if x_a <= SQRT2:
        return 0.0

    def probe(t: float) -> tuple[float, float]:
        value, slope = _i_sign_core(x_a, t)
        return value, (-value / slope if slope else math.inf)

    start = x_a - 1.0 - 0.25 / x_a
    return _rtsafe(probe, 0.0, x_a, math.inf, -math.inf, start, "h peak")


def _log_peak_bound(x_a: float) -> float:
    """Above every log h(x_a, z): -log(2 pi (x_a - 3/2)) / 2 (README), or +inf if x_a <= 3/2."""
    return -0.5 * math.log(2.0 * math.pi * (x_a - 1.5)) if x_a > 1.5 else math.inf


def solve_partial_absenteeism(params: ElectorateParams, c: float) -> list[Equilibrium]:
    """All equilibria with alpha_a = 0 and the B side indifferent.

    Solves h(x_a, z) = c for the opponent total z on
    (x_b, min(x_a, n (1 - p_a))), where alpha_b runs inside (0, 1),
    split at the kernel peak into at most two monotone branches, so 0, 1
    or 2 roots are found.  The peak is solved for only where the cost
    is on or above both ends and not above ``_log_peak_bound``, which
    no peak reaches.  The kernel values at the interval ends are
    pa_lower and ct_upper (one kernel call at z = n (1 - p_a) where
    ``ct_admissible`` is false).  A cost on an end value has its root
    at that end, which belongs to the no-queue corner, the coin toss or
    the minority-swipe corner, and is not returned here.
    """
    return _absenteeism(params, c, _read_cost(params, c))


def _absenteeism(params: ElectorateParams, c: float, reading: _Reading) -> list[Equilibrium]:
    ts, log_c, sides, top, _ = reading
    x_a, z_lo = params.x_a, params.x_b
    points = [(z_lo, ts.log_pa_lower, sides[2]), top]
    # the kernel is unimodal, so the end sides decide unless c is on or
    # above both: then only a peak that c is on or below has roots, on
    # it or on the monotone branches it splits the interval into, and
    # none where c is above a bound on the peak
    if sides[2] >= 0 and top[2] >= 0:
        if log_c > _log_peak_bound(x_a):
            return []
        peak = find_h_peak(x_a)
        if not z_lo < peak < top[0]:
            return []
        log_peak = _log_h_slope(x_a, peak)[0]
        side = cost_side(c, log_peak)
        if side > 0:
            return []
        points.insert(1, (peak, log_peak, side))
    elif sides[2] * top[2] >= 0:
        return []
    out = []
    for z in _roots(partial(_log_h_slope, x_a), log_c, points, _gauss_start(x_a), "absenteeism"):
        s = StrategyPair(0.0, (z - z_lo) / (params.total_b - z_lo))
        residual = abs(r2_closed(params, s) - c)
        out.append(Equilibrium(EquilibriumKind.PARTIAL_ABSENTEEISM, s, z, residual, _WINNER_A))
    return out


def no_queue_exists(params: ElectorateParams, c: float) -> bool:
    """Whether (0, 0) is an equilibrium: c on or above h(x_a, x_b).

    The A-side inequality is implied (its gain at (0,0) is the smaller
    of the two), so only the B-side bound h(x_a, x_b) = pa_lower
    matters.
    """
    return _corners(_read_cost(params, c))[0]


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
    return _saturation(params, c, _read_cost(params, c))


def _saturation(params: ElectorateParams, c: float, reading: _Reading) -> Equilibrium | None:
    ts, log_c, sides, _, bottom = reading
    if bottom[2] * sides[3] >= 0:  # a decreasing kernel: a root only between opposite sides
        return None
    k, x_a, z_hi = params.total_b, params.x_a, params.total_a
    ends = [bottom, (z_hi, ts.log_ps_lower, sides[3])]
    z = _roots(partial(_log_h_slope, k), log_c, ends, _gauss_start(k), "saturation")[0]
    s = StrategyPair((z - x_a) / (z_hi - x_a), 1.0)
    residual = abs(r1_closed(params, s) - c)
    return Equilibrium(EquilibriumKind.PARTIAL_SATURATION, s, z, residual, _WINNER_A)


def all_swipe_exists(params: ElectorateParams, c: float) -> bool:
    """Whether (1, 1) is an equilibrium: c on or below h(n(1-p_a), n p_a).

    The B-side inequality is implied (its gain at (1,1) is the larger of
    the two), so only the A-side bound ps_lower matters.
    """
    return _corners(_read_cost(params, c))[2]


def _corners(reading: _Reading) -> tuple[bool, bool, bool]:
    """Whether (0, 0), (0, 1) and (1, 1) are equilibria.

    (0, 1) needs h(n(1-p_a), x_a) <= c <= h(x_a, n(1-p_a)).  The A gain
    (left) is below the B gain (right) only where x_a > n (1 - p_a), so
    it is tested only where ``ct_admissible`` is false; where
    x_a = n (1 - p_a) it is the coin toss.  The two gains are the
    strategy bounds that end the absenteeism and saturation intervals,
    so the corner and the end roots those solvers leave to it read the
    same sides.
    """
    ts, _, sides, top, bottom = reading
    minority_swipe = not ts.ct_admissible and bottom[2] >= 0 and top[2] <= 0
    return sides[2] >= 0, minority_swipe, sides[3] <= 0


# the three corners, built once: each is frozen, so every list shares it
_NO_QUEUE = Equilibrium(EquilibriumKind.NO_QUEUE, StrategyPair(0.0, 0.0), None, 0.0, _WINNER_A)
_MINORITY_SWIPE = Equilibrium(
    EquilibriumKind.MINORITY_SWIPE, StrategyPair(0.0, 1.0), None, 0.0, _WINNER_A
)
_ALL_SWIPE = Equilibrium(EquilibriumKind.ALL_SWIPE, StrategyPair(1.0, 1.0), None, 0.0, _WINNER_A)


def enumerate_equilibria(params: ElectorateParams, c: float) -> list[Equilibrium]:
    """Every type-symmetric equilibrium at cost ``c``, each listed once.

    The order follows the path of the families, and is that of
    ``EquilibriumKind``: coin toss, absenteeism, (0, 0), (0, 1),
    saturation, (1, 1).  The three corners are shared frozen objects.
    A strategy pair where two families meet is listed by its owner
    alone (see the module docstring).

    The cost is read once, in one ``cost_sides`` call: against the four
    frontiers of ``thresholds(params)`` and, where ``ct_admissible`` is
    false, the two strategy bounds.  Every solver and corner test
    decides from these sides, and no root search starts where they rule
    a root out.  A cost that is not > 0 raises ``DomainError``.
    """
    return _enumerate(params, c, _read_cost(params, c))


def _enumerate(params: ElectorateParams, c: float, reading: _Reading) -> list[Equilibrium]:
    no_queue, minority_swipe, all_swipe = _corners(reading)
    found = [_coin_toss(params, c, reading), *_absenteeism(params, c, reading)]
    if no_queue:
        found.append(_NO_QUEUE)
    if minority_swipe:
        found.append(_MINORITY_SWIPE)
    found.append(_saturation(params, c, reading))
    if all_swipe:
        found.append(_ALL_SWIPE)
    return [eq for eq in found if eq is not None]
