"""Root-finding for the five families of type-symmetric equilibria at a cost.

The families are distinguished by which non-partisan groups mix,
abstain, or vote for sure:

    coin toss            both alpha interior; both sides indifferent;
                         expected turnouts equal (a tie in expectation)
    partial absenteeism  alpha_a = 0, B-side indifferent
    no queue             (0, 0); only partisans vote
    partial saturation   alpha_b = 1, A-side indifferent
    all swipe            (1, 1); everyone votes

They are the families of the large-population regime table.  Where the
frontiers are not yet in their large-population order (``classify``
case 0), other type-symmetric equilibria can exist, such as the corner
(alpha_a, alpha_b) = (0, 1); no solver here looks for them.

Each family reduces to a one-dimensional condition in an aggregate
turnout variable z:

    coin toss            g(z) = 2c on [2 x_a, 2 n (1 - p_a)]   (g decreasing)
    partial absenteeism  h(x_a, z) = c on [x_b, x_a]           (unimodal in z)
    partial saturation   h(n(1-p_a), z) = c on [n(1-p_a), n p_a] (decreasing)

and the existence of no-queue / all-swipe is a pair of inequalities.
The absenteeism kernel z -> h(x_a, z) is strictly decreasing when
x_a <= sqrt(2) and otherwise rises to a unique interior peak and falls;
``find_h_peak`` locates the peak from the single sign change of the
slope probe ``_i_sign_core``, and each monotone branch is solved
separately with Brent's bracketed method (``_brent``), which is correct
in every sub-case.

The kernel values at the interval ends are the cost frontiers of
``pivot.thresholds``.  The solvers read them from one ``ThresholdSet``
(``classify`` passes its own), so solvers and classifier compare the
cost against the same numbers and no frontier is evaluated twice.

Boundary conventions (costs sitting exactly on a frontier are a
measure-zero event; ties are broken deterministically):

* the coin-toss window is treated as strictly open, with ``eps_cmp``
  margin on both inequalities;
* absenteeism roots within ``eps_cmp`` of z = x_b are the no-queue
  point (alpha_b = 0) and are reported only by ``no_queue_exists``;
* existence inequalities for no-queue / all-swipe / saturation carry
  ``eps_cmp`` slack toward the closed-interval reading.

``eps_cmp`` scales with the magnitudes being compared (the frontiers
range from ~1/2 down to exponentially small values, where any fixed
absolute slack would swallow whole regimes).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import ConvergenceError, DomainError
from .pivot import (
    ElectorateParams,
    StrategyPair,
    ThresholdSet,
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
    "SolverConfig",
    "DEFAULT_SOLVER_CONFIG",
    "solve_coin_toss",
    "find_h_peak",
    "solve_partial_absenteeism",
    "no_queue_exists",
    "solve_partial_saturation",
    "all_swipe_exists",
    "enumerate_equilibria",
]


class EquilibriumKind(str, Enum):
    COIN_TOSS = "coin_toss"
    PARTIAL_ABSENTEEISM = "partial_absenteeism"
    NO_QUEUE = "no_queue"
    PARTIAL_SATURATION = "partial_saturation"
    ALL_SWIPE = "all_swipe"


_KIND_ORDER = {kind: i for i, kind in enumerate(EquilibriumKind)}


class Winner(str, Enum):
    A = "A"
    TIE_IN_EXPECTATION = "tie_in_expectation"


@dataclass(frozen=True)
class SolverConfig:
    """Root-finding and comparison tolerances.

    z_rel_tol:  root-relative tolerance: a root finder stops once the
                root is bracketed within z_rel_tol * max(1, |z|).
    max_iter:   function evaluations allowed per root (exceeding it raises).
    eps_cmp:    relative slack for boundary comparisons of costs, in (0, 1).
    """

    z_rel_tol: float = 1e-12
    max_iter: int = 200
    eps_cmp: float = 1e-12

    def __post_init__(self):
        if not (self.z_rel_tol > 0.0 and math.isfinite(self.z_rel_tol)):
            raise DomainError(f"z_rel_tol must be finite and > 0, got {self.z_rel_tol!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise DomainError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 50:
            raise DomainError(f"max_iter must be >= 50, got {self.max_iter!r}")
        if not (0.0 < self.eps_cmp < 1.0):
            raise DomainError(f"eps_cmp must be in (0, 1), got {self.eps_cmp!r}")


DEFAULT_SOLVER_CONFIG = SolverConfig()


@dataclass(frozen=True)
class Equilibrium:
    """One type-symmetric equilibrium with solver diagnostics.

    z_root is the solved aggregate (2(x_a + y_a) for a coin toss, the
    opponent total x_b + y_b for absenteeism, the own total x_a + y_a
    for saturation) and None for the two pure corners.  residual is the
    absolute defect of the defining indifference condition at the
    returned strategies.
    """

    kind: EquilibriumKind
    strategies: StrategyPair
    z_root: float | None
    residual: float
    winner: Winner
    notes: tuple[str, ...] = ()


def _winner_from_margin(margin: float) -> Winner:
    return Winner.A if margin > 0.0 else Winner.TIE_IN_EXPECTATION


def boundary_tol(eps: float, *values: float) -> float:
    """Comparison slack at the scale of the values being compared."""
    return eps * max(abs(v) for v in values)


def _brent(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    cfg: SolverConfig,
    label: str,
) -> float:
    """Root of ``fn`` on a bracket with f(lo) and f(hi) of opposite (or zero) sign.

    Brent-Dekker (Brent 1973, ch. 4; the loop of scipy's ``brentq``):
    secant or inverse quadratic steps while they shrink the bracket fast
    enough, bisection otherwise.  Every evaluation lies inside the
    bracket.  Stops when the half-bracket is below
    z_rel_tol/2 * max(1, |x|) at the best point x, or when no float is
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
    x_pre, f_pre, x_cur, f_cur = lo, f_lo, hi, f_hi
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(cfg.max_iter):
        if (f_pre > 0.0) != (f_cur > 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * cfg.z_rel_tol * max(1.0, abs(x_cur))
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
        f"{label}: no convergence after {cfg.max_iter} iterations "
        f"(bracket width {abs(x_blk - x_cur):.3e})"
    )


def solve_coin_toss(
    params: ElectorateParams,
    c: float,
    cfg: SolverConfig | None = None,
    ts: ThresholdSet | None = None,
) -> Equilibrium | None:
    """The unique interior mixed equilibrium, if the cost admits one.

    Exists iff g(2 x_a) > 2c > g(2 n (1 - p_a)) (strict, with eps_cmp
    margin), which requires x_a < n (1 - p_a).  The defining condition
    g(z) = 2c is solved on [2 x_a, 2 n (1 - p_a)]; both alpha values
    are recovered from the root and the equal-turnout identity.  The
    two bounds are ``ts.ct_upper`` and ``ts.ct_lower`` (``ts`` defaults
    to ``thresholds(params)``).
    """
    cfg = cfg or DEFAULT_SOLVER_CONFIG
    if not (0.0 < c < 0.5):
        raise DomainError(
            f"coin-toss costs must lie in (0, 1/2) since pivot gains never "
            f"exceed 1/2, got {c!r}"
        )
    lo = 2.0 * params.x_a
    hi = 2.0 * params.total_b
    if lo >= hi:
        return None
    ts = ts or thresholds(params)
    target = 2.0 * c
    g_lo = 2.0 * ts.ct_upper  # g(lo)
    g_hi = 2.0 * ts.ct_lower  # g(hi)
    if not (
        g_lo - target > boundary_tol(cfg.eps_cmp, g_lo, target)
        and target - g_hi > boundary_tol(cfg.eps_cmp, g_hi, target)
    ):
        return None
    z = _brent(
        lambda t: g(t) - target, lo, hi, g_lo - target, g_hi - target, cfg, "coin toss"
    )
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
    )


def find_h_peak(x_a: float, cfg: SolverConfig | None = None) -> float:
    """Maximizer of z -> h(x_a, z) on [0, inf).

    Returns 0 when x_a <= sqrt(2) (the kernel is then decreasing
    throughout).  Otherwise the slope probe is positive near 0 and
    negative at z = x_a, and its unique sign change is solved for.  If no
    positive probe value is found above z = 1e-13 x_a (possible only
    for x_a within roundoff of sqrt(2)), the peak is indistinguishable
    from 0 at double precision and 0 is returned.
    """
    cfg = cfg or DEFAULT_SOLVER_CONFIG
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
    return _brent(
        lambda t: _i_sign_core(x_a, t), lo, x_a, f_lo, f_hi, cfg, "h peak"
    )


def _balance_note(margin: float) -> tuple[str, ...]:
    if margin <= 0.0:
        return ("expected turnouts equal: sits on the mixed-equilibrium boundary",)
    return ()


def _absenteeism_equilibrium(
    params: ElectorateParams, c: float, z: float, cfg: SolverConfig
) -> Equilibrium | None:
    if z - params.x_b <= cfg.eps_cmp * max(1.0, params.x_b):
        return None  # alpha_b = 0 there: that is the no-queue point
    alpha_b = (z - params.x_b) / params.m_b
    if alpha_b > 1.0 + cfg.eps_cmp:
        return None
    alpha_b = min(1.0, max(0.0, alpha_b))
    s = StrategyPair(0.0, alpha_b)
    residual = abs(r2_closed(params, s) - c)
    margin = expected_margin(params, s)
    return Equilibrium(
        kind=EquilibriumKind.PARTIAL_ABSENTEEISM,
        strategies=s,
        z_root=z,
        residual=residual,
        winner=_winner_from_margin(margin),
        notes=_balance_note(margin),
    )


def solve_partial_absenteeism(
    params: ElectorateParams,
    c: float,
    cfg: SolverConfig | None = None,
    ts: ThresholdSet | None = None,
) -> list[Equilibrium]:
    """All equilibria with alpha_a = 0 and the B side indifferent.

    Solves h(x_a, z) = c for the opponent total z on [x_b, x_a], split at
    the kernel peak into at most two monotone branches, so 0, 1 or 2
    roots are found.  Roots whose recovered alpha_b leaves [0, 1] are
    discarded; the root z = x_b (alpha_b = 0) belongs to the no-queue
    test, not here.  The kernel values at the interval ends are
    ``ts.pa_lower`` and ``ts.ct_upper``.
    """
    cfg = cfg or DEFAULT_SOLVER_CONFIG
    if not (c > 0.0):
        raise DomainError(f"cost must be > 0, got {c!r}")
    ts = ts or thresholds(params)
    z_lo, z_hi = params.x_b, params.x_a
    peak = find_h_peak(params.x_a, cfg)
    # h(x_a, x_b) = pa_lower and h(x_a, x_a) = g(2 x_a) / 2 = ct_upper
    ends = [(z_lo, ts.pa_lower - c), (z_hi, ts.ct_upper - c)]
    if z_lo < peak < z_hi:
        ends.insert(1, (peak, h(params.x_a, peak) - c))
    roots: list[float] = []
    for (a, f_a), (b, f_b) in zip(ends, ends[1:]):
        if f_a != 0.0 and f_b != 0.0 and (f_a > 0.0) == (f_b > 0.0):
            continue
        roots.append(
            _brent(
                lambda t: h(params.x_a, t) - c, a, b, f_a, f_b, cfg, "absenteeism"
            )
        )
    if len(roots) == 2 and abs(roots[1] - roots[0]) <= 1e-9 * max(1.0, z_hi):
        roots = roots[:1]  # both branches converged to the peak itself
    out = []
    for z in sorted(roots):
        eq = _absenteeism_equilibrium(params, c, z, cfg)
        if eq is not None:
            out.append(eq)
    return out


def no_queue_exists(
    params: ElectorateParams,
    c: float,
    cfg: SolverConfig | None = None,
    ts: ThresholdSet | None = None,
) -> bool:
    """Whether (0, 0) is an equilibrium: c >= h(x_a, x_b) up to eps_cmp.

    The A-side inequality is implied (its gain at (0,0) is the smaller
    of the two), so only the B-side bound h(x_a, x_b) = ``ts.pa_lower``
    matters.
    """
    cfg = cfg or DEFAULT_SOLVER_CONFIG
    if not (c > 0.0):
        raise DomainError(f"cost must be > 0, got {c!r}")
    floor = (ts or thresholds(params)).pa_lower
    return c >= floor - boundary_tol(cfg.eps_cmp, c, floor)


def solve_partial_saturation(
    params: ElectorateParams,
    c: float,
    cfg: SolverConfig | None = None,
    ts: ThresholdSet | None = None,
) -> Equilibrium | None:
    """The equilibrium with alpha_b = 1 and the A side indifferent, if any.

    Solves h(n(1-p_a), z) = c for the own total z on [n(1-p_a), n p_a],
    where the kernel is strictly decreasing (its peak lies left of the
    interval), so the root is unique.  Exists iff
    h(n(1-p_a), n p_a) <= c <= g(2 n(1-p_a))/2 up to eps_cmp (that is,
    ``ts.ps_lower <= c <= ts.ct_lower``), and the recovered alpha_a must
    be a probability (roots below the A-partisan mean are not strategies
    and yield no equilibrium).
    """
    cfg = cfg or DEFAULT_SOLVER_CONFIG
    if not (c > 0.0):
        raise DomainError(f"cost must be > 0, got {c!r}")
    k = params.total_b
    z_lo, z_hi = params.total_b, params.total_a
    ts = ts or thresholds(params)
    h_lo = ts.ct_lower  # h(k, z_lo) = g(2 n (1-p_a)) / 2
    h_hi = ts.ps_lower  # h(k, z_hi)
    tol_lo = boundary_tol(cfg.eps_cmp, c, h_lo)
    tol_hi = boundary_tol(cfg.eps_cmp, c, h_hi)
    if c > h_lo + tol_lo or c < h_hi - tol_hi:
        return None
    # a cost within eps_cmp of a frontier takes the interval end, not a
    # solved neighbour
    if c >= h_lo - tol_lo:
        z0 = z_lo
    elif c <= h_hi + tol_hi:
        z0 = z_hi
    else:
        z0 = _brent(
            lambda t: h(k, t) - c, z_lo, z_hi, h_lo - c, h_hi - c, cfg, "saturation"
        )
    alpha_a = (z0 - params.x_a) / params.m_a
    if alpha_a < -cfg.eps_cmp:
        return None
    alpha_a = min(1.0, max(0.0, alpha_a))
    s = StrategyPair(alpha_a, 1.0)
    residual = abs(r1_closed(params, s) - c)
    margin = expected_margin(params, s)
    return Equilibrium(
        kind=EquilibriumKind.PARTIAL_SATURATION,
        strategies=s,
        z_root=z0,
        residual=residual,
        winner=_winner_from_margin(margin),
        notes=_balance_note(margin),
    )


def all_swipe_exists(
    params: ElectorateParams,
    c: float,
    cfg: SolverConfig | None = None,
    ts: ThresholdSet | None = None,
) -> bool:
    """Whether (1, 1) is an equilibrium: c <= h(n(1-p_a), n p_a) up to eps_cmp.

    The B-side inequality is implied (its gain at (1,1) is the larger of
    the two), so only the A-side bound ``ts.ps_lower`` matters.
    """
    cfg = cfg or DEFAULT_SOLVER_CONFIG
    if not (c > 0.0):
        raise DomainError(f"cost must be > 0, got {c!r}")
    ceiling = (ts or thresholds(params)).ps_lower
    return c <= ceiling + boundary_tol(cfg.eps_cmp, c, ceiling)


def _corner_equilibrium(
    params: ElectorateParams, kind: EquilibriumKind, alpha: float
) -> Equilibrium:
    s = StrategyPair(alpha, alpha)
    return Equilibrium(
        kind=kind,
        strategies=s,
        z_root=None,
        residual=0.0,
        winner=_winner_from_margin(expected_margin(params, s)),
    )


def _strategies_close(a: StrategyPair, b: StrategyPair, eps: float) -> bool:
    return abs(a.alpha_a - b.alpha_a) <= eps and abs(a.alpha_b - b.alpha_b) <= eps


def enumerate_equilibria(
    params: ElectorateParams,
    c: float,
    cfg: SolverConfig | None = None,
    ts: ThresholdSet | None = None,
) -> list[Equilibrium]:
    """The equilibria of the five families at cost ``c``, deduplicated and sorted.

    In ``classify`` case 0 other type-symmetric equilibria can exist
    (see the module docstring); they are not reported.

    Coincident strategy pairs produced by two solvers (interval
    endpoints, e.g. a saturation root at alpha_a = 1 meeting the
    all-swipe corner) are reported once, with the coincidence noted.
    Costs of 1/2 and above admit no coin toss (gains never reach 1/2),
    so the mixed solver is skipped there.  Every solver compares ``c``
    against the same frontiers ``ts`` (default ``thresholds(params)``).
    """
    cfg = cfg or DEFAULT_SOLVER_CONFIG
    if not (c > 0.0):
        raise DomainError(f"cost must be > 0, got {c!r}")
    ts = ts or thresholds(params)
    found: list[Equilibrium] = []
    if c < 0.5:
        ct = solve_coin_toss(params, c, cfg, ts)
        if ct is not None:
            found.append(ct)
    found.extend(solve_partial_absenteeism(params, c, cfg, ts))
    if no_queue_exists(params, c, cfg, ts):
        found.append(_corner_equilibrium(params, EquilibriumKind.NO_QUEUE, 0.0))
    sat = solve_partial_saturation(params, c, cfg, ts)
    if sat is not None:
        found.append(sat)
    if all_swipe_exists(params, c, cfg, ts):
        found.append(_corner_equilibrium(params, EquilibriumKind.ALL_SWIPE, 1.0))

    found.sort(key=lambda e: (_KIND_ORDER[e.kind], e.z_root if e.z_root is not None else -1.0))
    merged: list[Equilibrium] = []
    for eq in found:
        dup_at = next(
            (
                i
                for i, m in enumerate(merged)
                if _strategies_close(m.strategies, eq.strategies, cfg.eps_cmp)
            ),
            None,
        )
        if dup_at is None:
            merged.append(eq)
        else:
            kept = merged[dup_at]
            merged[dup_at] = dataclasses.replace(
                kept, notes=kept.notes + (f"coincides with {eq.kind.value} solution",)
            )
    return merged
