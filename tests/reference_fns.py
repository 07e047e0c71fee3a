"""Small reference functions the tests use and the package does not.

Leading large-argument terms of the kernels, the damped slope probe of
``h`` with its domain checks, the tie rule of the brute-force sums, the
expected vote margin that checks every winner, the brute-force utility
of voting or abstaining with the Nash deviation gain read from it, the
count-range check of a regime table, and two Monte Carlo samplers that
do not count in place: the election margin from fresh arrays, and the
Poisson-environment pivot gain from four draws.  The slope probe wraps the package's ``_i_sign_core``, and
the utility reads the oracle's ``_total_pmfs``, so their tests exercise
the code the package runs.
"""

import math

import numpy as np

from votecost.errors import DomainError
from votecost.oracle import (
    _SIDES,
    DEFAULT_ORACLE_CONFIG,
    MonteCarloEstimate,
    OracleConfig,
    _binomial_share_se,
    _rng,
    _total_pmfs,
    class_sizes,
)
from votecost.pivot import ElectorateParams, StrategyPair, turnout_means
from votecost.special_fn import _i_sign_core


def g_leading(z: float) -> float:
    """Leading large-z term of g: sqrt(2 / (pi z))."""
    if not (z > 0.0):
        raise DomainError(f"g_leading requires z > 0, got {z!r}")
    return math.sqrt(2.0 / (math.pi * z))


def h_ray_leading(x_a: float, q: float) -> float:
    """Leading term of h(x_a, q x_a) for large x_a along a fixed ray q.

    (sqrt(q) + 1) / (4 sqrt(pi x_a) q^{3/4}) * exp(-(sqrt(q) - 1)^2 x_a),
    with the exponent in its cancellation-free form
    (q + 1 - 2 sqrt(q) = (sqrt(q) - 1)^2).
    """
    if not (x_a > 0.0):
        raise DomainError(f"h_ray_leading requires x_a > 0, got {x_a!r}")
    if not (q > 0.0):
        raise DomainError(f"h_ray_leading requires q > 0, got {q!r}")
    rq = math.sqrt(q)
    prefactor = (rq + 1.0) / (4.0 * math.sqrt(math.pi * x_a) * q**0.75)
    return prefactor * math.exp(-((rq - 1.0) ** 2) * x_a)


def i_sign(x_a: float, z: float) -> float:
    """Damped slope probe for h(x_a, .): sign equals sign of dh/dz for z > 0.

    Returns [(x_a - z) F1(x_a z) - x_a F2(x_a z)] e^{-x_a-z}.  Only the
    sign and zeros are meaningful; the magnitude carries the damping
    factor so the value never overflows.
    """
    if not (x_a > 0.0):
        raise DomainError(f"i_sign requires x_a > 0, got {x_a!r}")
    if not (z >= 0.0):
        raise DomainError(f"i_sign requires z >= 0, got {z!r}")
    if z == 0.0:
        return 0.0
    core = _i_sign_core(x_a, z)[0]
    return core * math.exp(-((math.sqrt(x_a) - math.sqrt(z)) ** 2))


def tie_rule(m: int, n: int) -> float:
    """Payoff of the first side when it polls m votes against n: 1, 1/2, or 0."""
    if m > n:
        return 1.0
    if m == n:
        return 0.5
    return 0.0


def prediction_fits(table: dict, kinds) -> bool:
    """Whether the listed kinds fit a regime table's (min, max) count of each kind.

    The range check ``regime._check_prediction`` made before it looked
    lists up in ``regime._ACCEPTED``: every listed kind is in the table
    and every kind of the table is listed within its range, in any order.
    """
    realized: dict = {}
    for kind in kinds:
        realized[kind] = realized.get(kind, 0) + 1
    return realized.keys() <= table.keys() and all(
        lo <= realized.get(k, 0) <= hi for k, (lo, hi) in table.items()
    )


def expected_margin(params: ElectorateParams, s: StrategyPair) -> float:
    """Expected A-minus-B vote margin: n p_a (p + (1-p) a_A) - n (1-p_a)(p + (1-p) a_B)."""
    u, v = turnout_means(params, s)
    return u - v


def utility_bruteforce(
    side: str,
    vote: int,
    x_a: float,
    x_b: float,
    y_a: float,
    y_b: float,
    c: float,
    cfg: OracleConfig | None = None,
) -> float:
    """Perceived utility of a ``side`` supporter who votes (1) or abstains (0).

    Voting adds one vote to the own total and costs ``c``; the payoff is
    the tie rule applied to the two totals.  Satisfies
    u(1) - u(0) = pivot gain - c up to twice the truncation bound.
    """
    cfg = cfg or DEFAULT_ORACLE_CONFIG
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    if vote not in (0, 1):
        raise DomainError(f"vote must be 0 or 1, got {vote!r}")
    if not (c > 0.0):
        raise DomainError(f"voting cost must be > 0, got {c!r}")
    (dist_a,), (dist_b,) = _total_pmfs([x_a], [x_b], [[y_a]], [[y_b]], cfg)
    own, other = (dist_a, dist_b) if side == "A" else (dist_b, dist_a)
    n = len(own)
    # E f(T_own + vote, T_other) = sum_m own[m] (P(T_other < m + vote)
    #                                            + P(T_other = m + vote) / 2)
    cum = np.cumsum(other)
    m = np.arange(n) + vote
    below = np.where(m > 0, cum[np.minimum(m - 1, len(other) - 1)], 0.0)
    at = np.where(m < len(other), other[np.minimum(m, len(other) - 1)], 0.0)
    value = float(np.dot(own, below + 0.5 * at))
    return value - (c if vote else 0.0)


def nash_deviation_gain(params, s, c: float, side: str) -> float:
    """What a ``side`` supporter gains by deviating from strategy pair ``s``.

    Read from the brute-force utilities of voting and abstaining, so it is
    0 at a Nash equilibrium up to the root's tolerance and the sums'
    rounding (about 1e-15 absolute).
    """
    y_a = params.m_a * s.alpha_a
    y_b = params.m_b * s.alpha_b
    d = utility_bruteforce(side, 1, params.x_a, params.x_b, y_a, y_b, c) - utility_bruteforce(
        side, 0, params.x_a, params.x_b, y_a, y_b, c
    )
    alpha = s.alpha_a if side == "A" else s.alpha_b
    if alpha == 0.0:
        return max(d, 0.0)  # only switching to voting could profit
    if alpha == 1.0:
        return max(-d, 0.0)  # only abstaining could profit
    return abs(d)  # mixing requires exact indifference


def simulate_margin(params: ElectorateParams, s: StrategyPair, cfg: OracleConfig) -> np.ndarray:
    """``simulate_election``'s A-minus-B margins, from a fresh array per draw.

    The draws and their order are the simulator's: Poisson(x_a),
    Poisson(x_b), Binomial(size_a, alpha_a), Binomial(size_b, alpha_b).
    """
    size_a, size_b = class_sizes(params)
    rng = _rng(cfg)
    part_a = rng.poisson(params.x_a, cfg.trials)
    part_b = rng.poisson(params.x_b, cfg.trials)
    vote_a = rng.binomial(size_a, s.alpha_a, cfg.trials)
    vote_b = rng.binomial(size_b, s.alpha_b, cfg.trials)
    return (part_a + vote_a) - (part_b + vote_b)


def four_draw_pivot(
    x_a: float, x_b: float, y_a: float, y_b: float, side: str, cfg: OracleConfig
) -> MonteCarloEstimate:
    """The Poisson-environment pivot gain with each of the four counts drawn.

    Poisson(x_a) + Poisson(y_a) against Poisson(x_b) + Poisson(y_b), in
    that order: the same estimator as ``oracle._poisson_pivot``, which
    draws each side's total once, over a different stream.
    """
    rng = _rng(cfg)
    t_a = rng.poisson(x_a, cfg.trials) + rng.poisson(y_a, cfg.trials)
    t_b = rng.poisson(x_b, cfg.trials) + rng.poisson(y_b, cfg.trials)
    diff = (t_b - t_a) if side == "A" else (t_a - t_b)
    n_piv = int(np.count_nonzero((diff == 0) | (diff == 1)))
    return MonteCarloEstimate(
        value=0.5 * (n_piv / cfg.trials),
        se=0.5 * _binomial_share_se(n_piv, cfg.trials),
        trials=cfg.trials,
    )
