"""Independent references the benchmark checks votecost's answers against.

Nothing here imports votecost.  The four cost frontiers are computed in
log space from scipy's exponentially scaled Bessel functions, so they
stay representable where the package's linear-space values underflow:

    g(z)     = i0e(z) + i1e(z)
    h(x, z)  = 1/2 [i0e(t) + sqrt(x/z) i1e(t)] exp(-(sqrt(x) - sqrt(z))^2),
               t = 2 sqrt(x z)

    ct_upper = g(2 x_a) / 2          ct_lower = g(2 n (1 - p_a)) / 2
    pa_lower = h(x_a, x_b)           ps_lower = h(n (1 - p_a), n p_a)
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import i0e, i1e

FRONTIERS = ("ct_upper", "ct_lower", "pa_lower", "ps_lower")

LOG_TINY = math.log(np.finfo(float).tiny)
# Below this the package's frontiers may legitimately underflow to 0.0;
# above it they must match the reference to LOG_TOL.
LOG_FLOOR = math.log(1e-290)
LOG_TOL = 1e-9
# Regime 5 has no lower frontier; costs for it are drawn from the six
# decades below ps_lower.
REGIME5_DECADES = 6.0
# Coin-toss-window tolerance when checking recommend_cost (eps_cmp scale).
WINDOW_REL_TOL = 1e-9

# The `verify` CSV columns exactly as README documents them.
VERIFY_COLUMNS = [
    "n", "p", "pa", "alpha_a", "alpha_b", "side",
    "closed_form", "brute_force", "abs_error", "error_bound",
]

# The grid README documents for `votecost verify`; the verifier draws its
# Monte Carlo strategy pairs from it.
VERIFY_GRID_N = (5.0, 10.0, 20.0, 40.0)
VERIFY_GRID_P = (0.1, 0.3, 0.5)
VERIFY_GRID_PA = (0.55, 0.7, 0.9)
VERIFY_GRID_ALPHA = (0.0, 0.25, 0.5, 0.75, 1.0)
VERIFY_ROWS = 2 * (  # both sides at every grid point
    len(VERIFY_GRID_N) * len(VERIFY_GRID_P) * len(VERIFY_GRID_PA) * len(VERIFY_GRID_ALPHA) ** 2
)


def log_g(z):
    return np.log(i0e(z) + i1e(z))


def log_h(x, z):
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    t = 2.0 * np.sqrt(x * z)
    scaled = 0.5 * (i0e(t) + np.sqrt(x / z) * i1e(t))
    return np.log(scaled) - (np.sqrt(x) - np.sqrt(z)) ** 2


def log_frontiers(n, p, p_a) -> np.ndarray:
    """Log of (ct_upper, ct_lower, pa_lower, ps_lower); n may be an array."""
    n = np.asarray(n, dtype=float)
    x_a, x_b = n * p * p_a, n * p * (1.0 - p_a)
    total_a, total_b = n * p_a, n * (1.0 - p_a)
    return np.stack(
        [
            log_g(2.0 * x_a) - math.log(2.0),
            log_g(2.0 * total_b) - math.log(2.0),
            log_h(x_a, x_b),
            log_h(total_b, total_a),
        ]
    )


def ordered(n: float, p: float, p_a: float, lf) -> bool:
    """Whether the five-regime table applies (else classify must say case 0)."""
    x_a = n * p * p_a
    return (
        x_a <= n * (1.0 - p_a)
        and x_a > math.sqrt(2.0)
        and lf[0] > lf[1] > lf[2] > lf[3]
    )


def regime_log_interval(k: int, lf) -> tuple[float, float] | None:
    """Log-cost interval of regime k (1..5), clipped to normal doubles."""
    upper = (math.log(0.5), *lf)
    hi = upper[k - 1]
    lo = lf[k - 1] if k <= 4 else lf[3] - REGIME5_DECADES * math.log(10.0)
    if hi <= LOG_TINY:
        return None
    return max(lo, LOG_TINY), hi


def place_cost(rng: np.random.Generator, n: float, p: float, p_a: float) -> tuple[float, int]:
    """A cost and the case classify must report for it.

    Where the frontiers are ordered the cost sits 10-90% of the way
    through a uniformly drawn regime's log interval; elsewhere it is
    log-uniform over [1e-9, 0.49] and the expected case is 0.
    """
    lf = [float(v) for v in log_frontiers(n, p, p_a)]
    if not ordered(n, p, p_a, lf):
        return math.exp(rng.uniform(math.log(1e-9), math.log(0.49))), 0
    while True:
        k = int(rng.integers(1, 6))
        interval = regime_log_interval(k, lf)
        if interval is not None:
            lo, hi = interval
            return math.exp(lo + rng.uniform(0.1, 0.9) * (hi - lo)), k


def frontier_errors(values, ref_log) -> int:
    """Count package frontier values that disagree with the log reference.

    Where the reference is above LOG_FLOOR the value must match it to
    LOG_TOL in log; below it the value may have underflowed but must
    stay below exp(LOG_FLOOR).
    """
    values = np.asarray(values, dtype=float)
    ref_log = np.asarray(ref_log, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        close = np.abs(np.log(values) - ref_log) <= LOG_TOL
    tiny = (values >= 0.0) & (values <= math.exp(LOG_FLOOR))
    return int(np.count_nonzero(~np.where(ref_log > LOG_FLOOR, close, tiny)))


def recommend_ok(c: float, recommended: float, n: float, p: float, p_a: float) -> bool:
    """recommend_cost keeps c outside the open coin-toss window, else lifts it above."""
    if n * p * p_a > n * (1.0 - p_a):
        return recommended == c
    lf = log_frontiers(n, p, p_a)
    lower, upper = math.exp(lf[1]), math.exp(lf[0])
    lifted = recommended >= max(c, upper * (1.0 - WINDOW_REL_TOL))
    if any(abs(c - b) <= WINDOW_REL_TOL * b for b in (lower, upper)):
        return recommended == c or lifted
    return lifted if lower < c < upper else recommended == c
