"""Ground truth: truncated Poisson sums and Monte Carlo election runs.

Nothing here touches the closed forms in :mod:`votecost.pivot`; the two
routes are kept independent so each can check the other.

Brute force.  The pivot gain for side A is the quadruple sum over
partisan counts (a, b) ~ Poisson(x_a), Poisson(x_b) and non-partisan
voter counts (r, s) ~ Poisson(y_a), Poisson(y_b) of

    P(a) P(b) P(r) P(s) * [f(a+r+1, b+s) - f(a+r, b+s)]

with f the tie rule (1 / 0.5 / 0 for ahead / tied / behind).  Each index
is truncated at the smallest K whose upper tail mass is at most
``tail_eps``, so the dropped mass over all four indices is at most
4 * tail_eps and the f-difference is bounded by 1/2; the reported error
bound 4 * tail_eps is conservative.  The sum itself is evaluated by
regrouping over the vote totals a+r and b+s (a discrete convolution of
the truncated probability vectors); this is an exact reorganization of
the same finitely many terms, not a distributional identity.  One call
takes one electorate or a grid of them, so ``verify`` makes one call for
its whole grid.  README, "Numerical notes", says how K, the pmfs and the
sums are evaluated, with ``scipy.special`` alone and in ``np.dot``'s
bits, and when a call raises ``TruncationLimitError``.

Monte Carlo.  Draws come from numpy's ``Generator`` over ``PCG64``,
seeded with the configured seed; README, "Reproducibility", says which
results repeat bit for bit.  ``simulate_election`` realizes the election as
described by the turnout model: partisan counts are Poisson, the
non-partisan voter counts are Binomial over the rounded class sizes; it
makes those four draws in that order and sums the margin in place.
``poisson_environment_pivot`` instead takes all four counts Poisson,
matching the environment a player conditions on, and is therefore a
consistent estimator of the brute-force pivot gain.  A sum of independent
Poisson counts is Poisson (Skellam 1946), so it draws each side's total
once, at the summed mean x + y: A's total, then B's.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, TruncationLimitError, finite_real
from .pivot import ElectorateParams, StrategyPair

__all__ = [
    "OracleConfig",
    "BruteForceGain",
    "MonteCarloEstimate",
    "WinStats",
    "pivot_gain_bruteforce",
    "simulate_election",
    "poisson_environment_pivot",
]


# The smallest tail_eps whose 1 - tail_eps is below 1.0: at or below 2**-54
# it rounds to 1.0, where the inverse Poisson cdf has no finite index.
TAIL_EPS_MIN = math.nextafter(2.0**-54, 1.0)


@dataclass(frozen=True)
class OracleConfig:
    """Truncation and sampling knobs for the oracle routines.

    tail_eps:
        Poisson upper-tail mass dropped per index in the brute-force sums.
    trials:
        Monte Carlo sample count.
    seed:
        64-bit seed for the PCG64 bit generator.
    """

    tail_eps: float = 1e-13
    trials: int = 100_000
    seed: int = 20240717

    def __post_init__(self):
        if not (finite_real(self.tail_eps) and 0.0 < self.tail_eps < 1e-6):
            raise DomainError(f"tail_eps must be in (0, 1e-6), got {self.tail_eps!r}")
        if self.tail_eps < TAIL_EPS_MIN:
            raise DomainError(
                f"tail_eps must be at least {TAIL_EPS_MIN!r}, below which 1 - tail_eps "
                f"rounds to 1, got {self.tail_eps!r}"
            )
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials!r}")
        if not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")


DEFAULT_ORACLE_CONFIG = OracleConfig()

# Upper bound on the truncation-box volume (product of the four
# per-index lengths) accepted by the brute-force routines.
CELL_CAP = 1e9

_SIDES = ("A", "B")

# Below this expected vote count per side, no Poisson or binomial count,
# vote total or margin leaves int64, and numpy accepts every mean and size
COUNT_LIMIT = 2**62


def _upper_index(means: Sequence[float], tail_eps: float) -> np.ndarray:
    """Smallest K with P(Poisson(mean) > K) <= tail_eps, for each of ``means``."""
    means = np.asarray(means, dtype=float)
    # each distinct mean once; 0.0 and -0.0 are one, both with index 0
    distinct, where = np.unique(means, return_inverse=True)
    q = 1.0 - tail_eps
    k = np.ceil(special.pdtrik(q, distinct))
    finite = np.isfinite(k)
    if not finite.all():
        # pdtrik gives NaN past means of ~1e11, which an int cast would hide
        raise TruncationLimitError(
            f"no finite truncation index for the Poisson mean "
            f"{float(means[~finite[where]][0])!r} at tail_eps={tail_eps!r}"
        )
    # pdtrik inverts the cdf over continuous k, so its ceiling can land one
    # above the smallest K; the same check as scipy.stats.poisson.ppf
    k -= (k > 0) & (special.pdtr(np.maximum(k - 1.0, 0.0), distinct) >= q)
    return k.astype(np.int64)[where]


def _pmf_vector(means: Sequence[float], k_max: Sequence[int]) -> list[np.ndarray]:
    """The Poisson(mean) pmf over 0..K for each mean and its K in ``k_max``.

    One evaluation runs over the concatenated ranges, each mean's own (a
    table over 0..max(k_max) for every mean could be far larger).  A zero
    mean gets 1.0 at 0 and 0.0 above, as xlogy(k, 0) is -inf for k > 0.
    """
    lengths = np.asarray(k_max, dtype=np.int64) + 1
    ends = np.cumsum(lengths)
    # k counts from 0 within each mean's range; each range repeats its mean
    k = np.arange(lengths.sum()) - np.repeat(ends - lengths, lengths)
    means = np.repeat(np.asarray(means, dtype=float), lengths)
    flat = np.exp(special.xlogy(k, means) - special.gammaln(k + 1) - means)
    bounds = ends.tolist()
    return [flat[start:end] for start, end in zip([0, *bounds], bounds)]


def _as_list(value) -> tuple[list, bool]:
    """``value``'s items as a list, and whether ``value`` is one item.

    One item is a ``str`` or anything not iterable (a number, a 0-d
    array); no array is built to tell.
    """
    if isinstance(value, str):
        return [value], True
    try:
        return list(value), False
    except TypeError:
        return [value], True


def _means(name: str, means: list) -> list[float]:
    """Each of ``means``, checked as a finite real >= 0, as a plain float."""
    for mean in means:
        if not (finite_real(mean) and mean >= 0.0):
            raise DomainError(f"{name} must be a finite mean >= 0, got {mean!r}")
    return [float(mean) for mean in means]


def _total_pmfs(
    xs_a: list[float],
    xs_b: list[float],
    ys_a: list[list[float]],
    ys_b: list[list[float]],
    cfg: OracleConfig,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Truncated pmf vectors of the vote totals a+r and b+s of every electorate.

    Electorate e has the checked partisan means xs_a[e] and xs_b[e] and
    the lists of voter means ys_a[e] and ys_b[e].  Returns the totals a+r,
    one per voter mean of every electorate in turn, and the totals b+s
    likewise.  One ``_upper_index`` and one ``_pmf_vector`` call cover
    every mean.  CELL_CAP's check on each electorate's largest four-index
    box runs before a pmf is built.
    """
    electorates = list(zip(xs_a, xs_b, ys_a, ys_b))
    means = [m for x_a, x_b, y_a, y_b in electorates for m in (x_a, x_b, *y_a, *y_b)]
    ks = _upper_index(means, cfg.tail_eps).tolist()
    start = 0
    for _, _, y_a, y_b in electorates:
        k_a, k_b, *ks_y = ks[start : start + 2 + len(y_a) + len(y_b)]
        start += 2 + len(ks_y)
        k_r, k_s = max(ks_y[: len(y_a)], default=0), max(ks_y[len(y_a) :], default=0)
        cells = (k_a + 1) * (k_b + 1) * (k_r + 1) * (k_s + 1)
        if cells > CELL_CAP:
            raise TruncationLimitError(
                f"truncation box of {cells:.3g} cells exceeds CELL_CAP={CELL_CAP:.3g}"
            )
    pmfs = iter(_pmf_vector(means, ks))
    totals_a, totals_b = [], []
    for _, _, y_a, y_b in electorates:
        partisan_a, partisan_b = next(pmfs), next(pmfs)
        totals_a += [np.convolve(partisan_a, next(pmfs)) for _ in y_a]
        totals_b += [np.convolve(partisan_b, next(pmfs)) for _ in y_b]
    return totals_a, totals_b


def _window_gains(owns: list[np.ndarray], windows: np.ndarray) -> np.ndarray:
    """Gains of each own total (rows) against each other total (columns).

    A gain is half of P(T_other - T_own = 0) + P(T_other - T_own = 1).
    ``windows[j, shift]`` is the other total j, zero-padded to at least
    len(own) + 1 entries, from index ``shift`` (0 or 1) on, with unit
    stride.  Each own total makes one stacked (1, n) @ (n, 1) matmul over
    every window's first n = len(own) entries.  numpy sends that shape to
    the dot kernel that ``np.dot`` of two vectors uses, so each dot has
    ``np.dot``'s bits; a matrix-vector product (gemv) rounds differently.
    """
    dots = np.empty((len(owns), len(windows), 2))
    for own_dots, own in zip(dots, owns):
        np.matmul(own[None, :], windows[..., : len(own), None], out=own_dots[..., None, None])
    return 0.5 * (dots[..., 0] + dots[..., 1])


@dataclass
class BruteForceGain:
    """Truncated-sum pivot gains (a float, or a list) with their truncation error bound."""

    value: float | list[float]
    error_bound: float


def pivot_gain_bruteforce(
    x_a: float | Sequence[float],
    x_b: float | Sequence[float],
    y_a: float | Sequence[Sequence[float]],
    y_b: float | Sequence[Sequence[float]],
    side: str | Sequence[str] = "A",
    cfg: OracleConfig | None = None,
) -> BruteForceGain:
    """Quadruple-sum pivot gain for ``side`` at the given Poisson means.

    The gain from one extra own-side vote is nonzero exactly when the
    opponent total minus the own total is 0 or 1, each contributing 1/2.

    Two forms.  For one electorate, each of the five arguments is one
    item and ``value`` is a float.  For a grid, ``x_a`` and ``x_b`` are
    sequences of equal length, one electorate per entry, ``y_a`` and
    ``y_b`` hold one sequence of voter means (or one mean) per electorate,
    and ``side`` is one side or a sequence of sides; ``value`` is one flat
    list of gains in ``itertools.product`` order over (electorate, y_a,
    y_b, side).  Every check runs before a pmf is built, and the whole
    grid takes one pass: see the module docstring.
    """
    cfg = cfg or DEFAULT_ORACLE_CONFIG
    args = {"x_a": x_a, "x_b": x_b, "y_a": y_a, "y_b": y_b, "side": side}
    items = {name: _as_list(value) for name, value in args.items()}
    (xs_a, one_xa), (xs_b, one_xb), (ys_a, one_ya), (ys_b, one_yb), (sides, _) = items.values()
    grid = not (one_xa or one_xb)
    if grid:
        if one_ya or one_yb or not len(xs_a) == len(xs_b) == len(ys_a) == len(ys_b):
            raise DomainError(
                "x_a, x_b, y_a and y_b must be sequences of one entry per electorate, got "
                f"{len(xs_a)}, {len(xs_b)}, {len(ys_a)} and {len(ys_b)} entries"
            )
        ys_a, ys_b = [_as_list(means)[0] for means in ys_a], [_as_list(means)[0] for means in ys_b]
    else:
        for name, (_, one) in items.items():
            if not one:
                kind = "side" if name == "side" else "mean"
                raise DomainError(f"{name} must be one {kind}, got {args[name]!r}")
        ys_a, ys_b = [ys_a], [ys_b]
    for one in sides:
        if one not in _SIDES:
            raise DomainError(f"side must be one of {_SIDES}, got {one!r}")
    xs_a, xs_b = _means("x_a", xs_a), _means("x_b", xs_b)
    ys_a, ys_b = [_means("y_a", means) for means in ys_a], [_means("y_b", means) for means in ys_b]
    totals_a, totals_b = _total_pmfs(xs_a, xs_b, ys_a, ys_b, cfg)
    # each total copied once into a zero-padded row one longer than the
    # longest total of the grid
    totals = totals_a + totals_b
    padded = np.zeros((len(totals), 1 + max(map(len, totals), default=0)))
    for row, total in zip(padded, totals):
        row[: len(total)] = total
    # every row at shifts 0 and 1, as views: windows[j, shift]
    windows = np.lib.stride_tricks.sliding_window_view(padded, padded.shape[1] - 1, axis=1)
    values = []
    # rows start_a.. and start_b.. hold this electorate's totals a+r and b+s
    start_a, start_b = 0, len(totals_a)
    for means_a, means_b in zip(ys_a, ys_b):
        rows_a = slice(start_a, start_a + len(means_a))
        rows_b = slice(start_b, start_b + len(means_b))
        start_a, start_b = rows_a.stop, rows_b.stop
        # table[i, j, k]: the gain of the k-th side at the i-th y_a and j-th y_b
        table = np.empty((len(means_a), len(means_b), len(sides)))
        for k, own_side in enumerate(sides):
            if own_side == "A":
                table[..., k] = _window_gains(totals[rows_a], windows[rows_b])
            else:
                # side B's own totals index the rows, so its gains are transposed
                table[..., k] = _window_gains(totals[rows_b], windows[rows_a]).T
        values += table.ravel().tolist()
    return BruteForceGain(value=values if grid else values[0], error_bound=4.0 * cfg.tail_eps)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    se: float
    trials: int


@dataclass(frozen=True)
class WinStats:
    """Monte Carlo election statistics.

    ``p_a_wins``/``p_tie``/``p_b_wins`` are the strict-majority, exact-tie
    and strict-minority frequencies; the underlying counts are included
    and partition ``trials_used`` exactly.  ``pivot_a`` and ``pivot_b``
    are the mean tie-rule gains from one extra A (resp. B) vote, i.e.
    half the frequency of trials in which that extra vote changes the
    outcome value.
    """

    p_a_wins: float
    p_tie: float
    p_b_wins: float
    se_a_wins: float
    pivot_a: float
    se_pivot_a: float
    pivot_b: float
    se_pivot_b: float
    trials_used: int
    n_a_wins: int
    n_tie: int
    n_b_wins: int


def _check_count_limit(side: str, count: float) -> None:
    if not count < COUNT_LIMIT:
        raise DomainError(
            f"side {side}'s expected vote count {count!r} reaches the simulation limit 2**62"
        )


def _rng(cfg: OracleConfig) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(cfg.seed)))


def _binomial_share_se(count: int, trials: int) -> float:
    phat = count / trials
    return math.sqrt(phat * (1.0 - phat) / trials)


def simulate_election(
    params: ElectorateParams, s: StrategyPair, cfg: OracleConfig | None = None
) -> WinStats:
    """Simulate ``trials`` elections under the finite-population turnout model.

    Partisan counts are Poisson(x_a) and Poisson(x_b); non-partisan voter
    counts are Binomial(round(m_a), alpha_a) and Binomial(round(m_b),
    alpha_b).  Non-integer class sizes are rounded to the nearest integer
    (Python ``round``, ties to even); this discretization is a convention
    of this simulator, surfaced via :func:`class_sizes`.  A side whose
    partisan mean plus class size reaches 2**62 raises ``DomainError``.
    """
    cfg = cfg or DEFAULT_ORACLE_CONFIG
    size_a, size_b = class_sizes(params)
    _check_count_limit("A", params.x_a + size_a)
    _check_count_limit("B", params.x_b + size_b)
    rng = _rng(cfg)
    trials = cfg.trials
    # the margin (part_a + vote_a) - (part_b + vote_b), built in place on
    # the first draw; the draw order fixes the seeded bits
    margin = rng.poisson(params.x_a, trials)
    margin -= rng.poisson(params.x_b, trials)
    margin += rng.binomial(size_a, s.alpha_a, trials)
    margin -= rng.binomial(size_b, s.alpha_b, trials)

    n_a = int(np.count_nonzero(margin > 0))
    n_t = int(np.count_nonzero(margin == 0))
    n_b = trials - n_a - n_t
    # one extra A vote matters iff margin in {0, -1}; one extra B vote iff {0, 1}
    n_piv_a = n_t + int(np.count_nonzero(margin == -1))
    n_piv_b = n_t + int(np.count_nonzero(margin == 1))
    q_a = n_piv_a / trials
    q_b = n_piv_b / trials
    return WinStats(
        p_a_wins=n_a / trials,
        p_tie=n_t / trials,
        p_b_wins=n_b / trials,
        se_a_wins=_binomial_share_se(n_a, trials),
        pivot_a=0.5 * q_a,
        se_pivot_a=0.5 * _binomial_share_se(n_piv_a, trials),
        pivot_b=0.5 * q_b,
        se_pivot_b=0.5 * _binomial_share_se(n_piv_b, trials),
        trials_used=trials,
        n_a_wins=n_a,
        n_tie=n_t,
        n_b_wins=n_b,
    )


def class_sizes(params: ElectorateParams) -> tuple[int, int]:
    """Rounded non-partisan class sizes used by :func:`simulate_election`."""
    return round(params.m_a), round(params.m_b)


def _poisson_pivot(
    x_a: float, x_b: float, y_a: float, y_b: float, side: str, cfg: OracleConfig
) -> MonteCarloEstimate:
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    # a side's partisan and voter counts are independent Poissons, so its
    # total is Poisson with the summed mean (Skellam 1946): one draw a side
    mean_a, mean_b = x_a + y_a, x_b + y_b
    _check_count_limit("A", mean_a)
    _check_count_limit("B", mean_b)
    rng = _rng(cfg)
    trials = cfg.trials
    t_a = rng.poisson(mean_a, trials)
    t_b = rng.poisson(mean_b, trials)
    other, own = (t_b, t_a) if side == "A" else (t_a, t_b)
    diff = np.subtract(other, own, out=other)
    # other - own in {0, 1}: as uint64 a negative difference wraps far above 1
    n_piv = int(np.count_nonzero(diff.view(np.uint64) <= 1))
    return MonteCarloEstimate(
        value=0.5 * (n_piv / trials),
        se=0.5 * _binomial_share_se(n_piv, trials),
        trials=trials,
    )


def poisson_environment_pivot(
    params: ElectorateParams,
    s: StrategyPair,
    side: str = "A",
    cfg: OracleConfig | None = None,
) -> MonteCarloEstimate:
    """Monte Carlo pivot gain with all four counts Poisson.

    This matches the environment a voter conditions on (every group's
    count is Poisson with its mean), so the estimate is consistent for
    the brute-force pivot gain and for the closed forms.  Each side's
    total is one Poisson(x + y) draw, A's first (see the module
    docstring).  A side whose x + y reaches 2**62 raises ``DomainError``.
    """
    cfg = cfg or DEFAULT_ORACLE_CONFIG
    y_a = params.m_a * s.alpha_a
    y_b = params.m_b * s.alpha_b
    return _poisson_pivot(params.x_a, params.x_b, y_a, y_b, side, cfg)
