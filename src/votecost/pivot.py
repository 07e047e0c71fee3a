"""Electorate parameters, closed-form pivot gains, and cost thresholds.

The electorate splits into partisans (always vote) and non-partisans
(vote with side-specific probabilities alpha_a, alpha_b).  Writing

    u = x_a + m_a * alpha_a        expected A vote total
    v = x_b + m_b * alpha_b        expected B vote total

the expected tie-rule gain from one extra A vote is r1 = h(v, u) and
from one extra B vote is r2 = h(u, v), with ``h`` from
:mod:`votecost.special_fn`.  Both lie in (0, 1/2].

``thresholds`` packages the four cost frontiers that organize the
equilibrium landscape for a given electorate:

    ct_upper = g(2 x_a) / 2              mixed-equilibrium ceiling
    ct_lower = g(2 n (1 - p_a)) / 2      mixed-equilibrium floor
    pa_lower = h(x_a, x_b)               absenteeism / no-queue floor
    ps_lower = h(n (1 - p_a), n p_a)     saturation floor (all-swipe ceiling)

How ``thresholds`` (floats) and ``log_frontiers`` (arrays) compute
them in log form with the same bits, and what an ``ElectorateParams``
computes and keeps: README, "Numerical notes".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, finite_real
from .special_fn import FLOAT_OPS, _array_h_parts, _h_parts, g, h, log_g, log_h

__all__ = [
    "ElectorateParams",
    "StrategyPair",
    "ThresholdSet",
    "r1_closed",
    "r2_closed",
    "thresholds",
    "log_frontiers",
]

LOG_HALF = math.log(0.5)


@dataclass(frozen=True)
class ElectorateParams:
    """Expected population size ``n``, partisan share ``p``, A share ``p_a``.

    ``n`` is a positive real (a mean, not a head count); ``p`` in (0, 1);
    ``p_a`` in (1/2, 1) so that A is the ex-ante majority side.  The
    four partisan and non-partisan means must come out positive, and
    x_a above x_b, in floating point; shares near 0 can underflow them.
    """

    n: float
    p: float
    p_a: float
    # not fields (no annotation): __post_init__ sets the six means, and the
    # first call of thresholds() sets _thresholds
    _thresholds = None

    def __post_init__(self):
        for name, value, lo, hi, rule in (
            ("n", self.n, 0.0, math.inf, "be a finite positive real"),
            ("p", self.p, 0.0, 1.0, "lie in (0, 1)"),
            ("p_a", self.p_a, 0.5, 1.0, "lie in (1/2, 1)"),
        ):
            if not (finite_real(value) and lo < value < hi):
                raise DomainError(f"{name} must {rule}, got {value!r}")
        means = _group_means(float(self.n), self.p, self.p_a)
        for name, value in zip(_MEAN_NAMES, means):
            object.__setattr__(self, name, value)
        x_a, x_b, m_a, m_b = means[:4]
        if not (min(x_a, x_b, m_a, m_b) > 0.0 and x_a > x_b):
            raise DomainError(
                f"the means at n={self.n!r}, p={self.p!r}, p_a={self.p_a!r} "
                f"underflow: need x_a > x_b > 0 and m_a, m_b > 0, got x_a={x_a!r}, "
                f"x_b={x_b!r}, m_a={m_a!r}, m_b={m_b!r}"
            )


_MEAN_NAMES = ("x_a", "x_b", "m_a", "m_b", "total_a", "total_b")


def _group_means(n, p: float, p_a: float) -> tuple:
    """The means named in ``_MEAN_NAMES`` at a float or an array ``n``.

    A and B partisans n p p_a and n p (1 - p_a), A and B non-partisans
    n (1 - p) p_a and n (1 - p) (1 - p_a), all A and all B supporters
    n p_a and n (1 - p_a).
    """
    partisans, others, q_a = n * p, n * (1.0 - p), 1.0 - p_a
    return partisans * p_a, partisans * q_a, others * p_a, others * q_a, n * p_a, n * q_a


@dataclass(frozen=True)
class StrategyPair:
    """Voting probabilities of non-partisan A and B supporters."""

    alpha_a: float
    alpha_b: float

    def __post_init__(self):
        for name, value in (("alpha_a", self.alpha_a), ("alpha_b", self.alpha_b)):
            if not (finite_real(value) and 0.0 <= value <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {value!r}")


def turnout_means(params: ElectorateParams, s: StrategyPair) -> tuple[float, float]:
    """Expected vote totals (u, v) for sides A and B."""
    return params.x_a + params.m_a * s.alpha_a, params.x_b + params.m_b * s.alpha_b


def r1_closed(params: ElectorateParams, s: StrategyPair) -> float:
    """Expected tie-rule gain from one extra A vote at strategies ``s``."""
    u, v = turnout_means(params, s)
    return h(v, u)


def r2_closed(params: ElectorateParams, s: StrategyPair) -> float:
    """Expected tie-rule gain from one extra B vote at strategies ``s``."""
    u, v = turnout_means(params, s)
    return h(u, v)


def _h_list(x_a, z) -> list[float]:
    """``h`` at each pair of x_a >= 0 and z > 0, as Python floats with its bits.

    One array pass of ``h``'s formula, finished with ``h``'s
    ``math.exp`` per element (README, "Numerical notes").
    """
    scaled, dd = _array_h_parts(x_a, z, "_h_list")
    exp = math.exp
    return [part * exp(-sq) for part, sq in zip(scaled.tolist(), dd.tolist())]


@dataclass(frozen=True)
class ThresholdSet:
    """The four cost frontiers for a fixed electorate.

    All values lie in [0, 1/2].  ``ct_admissible`` records whether the
    mean A-partisan count is at most the mean count of all B supporters
    (x_a <= n (1 - p_a)); the mixed equilibrium can only exist then.
    For large electorates with ``ct_admissible`` the frontiers order as
    ct_upper >= ct_lower >= pa_lower >= ps_lower; the ordering is a
    large-population property, checked per parameter point, not assumed.

    The ``log_*`` fields, the frontiers' natural logs, are what
    classification compares costs against (README, "Numerical notes").
    """

    ct_upper: float
    ct_lower: float
    pa_lower: float
    ps_lower: float
    ct_admissible: bool
    log_ct_upper: float = field(repr=False)
    log_ct_lower: float = field(repr=False)
    log_pa_lower: float = field(repr=False)
    log_ps_lower: float = field(repr=False)


def log_frontiers(n, p: float, p_a: float) -> np.ndarray:
    """Logs of (ct_upper, ct_lower, pa_lower, ps_lower), stacked on axis 0.

    ``n`` is a population or an array of them (a sweep); either runs on
    stacked arrays.  One electorate's frontiers come faster from
    ``thresholds``, with the same bits (README, "Numerical notes").
    """
    x_a, x_b, _, _, total_a, total_b = _group_means(np.asarray(n, dtype=float), p, p_a)
    # ct_upper and ct_lower are g/2 at twice the first arguments of the
    # two h frontiers
    first = np.array([x_a, total_b])
    return np.concatenate(
        [log_g(2.0 * first) + LOG_HALF, log_h(first, np.array([x_b, total_a]))]
    )


def thresholds(params: ElectorateParams) -> ThresholdSet:
    """The four cost frontiers from the means of ``params``, once per instance."""
    ts = params._thresholds
    if ts is None:
        x_a, total_b = params.x_a, params.total_b
        scaled_a, dd_a, _, _ = _h_parts(x_a, params.x_b, FLOAT_OPS)
        scaled_b, dd_b, _, _ = _h_parts(total_b, params.total_a, FLOAT_OPS)
        logs = np.log([g(2.0 * x_a), g(2.0 * total_b), scaled_a, scaled_b])
        # adding -dd is subtracting dd, as log_h does, bit for bit; in
        # place, so no second array is allocated
        logs += [LOG_HALF, LOG_HALF, -dd_a, -dd_b]
        # field order: the four linear frontiers, ct_admissible, the four logs
        ts = ThresholdSet(*np.exp(logs).tolist(), x_a <= total_b, *logs.tolist())
        # set in place: a functools.cached_property made classify ~5% slower
        # on CPython 3.11
        object.__setattr__(params, "_thresholds", ts)
    return ts
