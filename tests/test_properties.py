"""Property tests of classify at and around the cost frontiers.

The draws reach the edges of the domain: n log-uniform on [1e-2, 1e7]
(and, for ``recommend_cost``, on [1e7, 1e300] too), shares down to
1e-12 from their bounds (p_a just above 1/2), x_a within rounding of
sqrt(2), and costs on each frontier, within the relative slack of
``cost_side`` of it, just outside it, or anywhere nearby.

The paper's claim is checked by an independent route: outside the
coin-toss window every equilibrium elects A.  A label of A must show a
strict excess of the Skellam win probability P(T_A > T_B) over
P(T_A < T_B), and a tie label equal probabilities (Skellam 1946;
Myerson 2000), with ``scipy.stats.skellam``, which the package itself
does not import.  Both probabilities are read from the cdf at -1, the
means swapped for P(T_A > T_B): scipy's survival function is off by
up to 3e-4 relative at means of 1e-13, where the cdf is not.
Probabilities within SKELLAM_RESOLUTION of each other count as equal.

At n <= 60, where a brute-force Poisson sum is cheap, every listed
equilibrium is also certified by brute force: no side gains more than
RESIDUAL_BOUND times the cost by deviating (``nash_deviation_gain``).
"""

import math
import sys

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.stats import skellam

from reference_fns import nash_deviation_gain
from residuals import RESIDUAL_BOUND, relative_residual
from votecost import (
    DomainError,
    ElectorateParams,
    EquilibriumKind,
    classify,
    enumerate_equilibria,
    recommend_cost,
    thresholds,
)
from votecost.pivot import turnout_means

settings.register_profile(
    "votecost",
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("votecost")

SQRT2 = math.sqrt(2.0)
SKELLAM_RESOLUTION = 1e-9


def _near_bounds(lo: float, hi: float):
    """A share at least 1e-12 inside (lo, hi): anywhere, or within 1e-1 of an end."""
    gap = st.floats(-12.0, -1.0).map(lambda e: 10.0**e)
    return st.one_of(
        st.floats(lo + 1e-12, hi - 1e-12),
        gap.map(lambda d: lo + d),
        gap.map(lambda d: hi - d),
    )


@st.composite
def electorates(draw, far=False, log_n_max=7.0):
    p = draw(_near_bounds(0.0, 1.0))
    p_a = draw(_near_bounds(0.5, 1.0))
    if far:
        n = 10.0 ** draw(st.floats(7.0, 300.0))
    elif draw(st.booleans()):
        n = 10.0 ** draw(st.floats(-2.0, log_n_max))
    else:  # x_a = n p p_a within 1e-3 of sqrt(2), down to rounding
        rel = draw(st.one_of(st.floats(-1e-3, 1e-3), st.sampled_from([0.0, 1e-15, -1e-15])))
        n = SQRT2 * (1.0 + rel) / (p * p_a)
        assume(1e-2 <= n <= 10.0**log_n_max)
    return ElectorateParams(n=n, p=p, p_a=p_a)


@st.composite
def frontier_costs(draw, far=False, log_n_max=7.0):
    """An electorate and a cost on, near or around one of its frontiers."""
    params = draw(electorates(far, log_n_max))
    ts = thresholds(params)
    log_fs = ts.log_ct_upper, ts.log_ct_lower, ts.log_pa_lower, ts.log_ps_lower
    log_f = log_fs[draw(st.integers(0, 3))]
    offset = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9]),
            st.floats(-2.0, 2.0),
        )
    )
    c = math.exp(log_f + offset)
    assume(c >= sys.float_info.min)
    return params, c


def _win_probabilities(params, s):
    u, v = turnout_means(params, s)
    return float(skellam.cdf(-1, v, u)), float(skellam.cdf(-1, u, v))


@given(frontier_costs())
def test_classify_invariants(point):
    params, c = point
    report = classify(params, c)
    assert report.equilibria
    assert not any(" but solvers returned " in note for note in report.notes), report.notes
    if report.case_index != 0:
        assert report.avoid == (report.case_index == 2)
    for eq in report.equilibria:
        assert (eq.winner.value == "tie_in_expectation") == (eq.kind.value == "coin_toss"), eq
        assert relative_residual(params, eq, c) <= RESIDUAL_BOUND, eq
        a_wins, b_wins = _win_probabilities(params, eq.strategies)
        equal = abs(a_wins - b_wins) <= SKELLAM_RESOLUTION * max(a_wins, b_wins)
        if eq.winner.value == "A":
            assert a_wins > b_wins or equal, eq
        else:
            assert equal, eq
            assert report.case_index in (0, 2), report


def test_bruteforce_certifies_every_listed_equilibrium():
    """At n <= 60 no side of a listed equilibrium gains by deviating."""
    kinds = set()

    @given(frontier_costs(log_n_max=math.log10(60.0)))
    def certify(point):
        params, c = point
        # below 1e-6 the brute-force sums' rounding of u(1) - u(0), about
        # 1e-15, exceeds RESIDUAL_BOUND * c
        assume(c >= 1e-6)
        for eq in enumerate_equilibria(params, c):
            kinds.add(eq.kind)
            for side in ("A", "B"):
                gain = nash_deviation_gain(params, eq.strategies, c, side)
                assert gain <= RESIDUAL_BOUND * c, (params, c, eq, side, gain)

    certify()
    assert kinds == set(EquilibriumKind), kinds


@given(st.one_of(frontier_costs(), frontier_costs(far=True)))
def test_recommended_cost_is_safe(point):
    params, c = point
    out = recommend_cost(params, c)
    assert out >= c
    assert not classify(params, out).avoid


ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e-300, 1e308]),
)


@given(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
def test_invalid_input_raises_only_domain_error(n, p, p_a, c):
    try:
        params = ElectorateParams(n=n, p=p, p_a=p_a)
        classify(params, c)
        recommend_cost(params, c)
    except DomainError:
        pass
