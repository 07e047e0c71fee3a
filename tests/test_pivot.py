"""Closed-form pivot gains, margins, and threshold frontiers."""

import copy
import dataclasses
import json
import math
import pickle
import sys

import numpy as np
import pytest

from reference_fns import expected_margin
from votecost.cli import _csv_schema, _json_default
from votecost.errors import DomainError
from votecost.oracle import pivot_gain_bruteforce
from votecost.pivot import (
    ElectorateParams,
    StrategyPair,
    _h_list,
    log_frontiers,
    r1_closed,
    r2_closed,
    thresholds,
    turnout_means,
)
from votecost.special_fn import h, log_h


class TestElectorateParams:
    def test_derived_means(self):
        params = ElectorateParams(n=1000, p=0.2, p_a=0.6)
        assert params.x_a == pytest.approx(120.0)
        assert params.x_b == pytest.approx(80.0)
        assert params.m_a == pytest.approx(480.0)
        assert params.m_b == pytest.approx(320.0)
        assert params.total_a == pytest.approx(600.0)
        assert params.total_b == pytest.approx(400.0)
        assert params.x_a > params.x_b

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0.0, p=0.2, p_a=0.6),
            dict(n=-5.0, p=0.2, p_a=0.6),
            dict(n=math.inf, p=0.2, p_a=0.6),
            dict(n=10.0, p=0.0, p_a=0.6),
            dict(n=10.0, p=1.0, p_a=0.6),
            dict(n=10.0, p=0.2, p_a=0.5),
            dict(n=10.0, p=0.2, p_a=1.0),
            dict(n=10.0, p=0.2, p_a=0.4),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            ElectorateParams(**kwargs)

    @pytest.mark.parametrize(
        "bad",
        ["5", None, 1j, np.array([1.0, 2.0]), np.array("x"), 10**400],
        ids=["str", "None", "complex", "array", "str array", "int past floats"],
    )
    @pytest.mark.parametrize(
        "name, rule",
        [("n", "be a finite positive real"), ("p", "lie in (0, 1)"), ("p_a", "lie in (1/2, 1)")],
        ids=["n", "p", "p_a"],
    )
    def test_rejects_value_not_real(self, name, rule, bad):
        # the message of a value out of range, not a TypeError or ValueError
        # from the comparison
        kwargs = {"n": 10.0, "p": 0.2, "p_a": 0.6, name: bad}
        with pytest.raises(DomainError) as err:
            ElectorateParams(**kwargs)
        assert str(err.value) == f"{name} must {rule}, got {bad!r}"

    @pytest.mark.parametrize(
        "n, p, p_a",
        [
            # x_b underflows to 0.0; the kernel used to reject it instead
            (1.0, 5e-324, 0.9),
            # n p underflows, so x_a = x_b = 0.0
            (5e-324, 0.5, 0.6),
            # x_a and x_b round to the same subnormal 2.5e-323, which made
            # the no-queue corner a tie and recommend_cost a cost to avoid
            (10.0, 5e-324, 0.53125),
        ],
    )
    def test_rejects_underflowing_means(self, n, p, p_a):
        with pytest.raises(DomainError) as err:
            ElectorateParams(n=n, p=p, p_a=p_a)
        message = str(err.value)
        assert f"n={n!r}" in message
        assert f"p={p!r}" in message
        assert f"p_a={p_a!r}" in message


MEAN_NAMES = ("x_a", "x_b", "m_a", "m_b", "total_a", "total_b")


def means_of(params):
    return tuple(getattr(params, name) for name in MEAN_NAMES)


class TestStoredMeans:
    """The six means are set when the electorate is built, and nowhere else."""

    def test_copies_carry_their_electorates_means(self):
        params = ElectorateParams(n=1000, p=0.2, p_a=0.6)
        other = ElectorateParams(n=37.5, p=0.2, p_a=0.6)
        replaced = dataclasses.replace(params, n=37.5)
        assert means_of(replaced) == means_of(other)
        assert means_of(replaced) != means_of(params)
        for twin in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert twin == params
            assert means_of(twin) == means_of(ElectorateParams(n=1000, p=0.2, p_a=0.6))

    @pytest.mark.parametrize("n", [np.float32(500.0), np.int64(500), np.float64(500.0)])
    def test_numpy_scalar_n_gives_the_means_of_its_float(self, n):
        # thresholds reads the means, so its frontiers are those of float(n) too
        params = ElectorateParams(n=n, p=0.2, p_a=0.6)
        plain = ElectorateParams(n=float(n), p=0.2, p_a=0.6)
        assert all(type(m) is float for m in means_of(params))
        assert means_of(params) == means_of(plain)
        assert thresholds(params) == thresholds(plain)

    def test_means_are_read_only(self):
        params = ElectorateParams(n=1000, p=0.2, p_a=0.6)
        for name in MEAN_NAMES:
            with pytest.raises(AttributeError):
                setattr(params, name, 1.0)
        assert means_of(params) == means_of(ElectorateParams(n=1000, p=0.2, p_a=0.6))


class TestStrategyPair:
    def test_bounds(self):
        StrategyPair(0.0, 1.0)
        with pytest.raises(DomainError):
            StrategyPair(-0.1, 0.5)
        with pytest.raises(DomainError):
            StrategyPair(0.5, 1.1)

    @pytest.mark.parametrize(
        "bad",
        ["x", None, 1j, np.array([0.1, 0.2]), math.nan],
        ids=["str", "None", "complex", "array", "nan"],
    )
    def test_rejects_value_not_real(self, bad):
        for pair, name in (((bad, 0.5), "alpha_a"), ((0.5, bad), "alpha_b")):
            with pytest.raises(DomainError) as err:
                StrategyPair(*pair)
            assert str(err.value) == f"{name} must lie in [0, 1], got {bad!r}"


class TestClosedForms:
    def test_zero_turnout_limit(self):
        # exact at the degenerate point of the kernel itself
        assert h(0.0, 0.0) == 0.5
        # and approached by a vanishing electorate
        params = ElectorateParams(n=1e-9, p=0.5, p_a=0.6)
        s = StrategyPair(0.0, 0.0)
        assert r1_closed(params, s) == pytest.approx(0.5, abs=1e-9)
        assert r2_closed(params, s) == pytest.approx(0.5, abs=1e-9)

    def test_equal_turnout_means_equal_gains(self):
        params = ElectorateParams(n=300, p=0.3, p_a=0.6)
        # alpha_b chosen so both expected totals coincide
        alpha_a = 0.2
        alpha_b = (
            params.p * (2 * params.p_a - 1) + params.p_a * (1 - params.p) * alpha_a
        ) / ((1 - params.p) * (1 - params.p_a))
        s = StrategyPair(alpha_a, alpha_b)
        u, v = turnout_means(params, s)
        assert u == pytest.approx(v, rel=1e-14)
        assert r1_closed(params, s) == pytest.approx(r2_closed(params, s), rel=1e-13)

    def test_matches_bruteforce_at_reference_point(self):
        params = ElectorateParams(n=10, p=0.3, p_a=0.6)
        s = StrategyPair(0.5, 0.5)
        y_a, y_b = params.m_a * 0.5, params.m_b * 0.5
        for side, closed in (("A", r1_closed(params, s)), ("B", r2_closed(params, s))):
            brute = pivot_gain_bruteforce(params.x_a, params.x_b, y_a, y_b, side)
            assert abs(closed - brute.value) < 1e-10

    def test_sign_identity_randomized(self):
        # r2 - r1 carries the sign of the expected-turnout difference
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(1200):
            params = ElectorateParams(
                n=float(rng.uniform(1.0, 500.0)),
                p=float(rng.uniform(0.05, 0.95)),
                p_a=float(rng.uniform(0.51, 0.99)),
            )
            s = StrategyPair(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            u, v = turnout_means(params, s)
            diff = r2_closed(params, s) - r1_closed(params, s)
            if abs(u - v) > 1e-9 * params.n:
                assert math.copysign(1.0, diff) == math.copysign(1.0, u - v)
                checked += 1
            assert 0.0 < r1_closed(params, s) <= 1.0
            assert 0.0 < r2_closed(params, s) <= 1.0
        assert checked >= 1000


class TestHList:
    """``_h_list``, the array pass behind ``verify``'s closed forms, has ``h``'s bits."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(20261022)
        x = 10.0 ** rng.uniform(-3.0, 7.0, size=3000)
        z = 10.0 ** rng.uniform(-3.0, 7.0, size=3000)
        # x ~ z: equal, one ulp apart and within a few parts in 1e9
        near = x[:600] * (1.0 + rng.uniform(-1e-9, 1e-9, size=600))
        # (sqrt(x) - sqrt(z))^2 near 708-760: subnormal gains and gains of 0.0
        far_x = 10.0 ** rng.uniform(3.0, 6.0, size=600)
        far_z = (np.sqrt(far_x) + np.sqrt(rng.uniform(700.0, 760.0, size=600))) ** 2
        xs = np.concatenate([x, x[:300], x[:300], x[:600], far_x, far_z])
        zs = np.concatenate([z, x[:300], np.nextafter(x[:300], np.inf), near, far_z, far_x])
        return xs, zs

    def test_equals_h_bit_for_bit(self):
        xs, zs = self.pairs()
        got = _h_list(xs, zs)
        want = [h(x, z) for x, z in zip(xs.tolist(), zs.tolist())]
        assert got == want
        assert {type(v) for v in got} == {float}
        assert got.count(0.0) > 50
        assert sum(0.0 < v < sys.float_info.min for v in got) > 50

    @pytest.mark.parametrize(
        "x, z", [(1.0, 0.0), (1.0, -1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_rejects_what_log_h_rejects(self, x, z):
        # h's z = 0 branch is not in the array formula, so z = 0 is an error
        for fn in (_h_list, log_h):
            with pytest.raises(DomainError, match="requires every x_a >= 0 and z > 0"):
                fn([2.0, x], [3.0, z])


class TestMargin:
    def test_full_turnout(self):
        params = ElectorateParams(n=200, p=0.25, p_a=0.7)
        s = StrategyPair(1.0, 1.0)
        assert expected_margin(params, s) == pytest.approx(200 * (2 * 0.7 - 1))
        assert expected_margin(params, s) > 0.0

    def test_partisans_only(self):
        params = ElectorateParams(n=200, p=0.25, p_a=0.7)
        s = StrategyPair(0.0, 0.0)
        assert expected_margin(params, s) == pytest.approx(200 * 0.25 * (2 * 0.7 - 1))
        assert expected_margin(params, s) > 0.0


class TestThresholds:
    def test_strict_ordering_at_reference_point(self):
        ts = thresholds(ElectorateParams(n=5000, p=0.2, p_a=0.6))
        assert ts.ct_admissible
        assert ts.ct_upper > ts.ct_lower > ts.pa_lower > ts.ps_lower > 0.0

    def test_all_values_in_range(self):
        for n in (1.0, 50.0, 5000.0):
            ts = thresholds(ElectorateParams(n=n, p=0.3, p_a=0.55))
            for v in (ts.ct_upper, ts.ct_lower, ts.pa_lower, ts.ps_lower):
                assert 0.0 <= v <= 0.5

    def test_ct_upper_limit_small_electorate(self):
        ts = thresholds(ElectorateParams(n=1e-6, p=0.5, p_a=0.6))
        assert ts.ct_upper == pytest.approx(0.5, abs=1e-6)

    def test_admissibility_flag(self):
        assert not thresholds(ElectorateParams(n=100, p=0.9, p_a=0.9)).ct_admissible
        assert thresholds(ElectorateParams(n=100, p=0.2, p_a=0.6)).ct_admissible

    def test_ct_upper_equals_diagonal_kernel(self):
        params = ElectorateParams(n=777, p=0.23, p_a=0.64)
        ts = thresholds(params)
        assert ts.ct_upper == pytest.approx(h(params.x_a, params.x_a), rel=1e-12)

    def test_cached_frontiers_leave_params_unchanged(self):
        # neither the kept frontiers nor the stored means show in ==, hash,
        # repr, JSON or the CSV header
        params = ElectorateParams(n=500, p=0.2, p_a=0.6)
        fresh = ElectorateParams(n=500, p=0.2, p_a=0.6)
        before = (repr(params), hash(params), json.dumps(params, default=_json_default))
        assert before[0] == "ElectorateParams(n=500, p=0.2, p_a=0.6)"
        assert before[2] == '{"n": 500, "p": 0.2, "p_a": 0.6}'
        assert _csv_schema(ElectorateParams)[0] == ("n", "p", "pa")
        ts = thresholds(params)
        assert thresholds(params) is ts
        assert thresholds(fresh) == ts
        assert params == fresh and fresh == params
        assert (repr(params), hash(params), json.dumps(params, default=_json_default)) == before
        assert before == (repr(fresh), hash(fresh), json.dumps(fresh, default=_json_default))
        assert means_of(params) == means_of(fresh)

    @pytest.mark.parametrize(
        "n, p, p_a",
        [
            (0.0, 0.2, 0.6),
            (-1.0, 0.2, 0.6),
            (math.nan, 0.2, 0.6),
            (500.0, -0.1, 0.6),
            (500.0, 0.2, 1.2),
        ],
    )
    def test_log_frontiers_rejects_bad_electorate(self, n, p, p_a):
        # a scalar n and an array n both take the array path; the kernels
        # log_g and log_h reject the bad means
        for form in (n, np.array([n])):
            with pytest.raises(DomainError):
                log_frontiers(form, p, p_a)
