"""Kernel checks against independent oracles: raw series and mpmath."""

import math

import mpmath
import numpy as np
import pytest
from reference_fns import g_leading, h_ray_leading, i_sign
from series_oracle import (
    bessel_i0,
    bessel_i1,
    hyp0f1_1,
    hyp0f1_2,
    scaled_bessel_logseries,
)

from votecost.errors import DomainError
from votecost.special_fn import _i_sign_core, _log_g_slope, _log_h_slope, g, h, log_g, log_h

# Frozen from a 40-digit series summation (mpmath).
F1_AT_1 = 2.2795853023360672674
F1_AT_4 = 11.301921952136330496
F2_AT_1 = 1.5906368546373290634
F2_AT_4 = 4.8797325768522249547
I1_AT_4 = 9.7594651537044499095
SCALED_I0_AT_1000 = 0.012617240455891256586
SCALED_I1_AT_2 = 0.21526928924893765916
G_AT_2 = 0.52377761180260869869


def central_diff(fn, z, rel_step=3e-6):
    step = z * rel_step
    return (fn(z + step) - fn(z - step)) / (2.0 * step)


def scaled_i1(t):
    # e^{-t} I1(t) from the package kernel: _i_sign_core(x, x)[0] = -e^{-2x} I1(2x)
    return -_i_sign_core(0.5 * t, 0.5 * t)[0]


class TestSeries:
    """The raw-series oracle itself."""

    def test_empty_product_terms(self):
        assert hyp0f1_1(0.0) == 1.0
        assert hyp0f1_2(0.0) == 1.0

    def test_frozen_values(self):
        assert hyp0f1_1(1.0) == pytest.approx(F1_AT_1, rel=1e-15)
        assert hyp0f1_1(4.0) == pytest.approx(F1_AT_4, rel=1e-15)
        assert hyp0f1_2(1.0) == pytest.approx(F2_AT_1, rel=1e-15)
        assert hyp0f1_2(4.0) == pytest.approx(F2_AT_4, rel=1e-15)

    def test_domain_errors(self):
        for fn in (hyp0f1_1, hyp0f1_2):
            with pytest.raises(ValueError):
                fn(-1.0)
            with pytest.raises(ValueError):
                fn(float("nan"))
            with pytest.raises(ValueError):
                fn(float("inf"))

    def test_overflow_returns_inf(self):
        assert hyp0f1_1(1e6) == math.inf

    def test_derivative_identity(self):
        # dF1/dz = F2, checked by central differences on a log grid
        for z in np.geomspace(0.1, 50.0, 25):
            fd = central_diff(hyp0f1_1, z)
            assert fd == pytest.approx(hyp0f1_2(z), rel=1e-6)


class TestBessel:
    """The package's scaled Bessel factors against the series oracles."""

    def test_trivial_points(self):
        assert bessel_i0(0.0) == 1.0
        assert bessel_i1(0.0) == 0.0
        assert g(0.0) == 1.0
        assert log_g(0.0) == 0.0

    def test_series_relation(self):
        assert bessel_i0(2.0) == pytest.approx(hyp0f1_1(1.0), rel=1e-15)
        assert bessel_i0(4.0) == pytest.approx(F1_AT_4, rel=1e-15)
        assert bessel_i1(4.0) == pytest.approx(I1_AT_4, rel=1e-15)

    def test_domain_errors(self):
        for fn in (bessel_i0, bessel_i1):
            with pytest.raises(ValueError):
                fn(-0.5)
        for fn in (g, log_g):
            with pytest.raises(DomainError):
                fn(-0.5)

    def test_derivative_of_i0_is_i1(self):
        for t in np.geomspace(0.1, 30.0, 25):
            fd = central_diff(bessel_i0, t)
            assert fd == pytest.approx(bessel_i1(t), rel=1e-6)

    def test_scaled_frozen_values(self):
        assert scaled_i1(2.0) == pytest.approx(SCALED_I1_AT_2, rel=1e-13)
        assert g(1000.0) - scaled_i1(1000.0) == pytest.approx(SCALED_I0_AT_1000, rel=1e-13)

    def test_scaled_unscaled_consistency(self):
        for t in np.geomspace(0.05, 25.0, 30):
            unscaled = bessel_i0(t) + bessel_i1(t)
            assert g(t) * math.exp(t) == pytest.approx(unscaled, rel=1e-12)
            assert scaled_i1(t) * math.exp(t) == pytest.approx(bessel_i1(t), rel=1e-12)
        # h from its defining series: (F1(x z) + x F2(x z)) e^{-x-z} / 2
        for x, z in ((0.5, 2.0), (3.0, 1.0), (10.0, 7.0), (40.0, 60.0)):
            w = x * z
            want = 0.5 * (hyp0f1_1(w) + x * hyp0f1_2(w)) * math.exp(-x - z)
            assert h(x, z) == pytest.approx(want, rel=1e-12)

    def test_scaled_vs_logseries_oracle(self):
        for t in np.geomspace(0.5, 2000.0, 40):
            ref0 = scaled_bessel_logseries(t, 0)
            ref1 = scaled_bessel_logseries(t, 1)
            assert g(t) == pytest.approx(ref0 + ref1, rel=1e-12)
            assert scaled_i1(t) == pytest.approx(ref1, rel=1e-12)

    def test_switch_point_confirmation(self):
        # Cephes switches between two Chebyshev expansions at t = 8; both
        # sides must match the log series
        for t in np.linspace(6.0, 10.0, 17):
            ref0 = scaled_bessel_logseries(float(t), 0)
            ref1 = scaled_bessel_logseries(float(t), 1)
            assert g(float(t)) == pytest.approx(ref0 + ref1, rel=1e-12)
            assert scaled_i1(float(t)) == pytest.approx(ref1, rel=1e-12)


class TestG:
    def test_value_at_zero(self):
        assert g(0.0) == 1.0

    def test_frozen_value(self):
        assert g(2.0) == pytest.approx(G_AT_2, rel=1e-13)

    def test_large_argument_asymptote(self):
        want = math.sqrt(2.0 / (math.pi * 1e4)) * (1.0 - 1.0 / (8.0 * 1e4))
        assert g(1e4) == pytest.approx(want, rel=2e-4)

    def test_strictly_decreasing(self):
        grid = np.concatenate(
            [np.geomspace(1e-6, 1.0, 300), np.linspace(1.001, 1e5, 900)]
        )
        vals = [g(z) for z in grid]
        diffs = np.diff(vals)
        assert len(grid) >= 1000
        assert np.all(diffs < 0.0)

    def test_leading_term(self):
        assert g_leading(1e4) == pytest.approx(7.9788e-3, rel=1e-4)
        with pytest.raises(DomainError):
            g_leading(0.0)


class TestH:
    def test_boundary_value(self):
        # h(x, 0) = (x + 1) e^{-x} / 2
        assert h(2.0, 0.0) == pytest.approx(1.5 * math.exp(-2.0), rel=1e-14)
        assert h(0.0, 0.0) == 0.5

    def test_diagonal_matches_g(self):
        for x in (0.5, 1.0, 5.0, 20.0, 50.0, 200.0):
            assert h(x, x) == pytest.approx(0.5 * g(2.0 * x), rel=1e-12)

    def test_ray_ordering(self):
        # the larger first argument dominates along swapped rays
        assert h(5.0, 2.0) >= h(2.0, 5.0)
        assert h(30.0, 10.0) >= h(10.0, 30.0)

    def test_no_overflow_at_huge_means(self):
        val = h(7e6, 2e6)
        assert val == 0.0 or (0.0 < val < 1.0)
        assert 0.0 < h(1.2e6, 1.2e6) < 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            h(-1.0, 1.0)
        with pytest.raises(DomainError):
            h(1.0, -1.0)

    def test_monotone_decreasing_below_sqrt2(self):
        for x_a in (0.5, 1.0, 1.4):
            zs = np.linspace(1e-4, 4.0 * x_a, 400)
            vals = [h(x_a, z) for z in zs]
            assert np.all(np.diff(vals) < 0.0)

    def test_unimodal_above_sqrt2(self):
        for x_a in (3.0, 10.0, 40.0):
            zs = np.linspace(1e-4, x_a, 600)
            vals = np.array([h(x_a, z) for z in zs])
            k = int(np.argmax(vals))
            assert 0 < k < len(zs) - 1
            assert np.all(np.diff(vals[: k + 1]) > 0.0)
            assert np.all(np.diff(vals[k:]) < 0.0)

    def test_ray_leading_term(self):
        val = h(200.0, 100.0)
        lead = h_ray_leading(200.0, 0.5)
        assert abs(val - lead) / val < 0.1
        # q = 1 reduces to the balanced asymptote: exponential factor is 1
        assert h_ray_leading(50.0, 1.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi * 50.0)), rel=1e-13
        )
        with pytest.raises(DomainError):
            h_ray_leading(0.0, 1.0)
        with pytest.raises(DomainError):
            h_ray_leading(1.0, 0.0)


class TestISign:
    def test_zero_at_origin(self):
        assert i_sign(2.0, 0.0) == 0.0

    def test_negative_on_diagonal(self):
        for x_a in (2.0, 10.0):
            assert i_sign(x_a, x_a) < 0.0

    def test_positive_near_zero_above_sqrt2(self):
        assert i_sign(2.0, 0.01) > 0.0

    def test_negative_everywhere_below_sqrt2(self):
        for z in (0.5, 1.0, 2.0):
            assert i_sign(1.0, z) < 0.0

    def test_single_sign_change(self):
        for x_a in (2.0, 10.0, 40.0):
            zs = np.linspace(1e-4, x_a, 800)
            signs = np.sign([i_sign(x_a, z) for z in zs])
            flips = np.count_nonzero(np.diff(signs) != 0.0)
            assert flips == 1

    def test_sign_matches_slope_of_h(self):
        x_a = 6.0
        for z in (0.3, 1.0, 3.0, 5.5):
            fd = central_diff(lambda t: h(x_a, t), z)
            assert math.copysign(1.0, fd) == math.copysign(1.0, i_sign(x_a, z))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            i_sign(0.0, 1.0)
        with pytest.raises(DomainError):
            i_sign(1.0, -1.0)


def mp_log_g(z):
    z = mpmath.mpf(float(z))
    return mpmath.log(mpmath.besseli(0, z) + mpmath.besseli(1, z)) - z


def mp_log_h(x, z):
    # log of the Skellam form with the exponent shift applied exactly
    x, z = mpmath.mpf(float(x)), mpmath.mpf(float(z))
    t = 2 * mpmath.sqrt(x * z)
    return mpmath.log((mpmath.besseli(0, t) + mpmath.sqrt(x / z) * mpmath.besseli(1, t)) / 2) - x - z


def assert_log_close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


# (x, z) at the frontiers pa_lower and ps_lower of n = 1e6 and 1e7 with
# p = 0.2, p_a = 0.6, where the linear kernel underflows to 0.0
UNDERFLOW_POINTS = ((1.2e5, 8e4), (4e5, 6e5), (1.2e6, 8e5), (4e6, 6e6))


class TestLogKernels:
    """log_g and log_h against 40-digit mpmath Bessel functions."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        with mpmath.workdps(40):
            yield

    def test_log_g_matches_mpmath(self):
        zs = np.geomspace(1e-3, 1e7, 61)
        got = log_g(zs)
        assert got.shape == zs.shape
        for z, val in zip(zs, got):
            assert_log_close(float(val), float(mp_log_g(z)))

    def test_log_h_matches_mpmath(self):
        rng = np.random.default_rng(20261017)
        pairs = np.exp(rng.uniform(math.log(1e-3), math.log(1e7), size=(120, 2)))
        pairs = np.concatenate([pairs, [[1e-3, 1e7], [1e7, 1e-3], [1e7, 1e7], [2.0, 2.0]]])
        got = log_h(pairs[:, 0], pairs[:, 1])
        for (x, z), val in zip(pairs, got):
            assert_log_close(float(val), float(mp_log_h(x, z)))

    def test_log_h_where_linear_underflows(self):
        for x, z in UNDERFLOW_POINTS:
            assert h(x, z) == 0.0
            val = float(log_h(x, z))
            assert -1e7 < val < math.log(np.finfo(float).tiny)
            assert_log_close(val, float(mp_log_h(x, z)))

    def test_log_matches_linear_where_representable(self):
        zs = np.geomspace(1e-3, 1e5, 30)
        assert np.allclose(log_g(zs), [math.log(g(z)) for z in zs], rtol=1e-14, atol=1e-15)
        for x, z in ((1e-3, 5.0), (3.0, 1.0), (200.0, 150.0), (5e4, 4.9e4)):
            assert float(log_h(x, z)) == pytest.approx(math.log(h(x, z)), rel=1e-13, abs=1e-14)

    def test_domain_errors(self):
        for x, z in ((1.0, 0.0), (-1.0, 1.0), (1.0, -1.0), (float("nan"), 1.0)):
            with pytest.raises(DomainError):
                log_h(x, z)
        with pytest.raises(DomainError):
            log_h(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            log_g(float("nan"))


def _mp_log_g_exact(z):
    # mp_log_g without the float() rounding of z, for mpmath.diff
    return mpmath.log(mpmath.besseli(0, z) + mpmath.besseli(1, z)) - z


def _mp_log_h_exact(x, z):
    t = 2 * mpmath.sqrt(x * z)
    return mpmath.log((mpmath.besseli(0, t) + mpmath.sqrt(x / z) * mpmath.besseli(1, t)) / 2) - x - z


def _mp_i_sign_core(x, z):
    t = 2 * mpmath.sqrt(x * z)
    return ((x - z) * mpmath.besseli(0, t) - mpmath.sqrt(x / z) * mpmath.besseli(1, t)) * mpmath.exp(-t)


class TestSolverSlopes:
    """The value-and-slope entries of the root finders against mpmath."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        with mpmath.workdps(40):
            yield

    @pytest.mark.parametrize("z", [1e-3, 0.5, 2.0, 80.0, 2e6])
    def test_log_g_slope(self, z):
        log_value, slope = _log_g_slope(z)
        assert log_value == math.log(g(z))
        assert slope == pytest.approx(float(mpmath.diff(_mp_log_g_exact, z)), rel=1e-12)

    @pytest.mark.parametrize(
        "x, z", [(3.0, 1.0), (1e-3, 5.0), (10.0, 9.0), (200.0, 150.0), *UNDERFLOW_POINTS]
    )
    def test_log_h_slope(self, x, z):
        log_value, slope = _log_h_slope(x, z)
        assert_log_close(log_value, float(mp_log_h(x, z)))
        want = mpmath.diff(lambda t: _mp_log_h_exact(mpmath.mpf(x), t), z)
        assert slope == pytest.approx(float(want), rel=1e-10)

    @pytest.mark.parametrize("x, z", [(2.0, 0.01), (6.0, 3.0), (10.0, 9.0), (1e5, 9.9e4)])
    def test_i_sign_core_slope(self, x, z):
        value, slope = _i_sign_core(x, z)
        assert value == pytest.approx(float(_mp_i_sign_core(x, z)), rel=1e-12)
        want = mpmath.diff(lambda t: _mp_i_sign_core(mpmath.mpf(x), t), z)
        assert slope == pytest.approx(float(want), rel=1e-9)
