"""Solver tests: existence windows, residuals, and the equilibrium taxonomy."""

import math

import numpy as np
import pytest

import votecost.equilibria as eqm
from bisect_oracle import bisect
from reference_fns import expected_margin, h_ray_leading, i_sign
from votecost.equilibria import (
    EquilibriumKind,
    Winner,
    _rtsafe,
    all_swipe_exists,
    enumerate_equilibria,
    find_h_peak,
    no_queue_exists,
    solve_coin_toss,
    solve_partial_absenteeism,
    solve_partial_saturation,
)
from votecost.errors import ConvergenceError, DomainError
from votecost.pivot import (
    ElectorateParams,
    r1_closed,
    r2_closed,
    thresholds,
)
from votecost.regime import classify, coin_toss_interval, recommend_cost
from votecost.special_fn import _log_h_slope, h

REF = ElectorateParams(n=500, p=0.2, p_a=0.6)
REF_TS = thresholds(REF)


class TestCoinToss:
    def test_rejects_out_of_range_cost(self):
        # cost_side rejects a cost that is not > 0 or not finite; a cost of
        # 1/2 or more above the window is a positive cost with no coin toss
        with pytest.raises(DomainError, match="cost must be > 0"):
            solve_coin_toss(REF, 0.0)
        with pytest.raises(DomainError, match="cost must be finite"):
            solve_coin_toss(REF, math.inf)
        for c in (0.5, 0.75):
            assert solve_coin_toss(REF, c) is None

    def test_absent_above_window(self):
        assert solve_coin_toss(REF, REF_TS.ct_upper * 1.1) is None

    def test_absent_below_window(self):
        assert solve_coin_toss(REF, REF_TS.ct_lower * 0.9) is None

    def test_absent_when_inadmissible(self):
        params = ElectorateParams(n=200, p=0.9, p_a=0.9)
        assert solve_coin_toss(params, 0.01) is None

    def test_solution_properties(self):
        params = ElectorateParams(n=1000, p=0.2, p_a=0.6)
        ts = thresholds(params)
        c = 0.5 * (ts.ct_upper + ts.ct_lower)
        eq = solve_coin_toss(params, c)
        assert eq is not None
        assert eq.kind is EquilibriumKind.COIN_TOSS
        assert eq.winner is Winner.TIE_IN_EXPECTATION
        s = eq.strategies
        assert 0.0 < s.alpha_a < 1.0
        assert 0.0 < s.alpha_b < 1.0
        assert abs(r1_closed(params, s) - c) < 1e-8
        assert abs(r2_closed(params, s) - c) < 1e-8
        assert abs(expected_margin(params, s)) < 1e-9 * params.n
        assert 2.0 * params.x_a < eq.z_root < 2.0 * params.total_b
        # solved aggregate is twice the common expected turnout
        assert eq.z_root == pytest.approx(2.0 * (params.x_a + params.m_a * s.alpha_a), rel=1e-12)

    def test_random_admissible_costs(self):
        rng = np.random.default_rng(7)
        solved = 0
        while solved < 100:
            params = ElectorateParams(
                n=float(rng.uniform(50, 20000)),
                p=float(rng.uniform(0.05, 0.5)),
                p_a=float(rng.uniform(0.52, 0.75)),
            )
            ts = thresholds(params)
            if not ts.ct_admissible or ts.ct_upper <= ts.ct_lower:
                continue
            c = float(ts.ct_lower + rng.uniform(0.05, 0.95) * (ts.ct_upper - ts.ct_lower))
            if not (0.0 < c < 0.5):
                continue
            eq = solve_coin_toss(params, c)
            assert eq is not None
            s = eq.strategies
            assert abs(r1_closed(params, s) - c) < 1e-8
            assert abs(r2_closed(params, s) - c) < 1e-8
            assert 0.0 < s.alpha_a < 1.0 and 0.0 < s.alpha_b < 1.0
            assert abs(expected_margin(params, s)) < 1e-9 * params.n
            solved += 1


class TestHPeak:
    def test_zero_below_sqrt2(self):
        assert find_h_peak(1.0) == 0.0
        assert find_h_peak(math.sqrt(2.0)) == 0.0

    def test_interior_peak(self):
        peak = find_h_peak(10.0)
        assert 0.0 < peak < 10.0
        assert abs(i_sign(10.0, peak)) < 1e-9
        delta = 1e-3
        assert h(10.0, peak) > h(10.0, peak - delta)
        assert h(10.0, peak) > h(10.0, peak + delta)

    def test_peak_below_first_argument(self):
        for x_a in (1.5, 2.0, 5.0, 20.0, 100.0, 1e4):
            peak = find_h_peak(x_a)
            assert peak < x_a

    def test_grid_confirms_maximizer(self):
        peak = find_h_peak(10.0)
        zs = np.linspace(0.01, 10.0, 2000)
        best = zs[int(np.argmax([h(10.0, z) for z in zs]))]
        assert abs(best - peak) < 0.02

    def test_resolves_peak_just_above_sqrt2(self):
        for x_a in (1.42, 1.4143):
            peak = find_h_peak(x_a)
            assert 0.0 < peak < x_a
            assert h(x_a, peak) >= h(x_a, 0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            find_h_peak(0.0)


class TestPartialAbsenteeism:
    def test_empty_above_peak_value(self):
        peak = find_h_peak(REF.x_a)
        c = h(REF.x_a, peak) * 1.01
        assert solve_partial_absenteeism(REF, c) == []

    def test_unique_in_main_window(self):
        params = ElectorateParams(n=5000, p=0.2, p_a=0.6)
        ts = thresholds(params)
        for frac in (0.1, 0.5, 0.9):
            c = ts.pa_lower + frac * (ts.ct_upper - ts.pa_lower)
            eqs = solve_partial_absenteeism(params, c)
            assert len(eqs) == 1
            eq = eqs[0]
            assert eq.strategies.alpha_a == 0.0
            assert 0.0 < eq.strategies.alpha_b < 1.0
            assert abs(r2_closed(params, eq.strategies) - c) < 1e-8
            assert r1_closed(params, eq.strategies) <= c + 1e-8
            assert params.x_b <= eq.z_root <= params.x_a
            assert eq.winner is Winner.A

    def test_two_roots_above_ceiling(self):
        peak = find_h_peak(REF.x_a)
        c = 0.5 * (REF_TS.ct_upper + h(REF.x_a, peak))
        eqs = solve_partial_absenteeism(REF, c)
        assert len(eqs) == 2
        z1, z2 = eqs[0].z_root, eqs[1].z_root
        assert z1 < peak < z2
        for eq in eqs:
            assert abs(r2_closed(REF, eq.strategies) - c) < 1e-8
            assert r1_closed(REF, eq.strategies) <= c + 1e-8

    def test_empty_below_floor(self):
        assert solve_partial_absenteeism(REF, REF_TS.pa_lower * 0.5) == []

    def test_monotone_case_below_sqrt2(self):
        # small electorate: the kernel decreases throughout, so costs
        # between the endpoint values admit exactly one root
        params = ElectorateParams(n=20, p=0.1, p_a=0.6)
        assert params.x_a <= math.sqrt(2.0)
        hi = h(params.x_a, params.x_b)
        lo = h(params.x_a, params.x_a)
        eqs = solve_partial_absenteeism(params, 0.5 * (hi + lo))
        assert len(eqs) == 1
        assert eqs[0].strategies.alpha_a == 0.0
        assert params.x_b < eqs[0].z_root < params.x_a
        assert solve_partial_absenteeism(params, hi * 1.05) == []
        assert solve_partial_absenteeism(params, lo * 0.95) == []

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(DomainError):
            solve_partial_absenteeism(REF, 0.0)

    def test_peak_solved_only_where_the_ends_do_not_decide(self, monkeypatch):
        calls = []

        def counted(x_a):
            calls.append(x_a)
            return find_h_peak(x_a)

        monkeypatch.setattr(eqm, "find_h_peak", counted)
        peak = find_h_peak(REF.x_a)
        # strictly between the end values pa_lower < ct_upper: one root,
        # found on the whole interval
        between = 0.5 * (REF_TS.pa_lower + REF_TS.ct_upper)
        assert [eq.z_root < peak for eq in solve_partial_absenteeism(REF, between)] == [True]
        # below both ends, or on pa_lower and below ct_upper: no interior root
        assert solve_partial_absenteeism(REF, 0.5 * REF_TS.pa_lower) == []
        assert solve_partial_absenteeism(REF, REF_TS.pa_lower) == []
        assert calls == []
        # on ct_upper and above pa_lower: the peak splits off the rising
        # branch, whose root is listed; the root at z = x_a is the coin toss's
        eqs = solve_partial_absenteeism(REF, REF_TS.ct_upper)
        assert calls == [REF.x_a]
        assert [eq.z_root < peak for eq in eqs] == [True]
        assert [eq.kind for eq in enumerate_equilibria(REF, REF_TS.ct_upper)] == [
            EquilibriumKind.COIN_TOSS,
            EquilibriumKind.PARTIAL_ABSENTEEISM,
            EquilibriumKind.NO_QUEUE,
        ]
        # above both ends and below the peak value: one root on each branch
        calls.clear()
        above = 0.5 * (REF_TS.ct_upper + h(REF.x_a, peak))
        eqs = solve_partial_absenteeism(REF, above)
        assert calls == [REF.x_a]
        assert [eq.z_root < peak for eq in eqs] == [True, False]

    def test_cost_on_the_peak_is_a_root(self):
        # no piece changes sign, yet the peak itself is a root: a cost
        # exactly on the peak value lists it (c = 0.03653314903180234)
        peak = find_h_peak(REF.x_a)
        c = math.exp(_log_h_slope(REF.x_a, peak)[0])
        assert [(eq.kind, eq.z_root) for eq in solve_partial_absenteeism(REF, c)] == [
            (EquilibriumKind.PARTIAL_ABSENTEEISM, peak)
        ]
        assert [(eq.kind, eq.z_root) for eq in enumerate_equilibria(REF, c)] == [
            (EquilibriumKind.PARTIAL_ABSENTEEISM, peak),
            (EquilibriumKind.NO_QUEUE, None),
        ]


class TestNoQueue:
    def test_high_cost_exists(self):
        assert no_queue_exists(REF, 0.5)

    def test_just_below_floor_absent(self):
        floor = h(REF.x_a, REF.x_b)
        assert not no_queue_exists(REF, floor * (1.0 - 1e-6))
        assert no_queue_exists(REF, floor * (1.0 + 1e-6))

    def test_floor_is_exponentially_small(self):
        params = ElectorateParams(n=5000, p=0.2, p_a=0.6)
        floor = h(params.x_a, params.x_b)
        # leading-order value along the partisan ray
        q = (1 - params.p_a) / params.p_a
        lead = h_ray_leading(params.x_a, q)
        assert abs(floor - lead) / floor < 0.05
        assert floor < 1e-8


class TestPartialSaturation:
    def test_absent_above_ceiling(self):
        assert solve_partial_saturation(REF, REF_TS.ct_lower * 1.01) is None

    def test_absent_below_floor(self):
        assert solve_partial_saturation(REF, REF_TS.ps_lower * 0.5) is None

    def test_solution_properties(self):
        c = 0.5 * (REF_TS.ps_lower + REF_TS.ct_lower)
        eq = solve_partial_saturation(REF, c)
        assert eq is not None
        assert eq.strategies.alpha_b == 1.0
        assert 0.0 <= eq.strategies.alpha_a <= 1.0
        assert abs(r1_closed(REF, eq.strategies) - c) < 1e-8
        assert r2_closed(REF, eq.strategies) >= c - 1e-8
        assert REF.total_b <= eq.z_root <= REF.total_a
        assert eq.winner is Winner.A

    @pytest.mark.parametrize("c", [0.05, 0.1, 0.14500645757246994, 0.2])
    def test_root_relative_tolerance_near_unit_root(self, c):
        # the bracket ends at ~6.7e5 but the root is z ~ 1: a width goal
        # scaled by the bracket end left residuals of ~4e-8 here
        params = ElectorateParams(n=672843.5961072427, p=1e-6, p_a=0.999999999)
        eq = solve_partial_saturation(params, c)
        assert eq is not None
        assert eq.residual < 1e-12
        assert eq.z_root < 3.0

    def test_ceiling_endpoint_meets_coin_toss_boundary(self):
        # on ct_lower the root at z = n(1-p_a) is the coin toss at
        # alpha_b = 1, which owns it; just inside, saturation finds it
        c = REF_TS.ct_lower
        want_alpha = (REF.total_b - REF.x_a) / REF.m_a
        assert solve_partial_saturation(REF, c) is None
        eq = solve_coin_toss(REF, c)
        assert eq.z_root == 2.0 * REF.total_b
        assert eq.strategies.alpha_a == pytest.approx(want_alpha, rel=1e-9)
        assert eq.notes == ("coincides with partial_saturation solution",)
        eq = solve_partial_saturation(REF, c * (1.0 - 1e-9))
        assert eq.z_root == pytest.approx(REF.total_b, rel=1e-6)
        assert eq.strategies.alpha_a == pytest.approx(want_alpha, rel=1e-6)


class TestAllSwipe:
    def test_tiny_cost_exists(self):
        assert all_swipe_exists(REF, 1e-12)

    def test_half_cost_absent_for_large_population(self):
        assert not all_swipe_exists(REF, 0.5)

    def test_threshold_matches_saturation_floor(self):
        floor = REF_TS.ps_lower
        assert all_swipe_exists(REF, floor)
        assert not all_swipe_exists(REF, floor * (1.0 + 1e-6) + 1e-11)


class TestEnumerate:
    def kinds(self, params, c):
        return [eq.kind for eq in enumerate_equilibria(params, c)]

    def test_case_two_set(self):
        c = 0.5 * (REF_TS.ct_upper + REF_TS.ct_lower)
        assert self.kinds(REF, c) == [
            EquilibriumKind.COIN_TOSS,
            EquilibriumKind.PARTIAL_ABSENTEEISM,
            EquilibriumKind.NO_QUEUE,
        ]

    def test_case_five_set(self):
        c = 0.5 * REF_TS.ps_lower
        assert self.kinds(REF, c) == [EquilibriumKind.ALL_SWIPE]

    def test_non_coin_toss_equilibria_favor_a(self):
        for c in (0.4, 0.03, 0.01, 1e-4, 1e-7):
            for eq in enumerate_equilibria(REF, c):
                if eq.kind is not EquilibriumKind.COIN_TOSS:
                    assert eq.winner is Winner.A
                    assert expected_margin(REF, eq.strategies) > 0.0

    def test_large_cost_allowed(self):
        # costs at or above 1/2 cannot support a coin toss; enumeration
        # still reports the pure equilibria
        kinds = self.kinds(REF, 0.75)
        assert EquilibriumKind.NO_QUEUE in kinds
        assert EquilibriumKind.COIN_TOSS not in kinds

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(DomainError):
            enumerate_equilibria(REF, 0.0)

    def test_half_cost_on_window_edge_is_a_coin_toss(self):
        # ct_upper is within EPS_CMP of 1/2 here, so cost_side puts c = 1/2
        # on it, and the coin toss owns the edge as it does at c = ct_upper
        params = ElectorateParams(n=0.01, p=2e-12, p_a=0.6)
        ts = thresholds(params)
        assert ts.ct_upper < 0.5 and eqm.cost_side(0.5, ts.log_ct_upper) == 0
        for c in (ts.ct_upper, 0.5):
            eqs = enumerate_equilibria(params, c)
            assert [eq.kind for eq in eqs] == [
                EquilibriumKind.COIN_TOSS,
                EquilibriumKind.NO_QUEUE,
            ]
            toss = eqs[0]
            assert toss.strategies.alpha_a == 0.0
            assert toss.strategies.alpha_b == pytest.approx(1e-12, rel=1e-6)
            assert toss.notes == ("coincides with partial_absenteeism solution",)
        # a cost above the edge has no coin toss
        assert solve_coin_toss(params, 0.6) is None

    def test_saturation_floor_coincides_with_all_swipe(self):
        # at the saturation floor the root sits at alpha_a = 1, which the
        # all-swipe corner owns: one entry, and saturation returns none
        eqs = enumerate_equilibria(REF, REF_TS.ps_lower)
        swipe_like = [
            eq
            for eq in eqs
            if eq.strategies.alpha_a == 1.0 and eq.strategies.alpha_b == 1.0
        ]
        assert len(swipe_like) == 1
        assert swipe_like[0].kind is EquilibriumKind.ALL_SWIPE
        assert (swipe_like[0].z_root, swipe_like[0].residual) == (None, 0.0)
        assert solve_partial_saturation(REF, REF_TS.ps_lower) is None

    def test_deterministic_order(self):
        c = 0.5 * (REF_TS.ct_upper + REF_TS.ct_lower)
        a = enumerate_equilibria(REF, c)
        b = enumerate_equilibria(REF, c)
        assert a == b

    def test_corner_border_inequalities(self):
        for c in (0.4, 0.01, 2e-7):
            for eq in enumerate_equilibria(REF, c):
                r1 = r1_closed(REF, eq.strategies)
                r2 = r2_closed(REF, eq.strategies)
                if eq.kind is EquilibriumKind.NO_QUEUE:
                    assert max(r1, r2) <= c + 1e-8
                elif eq.kind is EquilibriumKind.ALL_SWIPE:
                    assert min(r1, r2) >= c - 1e-8


class TestCostSide:
    def test_on_below_and_above(self):
        f = REF_TS.ct_upper
        log_f = REF_TS.log_ct_upper
        assert eqm.cost_side(f, log_f) == 0
        for rel in (0.5e-12, -0.5e-12):
            assert eqm.cost_side(f * (1.0 + rel), log_f) == 0
        assert eqm.cost_side(f * (1.0 + 2e-12), log_f) == 1
        assert eqm.cost_side(f * (1.0 - 2e-12), log_f) == -1

    def test_underflowed_frontier(self):
        # pa_lower is 0.0 in linear space at n = 1e7; its log is finite
        ts = thresholds(ElectorateParams(n=1e7, p=0.2, p_a=0.6))
        assert ts.pa_lower == 0.0
        assert eqm.cost_side(1e-300, ts.log_pa_lower) == 1
        # a kernel value that underflowed has log -inf: every cost is above
        assert eqm.cost_side(1e-300, -math.inf) == 1

    @pytest.mark.parametrize("c", [math.nan, 0.0, -0.1, -math.inf])
    def test_rejects_cost_not_positive(self, c):
        with pytest.raises(DomainError, match="cost must be > 0"):
            eqm.cost_side(c, REF_TS.log_ct_upper)

    def test_rejects_infinite_cost(self):
        # math.log(c) is inf, which would sit above every frontier
        with pytest.raises(DomainError, match=r"^cost must be finite, got inf$"):
            eqm.cost_side(math.inf, 0.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize(
        "fn",
        [
            solve_coin_toss,
            solve_partial_absenteeism,
            no_queue_exists,
            solve_partial_saturation,
            all_swipe_exists,
            classify,
            enumerate_equilibria,
            recommend_cost,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_every_entry_rejects_cost_not_positive(self, fn, c):
        # the one check in cost_side gives each entry point the same message
        with pytest.raises(DomainError, match="cost must be > 0"):
            fn(REF, c)

    @pytest.mark.parametrize(
        "c",
        ["0.1", 1j, None, np.array([0.1, 0.2]), np.array("x")],
        ids=["str", "complex", "None", "array", "str array"],
    )
    def test_rejects_cost_not_real(self, c):
        # a value that does not compare as one real gets the message of a
        # cost that is not > 0, from cost_side and every entry through it
        message = f"cost must be > 0, got {c!r}"
        with pytest.raises(DomainError) as err:
            eqm.cost_side(c, REF_TS.log_ct_upper)
        assert str(err.value) == message
        for fn in (solve_coin_toss, enumerate_equilibria, classify, recommend_cost):
            with pytest.raises(DomainError) as err:
                fn(REF, c)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "params",
        [
            REF,
            ElectorateParams(n=0.01, p=2e-12, p_a=0.6),
            ElectorateParams(n=672843.5961072427, p=1e-6, p_a=0.999999999),
        ],
        ids=["reference", "window edge at one half", "case 0"],
    )
    def test_coin_toss_solver_agrees_with_enumeration(self, params):
        # cost_side alone decides each family: on and between the frontiers
        # (and the two strategy bounds of case 0), at 1/2 and above, every
        # public solver and corner test agrees with the list; a frontier
        # that underflowed to 0.0 is no cost
        ts = thresholds(params)
        frontiers = [ts.ct_upper, ts.ct_lower, ts.pa_lower, ts.ps_lower]
        if not ts.ct_admissible:
            frontiers += [h(params.x_a, params.total_b), h(params.total_b, params.x_a)]
        costs = frontiers + [math.sqrt(a * b) for a, b in zip(frontiers, frontiers[1:])]
        solvers = {
            EquilibriumKind.COIN_TOSS: solve_coin_toss,
            EquilibriumKind.PARTIAL_ABSENTEEISM: solve_partial_absenteeism,
            EquilibriumKind.NO_QUEUE: no_queue_exists,
            EquilibriumKind.PARTIAL_SATURATION: solve_partial_saturation,
            EquilibriumKind.ALL_SWIPE: all_swipe_exists,
        }
        found = 0
        for c in [c for c in costs if c > 0.0] + [0.5, 0.75]:
            eqs = enumerate_equilibria(params, c)
            for kind, solver in solvers.items():
                listed = [eq for eq in eqs if eq.kind is kind]
                answer = solver(params, c)
                if isinstance(answer, bool):  # a corner: listed iff it exists
                    listed, answer = len(listed), int(answer)
                elif not isinstance(answer, list):
                    answer = [] if answer is None else [answer]
                assert listed == answer, (kind, c)
            found += any(eq.kind is EquilibriumKind.COIN_TOSS for eq in eqs)
        assert found >= 2 or not ts.ct_admissible  # at least the two window edges
        on_edge = eqm.cost_side(0.5, ts.log_ct_upper) == 0 and ts.ct_admissible
        assert (solve_coin_toss(params, 0.5) is not None) == on_edge

    def test_slack_read_when_called(self, monkeypatch):
        f, log_f = REF_TS.ct_upper, REF_TS.log_ct_upper
        monkeypatch.setattr(eqm, "EPS_CMP", 1e-6)
        assert eqm.cost_side(f * (1.0 + 1e-7), log_f) == 0
        assert eqm.cost_side(f * (1.0 + 1e-5), log_f) == 1


def _jump(at):
    # no slope: every step is NaN, so the solver bisects
    return lambda t: (-1.0 if t < at else 1.0, math.nan)


def _newton(f, slope):
    # the (value, step) pairs of f, with the step -f/f' that _roots forms
    def fn(t):
        value, df = f(t), slope(t)
        return value, (-value / df if df else math.inf)

    return fn


def _counting(fn, log):
    def wrapper(t):
        log.append(t)
        return fn(t)

    return wrapper


class TestRtsafe:
    def test_zero_endpoint_returned_as_is(self):
        def never(t):
            raise AssertionError("evaluated inside the bracket")

        assert _rtsafe(never, 1.0, 2.0, 0.0, 5.0, 1.5, "t") == 1.0
        assert _rtsafe(never, 1.0, 2.0, -5.0, 0.0, 1.5, "t") == 2.0

    def test_same_sign_endpoints_raise(self):
        with pytest.raises(ConvergenceError, match="do not bracket"):
            _rtsafe(lambda t: (t, -t), 1.0, 2.0, 1.0, 2.0, 1.5, "t")
        with pytest.raises(ConvergenceError, match="do not bracket"):
            _rtsafe(lambda t: (-t, -t), 1.0, 2.0, -1e-300, -2e-300, 1.5, "t")

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    @pytest.mark.parametrize(
        "ramp, root",
        [
            (lambda t: (max(0.0, t - 0.9), float(t > 0.9)), 0.95),
            (lambda t: (max(0.0, 0.1 - t), -float(t < 0.1)), 0.05),
        ],
    )
    def test_flat_residual(self, scale, ramp, root):
        # -c exactly on most of the bracket, as h - c is where h underflows;
        # the slope is 0.0 there, so the Newton step is infinite
        fn = _newton(
            lambda t: scale * (10.0 * ramp(t)[0] - 0.5), lambda t: 10.0 * scale * ramp(t)[1]
        )
        z = _rtsafe(fn, 0.0, 1.0, fn(0.0)[0], fn(1.0)[0], 0.5, "flat")
        assert abs(z - root) <= eqm.Z_REL_TOL

    def test_flat_saturation_residual_at_large_population(self):
        # n = 1e7 in regime 4: h(total_b, .) falls from ~1e-200 to 0.0 over
        # the bracket, so the linear residual is -c over most of it
        params = ElectorateParams(n=1e7, p=0.2, p_a=0.51)
        c = 1e-200
        assert classify(params, c).case_index == 4
        eq = solve_partial_saturation(params, c)
        assert eq is not None
        assert eq.residual <= 1e-8 * c
        k, z_hi = params.total_b, params.total_a

        def fn(t):
            return h(k, t) - c, math.nan

        want = bisect(fn, k, z_hi, fn(k)[0], fn(z_hi)[0], k, "saturation")
        assert abs(eq.z_root - want) <= 2.0 * eqm.Z_REL_TOL * z_hi

    def test_jump_discontinuity(self):
        z = _rtsafe(_jump(0.3), 0.0, 1.0, -1.0, 1.0, 0.5, "jump")
        assert abs(z - 0.3) <= eqm.Z_REL_TOL

    def test_tolerance_below_machine_epsilon(self, monkeypatch):
        monkeypatch.setattr(eqm, "Z_REL_TOL", 1e-30)
        cube = _newton(lambda t: t**3 - 2.0, lambda t: 3.0 * t * t)
        z = _rtsafe(cube, 0.0, 2.0, -2.0, 6.0, 1.0, "cube root")
        assert abs(z - 2.0 ** (1.0 / 3.0)) <= 4.0 * math.ulp(z)
        z = _rtsafe(_jump(0.3), 0.0, 1.0, -1.0, 1.0, 0.5, "jump")
        assert abs(z - 0.3) <= 2.0 * math.ulp(0.3)

    def test_small_iteration_budget_raises(self, monkeypatch):
        # locating a jump to 1e-12 in [0, 1e30] takes ~140 halvings
        fn = _jump(0.3)
        assert abs(_rtsafe(fn, 0.0, 1e30, -1.0, 1.0, 5e29, "jump") - 0.3) <= 1e-12
        monkeypatch.setattr(eqm, "MAX_ITER", 50)
        with pytest.raises(ConvergenceError, match="after 50 iterations"):
            _rtsafe(fn, 0.0, 1e30, -1.0, 1.0, 5e29, "jump")

    def test_newton_converges_in_few_evaluations(self):
        seen = []
        cube = _counting(_newton(lambda t: t**3 - 2.0, lambda t: 3.0 * t * t), seen)
        z = _rtsafe(cube, 0.0, 2.0, -2.0, 6.0, 1.25, "cube root")
        assert abs(z - 2.0 ** (1.0 / 3.0)) <= eqm.Z_REL_TOL
        assert len(seen) <= 6

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 5.0, -5.0])
    def test_unusable_step_bisects(self, bad):
        # a step that is not finite or leaves [0, 2] from 0.5 is replaced
        # by the midpoint of the bracket left after the first evaluation
        seen = []
        fn = _counting(lambda t: (t - 1.7, bad), seen)
        z = _rtsafe(fn, 0.0, 2.0, -1.7, 0.3, 0.5, "bad step")
        assert seen[:3] == [0.5, 1.25, 1.625]
        assert abs(z - 1.7) <= eqm.Z_REL_TOL * 1.7

    def test_slow_newton_steps_bisect(self):
        # steps a thousandth of the distance to the root shrink by 0.1% a
        # time, not by half in two steps: the solver bisects instead of
        # crawling through the ~3e4 steps they would take
        def crawl(t):
            return t - 1.7, 1e-3 * (1.7 - t)

        z = _rtsafe(crawl, 0.0, 2.0, -1.7, 0.3, 0.5, "slow")
        assert abs(z - 1.7) <= eqm.Z_REL_TOL * 1.7

    def test_sub_ulp_step_closes_the_bracket(self):
        # the step is far below one ulp of z: taken as it is, z + step == z
        # and the solver would bisect from [0, z]; lengthened to delta, it
        # crosses the root and closes the bracket
        root = 1.0 + 2.0**-45
        start = root + 0.25 * eqm.Z_REL_TOL
        seen = []
        fn = _counting(lambda t: (t - root, math.copysign(1e-30, root - t)), seen)
        z = _rtsafe(fn, 0.0, 2.0, -root, 2.0 - root, start, "sub-ulp")
        assert abs(z - root) <= 2.0 * eqm.Z_REL_TOL
        assert len(seen) == 2

    def test_best_end_returned(self):
        # Newton lands within an ulp of sqrt(2); the evaluation that closes
        # the bracket lies delta past it, where |f| is 1e4 times larger
        seen = []
        square = _counting(_newton(lambda t: t * t - 2.0, lambda t: 2.0 * t), seen)
        z = _rtsafe(square, 1.0, 2.0, -1.0, 2.0, 1.5, "square root")
        assert z != seen[-1]
        assert abs(z - math.sqrt(2.0)) <= 2.0 * math.ulp(z)


def _regime_costs(params, rng):
    """One cost inside each regime whose interval holds doubles above 1e-300.

    Regime 1 runs up to 0.49 and regime 5 six decades below ps_lower.  An
    electorate without ordered frontiers gets one log-uniform cost.
    """
    ts = thresholds(params)
    logs = [ts.log_ct_upper, ts.log_ct_lower, ts.log_pa_lower, ts.log_ps_lower]
    ordered = logs[0] > logs[1] > logs[2] > logs[3]
    if not (ts.ct_admissible and params.x_a > math.sqrt(2.0) and ordered):
        return [math.exp(rng.uniform(math.log(1e-12), math.log(0.49)))]
    edges = [math.log(0.49), *logs, logs[3] - math.log(1e6)]
    costs = []
    for top, bottom in zip(edges, edges[1:]):
        bottom = max(bottom, math.log(1e-300))
        if bottom < top:
            costs.append(math.exp(bottom + rng.uniform(0.1, 0.9) * (top - bottom)))
    return costs


def _oracle_grid():
    rng = np.random.default_rng(4)
    grid = []
    for _ in range(240):
        n = 10.0 ** rng.uniform(-2.0, 7.0)
        p = rng.uniform(0.01, 0.5)
        # half the shares spread over (0.51, 0.99), half up to 1 - 1e-9
        if rng.random() < 0.5:
            p_a = rng.uniform(0.51, 0.99)
        else:
            p_a = 1.0 - 10.0 ** rng.uniform(-9.0, -2.0)
        params = ElectorateParams(n=n, p=p, p_a=p_a)
        grid.extend((params, c) for c in _regime_costs(params, rng))
    return grid


def _classify_with(finder, grid):
    """Classify the grid with ``finder`` as the solvers' root finder.

    Returns the reports, each root-finder call as (label, lo, hi, root),
    and the number of kernel calls the solvers made: g, h and their
    value-and-slope forms, and the peak probe _i_sign_core.
    """
    calls = []
    roots = []

    def counted(kernel):
        def wrapper(*args):
            calls.append(None)
            return kernel(*args)

        return wrapper

    def recorded(fn, lo, hi, f_lo, f_hi, start, label):
        z = finder(fn, lo, hi, f_lo, f_hi, start, label)
        roots.append((label, lo, hi, z))
        return z

    with pytest.MonkeyPatch.context() as mp:
        for name in ("g", "h", "_log_g_slope", "_log_h_slope", "_i_sign_core"):
            mp.setattr(eqm, name, counted(getattr(eqm, name)))
        mp.setattr(eqm, "_rtsafe", recorded)
        reports = [classify(params, c) for params, c in grid]
    return reports, roots, len(calls)


@pytest.fixture(scope="module")
def against_bisection():
    grid = _oracle_grid()
    return _classify_with(bisect, grid), _classify_with(_rtsafe, grid)


class TestAgainstBisection:
    """The Newton solver against the reference bisection on a seeded grid of every regime."""

    def test_grid_reaches_every_family_and_case(self, against_bisection):
        (reports, _, _), _ = against_bisection
        kinds = {eq.kind for r in reports for eq in r.equilibria}
        assert kinds == set(EquilibriumKind)
        assert {r.case_index for r in reports} == {0, 1, 2, 3, 4, 5}

    def test_same_cases_kinds_and_notes(self, against_bisection):
        (ref, _, _), (new, _, _) = against_bisection
        for a, b in zip(ref, new, strict=True):
            assert b.case_index == a.case_index
            assert b.notes == a.notes
            assert [eq.kind for eq in b.equilibria] == [eq.kind for eq in a.equilibria]
            assert [eq.notes for eq in b.equilibria] == [eq.notes for eq in a.equilibria]
            assert [eq.winner for eq in b.equilibria] == [
                eq.winner for eq in a.equilibria
            ]

    def test_roots_agree(self, against_bisection):
        (_, ref, _), (_, new, _) = against_bisection
        assert [r[0] for r in new] == [r[0] for r in ref]
        for (_, lo, hi, want), (_, _, _, got) in zip(ref, new):
            assert abs(got - want) <= 2.0 * eqm.Z_REL_TOL * max(1.0, abs(lo), abs(hi))

    def test_residuals_no_worse(self, against_bisection):
        (ref, _, _), (new, _, _) = against_bisection
        for a, b in zip(ref, new):
            for eq_a, eq_b in zip(a.equilibria, b.equilibria):
                assert eq_b.residual <= max(eq_a.residual, 1e-12)

    def test_kernel_calls_per_root(self, against_bisection):
        (_, ref_roots, ref_calls), (_, roots, calls) = against_bisection
        assert ref_calls / len(ref_roots) >= 35.0  # bisection: ~40 per root
        assert calls / len(roots) <= 6.0  # safeguarded Newton: 5.6 per root


def _costs_on_and_between_frontiers(params):
    ts = thresholds(params)
    frontiers = [ts.ct_upper, ts.ct_lower, ts.pa_lower, ts.ps_lower]
    costs = _regime_costs(params, np.random.default_rng(5))
    return costs + [f for f in frontiers if f > 0.0]


FRONTIER_PARAMS = [
    REF,
    ElectorateParams(n=30.0, p=0.3, p_a=0.7),
    ElectorateParams(n=1e6, p=0.2, p_a=0.6),
    ElectorateParams(n=1e7, p=0.2, p_a=0.51),
    ElectorateParams(n=672843.5961072427, p=1e-6, p_a=0.999999999),
]


class TestSharedFrontiers:
    @pytest.mark.parametrize("params", FRONTIER_PARAMS)
    def test_classify_never_recomputes_a_frontier(self, params, monkeypatch):
        g_args, h_args = [], []

        def recording(kernel, log):
            def wrapper(*args):
                log.append(args)
                return kernel(*args)

            return wrapper

        # every kernel value the solvers read goes through these two;
        # _rtsafe evaluates strictly inside a bracket, so a frontier
        # argument here would be a frontier evaluated again
        monkeypatch.setattr(eqm, "_log_g_slope", recording(eqm._log_g_slope, g_args))
        monkeypatch.setattr(eqm, "_log_h_slope", recording(eqm._log_h_slope, h_args))
        x_a, x_b = params.x_a, params.x_b
        total_a, total_b = params.total_a, params.total_b
        for c in _costs_on_and_between_frontiers(params):
            first = len(h_args)
            classify(params, c)
            # case 0 reads each strategy bound once, for both its interval
            # end and the minority-swipe corner
            for bound in ((x_a, total_b), (total_b, x_a)):
                assert h_args[first:].count(bound) <= 1, (c, bound)
        assert h_args  # the wrappers are in use
        assert not {(2.0 * x_a,), (2.0 * total_b,)} & set(g_args)
        frontier_args = {(x_a, x_b), (x_a, x_a), (total_b, total_b), (total_b, total_a)}
        assert not frontier_args & set(h_args)

    def test_classify_computes_frontiers_once(self, monkeypatch):
        import votecost.pivot

        calls = []
        log_frontiers = votecost.pivot.log_frontiers

        def counted(*args):
            calls.append(args)
            return log_frontiers(*args)

        monkeypatch.setattr(votecost.pivot, "log_frontiers", counted)
        params = ElectorateParams(n=REF.n, p=REF.p, p_a=REF.p_a)
        c = 0.5 * (REF_TS.ct_upper + REF_TS.ct_lower)
        classify(params, c)
        recommend_cost(params, c)
        coin_toss_interval(params)
        for solver in (
            solve_coin_toss,
            solve_partial_absenteeism,
            no_queue_exists,
            solve_partial_saturation,
            all_swipe_exists,
            enumerate_equilibria,
        ):
            solver(params, c)
        assert calls == [(params.n, params.p, params.p_a)]
