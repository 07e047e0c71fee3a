"""Regime classification, the coin-toss window, and threshold sweeps."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fns import prediction_fits
from residuals import RESIDUAL_BOUND, relative_residual
from support_scan import scan
import votecost.equilibria as eqm
import votecost.regime as regime
from votecost.equilibria import (
    Equilibrium,
    EquilibriumKind,
    Winner,
    cost_side,
    enumerate_equilibria,
    solve_partial_absenteeism,
)
from votecost.errors import DomainError
from votecost.pivot import ElectorateParams, StrategyPair, log_frontiers, thresholds
from votecost.regime import (
    SweepSpec,
    THRESHOLD_NAMES,
    _decrease_onsets,
    classify,
    coin_toss_interval,
    recommend_cost,
    sweep_bounds,
)

REF = ElectorateParams(n=500, p=0.2, p_a=0.6)
REF_TS = thresholds(REF)


def reference_onset(col):
    """The decrease onset of one sweep column, step by step."""
    positive = np.nonzero(col > 0.0)[0]
    end = min(len(col), int(positive[-1]) + 2) if len(positive) else 1
    onset = 0
    for i in range(end - 1):
        if col[i + 1] >= col[i]:
            onset = i + 1
    return onset


@st.composite
def sweep_specs(draw):
    """Shares, a strictly increasing grid of 1-300 points on [1e-2, 1e9], quantities."""
    if draw(st.booleans()):  # scattered points
        points = [10.0**e for e in draw(st.lists(st.floats(-2.0, 9.0), min_size=1, max_size=300))]
    else:  # an even log grid, as the CLI makes
        lo, hi = sorted(draw(st.lists(st.floats(-2.0, 9.0), min_size=2, max_size=2)))
        points = np.geomspace(10.0**lo, 10.0**hi, draw(st.integers(1, 300))).tolist()
    grid = tuple(sorted(set(points)))
    quantities = draw(
        st.lists(st.sampled_from(THRESHOLD_NAMES), min_size=1, max_size=4, unique=True)
    )
    p = draw(st.floats(1e-6, 1.0 - 1e-6))
    p_a = draw(st.floats(0.5 + 1e-6, 1.0 - 1e-6))
    return SweepSpec(p=p, p_a=p_a, n_grid=grid, quantities=tuple(quantities))


def case_costs(ts):
    return {
        1: ts.ct_upper * 1.5,
        2: 0.5 * (ts.ct_upper + ts.ct_lower),
        3: 0.5 * (ts.ct_lower + ts.pa_lower),
        4: 0.5 * (ts.pa_lower + ts.ps_lower),
        5: 0.5 * ts.ps_lower,
    }


class TestClassify:
    def test_five_cases(self):
        for want, c in case_costs(REF_TS).items():
            report = classify(REF, c)
            assert report.case_index == want
            assert report.avoid == (want == 2)
            assert not any("predicts" in note for note in report.notes)

    def test_case_one_contents(self):
        report = classify(REF, REF_TS.ct_upper * 1.5)
        kinds = {eq.kind for eq in report.equilibria}
        assert EquilibriumKind.NO_QUEUE in kinds
        assert kinds <= {EquilibriumKind.NO_QUEUE, EquilibriumKind.PARTIAL_ABSENTEEISM}

    def test_case_five_contents(self):
        report = classify(REF, 0.5 * REF_TS.ps_lower)
        assert [eq.kind for eq in report.equilibria] == [EquilibriumKind.ALL_SWIPE]

    def test_avoid_tracks_coin_toss(self):
        for c in case_costs(REF_TS).values():
            report = classify(REF, c)
            has_ct = any(eq.kind is EquilibriumKind.COIN_TOSS for eq in report.equilibria)
            assert report.avoid == has_ct

    def test_inadmissible_parameters_fall_back(self):
        params = ElectorateParams(n=500, p=0.9, p_a=0.9)
        report = classify(params, 0.01)
        assert report.case_index == 0
        assert not report.thresholds.ct_admissible
        assert any("pre-asymptotic" in note for note in report.notes)

    def test_unordered_small_population_falls_back(self):
        # frontiers are not yet ordered here (exponential floor still high)
        params = ElectorateParams(n=100, p=0.05, p_a=0.52)
        ts = thresholds(params)
        assert not (ts.ct_upper > ts.ct_lower > ts.pa_lower > ts.ps_lower)
        report = classify(params, 0.05)
        assert report.case_index == 0

    def test_random_draw_consistency(self):
        rng = np.random.default_rng(123)
        cases_seen = set()
        for _ in range(200):
            params = ElectorateParams(
                n=float(np.exp(rng.uniform(np.log(2000), np.log(3000)))),
                p=float(rng.uniform(0.05, 0.5)),
                p_a=float(rng.uniform(0.52, 0.9)),
            )
            ts = thresholds(params)
            lo = max(ts.ps_lower * 0.3, 1e-12)
            c = float(np.exp(rng.uniform(np.log(lo), np.log(0.49))))
            report = classify(params, c)
            cases_seen.add(report.case_index)
            assert not any("predicts" in note for note in report.notes)
        assert {1, 2, 3}.issubset(cases_seen)

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(DomainError):
            classify(REF, 0.0)


class TestPredictions:
    """The regime table that ``classify`` checks the solvers' lists against."""

    def test_ten_tables_built_at_import(self):
        keys = [(k, on) for k in range(1, 6) for on in (False, True)]
        assert sorted(regime._PREDICTIONS) == sorted(keys)
        assert regime._PREDICTIONS[2, False] == {
            EquilibriumKind.COIN_TOSS: (1, 1),
            EquilibriumKind.PARTIAL_ABSENTEEISM: (1, 1),
            EquilibriumKind.NO_QUEUE: (1, 1),
        }

    def test_on_pa_lower_drops_case_three_absenteeism(self):
        K = EquilibriumKind
        assert regime._PREDICTIONS[3, False][K.PARTIAL_ABSENTEEISM] == (1, 1)
        assert regime._PREDICTIONS[3, True][K.PARTIAL_ABSENTEEISM] == (0, 0)

    def test_mismatch_message(self):
        K = EquilibriumKind

        def eq(kind):
            return Equilibrium(kind, StrategyPair(1.0, 1.0), None, 0.0, Winner.A)

        # the realized kinds in the order first seen, the promised ones in
        # table order, and a count range where min and max differ
        eqs = (eq(K.ALL_SWIPE), eq(K.NO_QUEUE), eq(K.ALL_SWIPE))
        tables = [(1, False), (2, False)]  # keys of regime._PREDICTIONS
        assert regime._check_prediction(1, tables, eqs) == (
            "case 1 predicts [partial_absenteeismx0-2, no_queuex1] or "
            "[coin_tossx1, partial_absenteeismx1, no_queuex1] "
            "but solvers returned [all_swipex2, no_queuex1]"
        )
        assert regime._check_prediction(5, [(5, False)], ()) == (
            "case 5 predicts [all_swipex1] but solvers returned [none]"
        )
        assert regime._check_prediction(1, tables, (eq(K.NO_QUEUE),)) is None

    def test_lookup_matches_the_range_check(self):
        # every list of 0-2 of each kind in EquilibriumKind order (the
        # solvers' order) against each table, by lookup and by ranges
        pair = StrategyPair(1.0, 1.0)
        eq = {k: Equilibrium(k, pair, None, 0.0, Winner.A) for k in EquilibriumKind}
        lists = [()]
        for kind in EquilibriumKind:
            lists = [kinds + (kind,) * m for kinds in lists for m in range(3)]
        assert len(lists) == 3 ** len(EquilibriumKind)
        for key, table in regime._PREDICTIONS.items():
            fits = [kinds for kinds in lists if prediction_fits(table, kinds)]
            assert fits and regime._ACCEPTED[key] == set(fits)
            for kinds in lists:
                note = regime._check_prediction(key[0], [key], tuple(eq[k] for k in kinds))
                assert (note is None) == (kinds in fits)


def _mismatch(report):
    return any(" but solvers returned " in note for note in report.notes)


class TestFrontierRegression:
    """Costs on a frontier, or just off one, classify consistently."""

    @pytest.mark.parametrize(
        "name, case",
        [("ct_upper", 2), ("ct_lower", 2), ("pa_lower", 3), ("ps_lower", 4)],
    )
    def test_reference_electorate_on_each_frontier(self, name, case):
        report = classify(REF, getattr(REF_TS, name))
        assert report.case_index == case
        assert report.avoid == (case == 2)
        assert not _mismatch(report)
        assert any(f"on the {name} frontier" in note for note in report.notes)

    @pytest.mark.parametrize(
        "name, kinds, coincides",
        [
            ("ct_upper", ["coin_toss", "partial_absenteeism", "no_queue"], "partial_absenteeism"),
            ("ct_lower", ["coin_toss", "partial_absenteeism", "no_queue"], "partial_saturation"),
            ("pa_lower", ["no_queue", "partial_saturation"], None),
            ("ps_lower", ["all_swipe"], None),
        ],
    )
    def test_each_strategy_pair_reported_once(self, name, kinds, coincides):
        # a pair two families share on the frontier is listed once, by its
        # owner; the coin toss notes the family it meets
        eqs = enumerate_equilibria(REF, getattr(REF_TS, name))
        assert [eq.kind.value for eq in eqs] == kinds
        pairs = [(eq.strategies.alpha_a, eq.strategies.alpha_b) for eq in eqs]
        for i, a in enumerate(pairs):
            for b in pairs[i + 1 :]:
                assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1e-6, (a, b)
        noted = [n for eq in eqs for n in eq.notes if n.startswith("coincides with")]
        assert noted == ([] if coincides is None else [f"coincides with {coincides} solution"])

    @pytest.mark.parametrize("name", ["ct_upper", "ps_lower", "window"])
    def test_mismatch_unless_one_case_fits(self, name, monkeypatch):
        # lists that only a mix of the two adjacent cases allows: the coin
        # toss beside two absenteeism roots, or nothing at all.  Inside
        # the window an empty list is noted too, and avoid still follows
        # from the cost, not from the list
        c = case_costs(REF_TS)[2] if name == "window" else getattr(REF_TS, name)
        eqs = {
            "ct_upper": enumerate_equilibria(REF, c) + solve_partial_absenteeism(REF, c)[-1:],
            "ps_lower": [],
            "window": [],
        }[name]
        monkeypatch.setattr(regime, "_enumerate", lambda *args: eqs)
        report = classify(REF, c)
        assert _mismatch(report)
        assert report.avoid is (name != "ps_lower")

    @pytest.mark.parametrize(
        "n, p, p_a",
        [
            # the absenteeism root has alpha_b = 7.4e-13
            (14933.674366311781, 0.31393409655949434, 0.6574212364786887),
            # the root lies within Z_REL_TOL * z of z = x_b (1.2e-8 above it)
            (971221.5309695947, 0.11537433109490168, 0.5411730581385497),
        ],
    )
    def test_absenteeism_just_above_pa_lower_is_kept(self, n, p, p_a):
        params = ElectorateParams(n=n, p=p, p_a=p_a)
        c = math.exp(thresholds(params).log_pa_lower + 1e-9)
        report = classify(params, c)
        assert report.case_index == 3
        assert [eq.kind for eq in report.equilibria] == [
            EquilibriumKind.PARTIAL_ABSENTEEISM,
            EquilibriumKind.NO_QUEUE,
            EquilibriumKind.PARTIAL_SATURATION,
        ]
        assert not _mismatch(report)

    def test_within_slack_below_ct_upper_is_a_tie(self):
        params = ElectorateParams(
            n=6131872.687381369, p=0.10443941343529836, p_a=0.7899827423699078
        )
        c = math.exp(thresholds(params).log_ct_upper - 1e-13)
        report = classify(params, c)
        assert report.case_index == 2
        assert report.avoid
        assert any(eq.winner is Winner.TIE_IN_EXPECTATION for eq in report.equilibria)
        assert not _mismatch(report)

    def test_case_zero_residuals_stay_small(self):
        # the (0, 1) corner is an equilibrium here, and no returned
        # strategy pair may be a clipped stand-in for it
        params = ElectorateParams(
            n=214230.76409670702, p=2.2772341428207655e-09, p_a=0.9999999997425196
        )
        c = 0.4997561916472948
        report = classify(params, c)
        assert report.case_index == 0
        assert EquilibriumKind.MINORITY_SWIPE in [eq.kind for eq in report.equilibria]
        for eq in report.equilibria:
            assert relative_residual(params, eq, c) <= RESIDUAL_BOUND

    @pytest.mark.parametrize(
        "n, p, p_a, c, others",
        [
            # the corner is the only equilibrium at the first two
            (7.720378020741096, 0.9914664648146816, 0.6319540163784259,
             0.12530346880670365, []),
            (5.914, 0.942, 0.743, 0.0792, []),
            (63.859, 0.307, 0.91, 0.0034, ["partial_absenteeism", "no_queue"]),
        ],
    )
    def test_minority_swipe_corner_is_listed(self, n, p, p_a, c, others):
        # A non-partisans abstain, B non-partisans all vote:
        # r1(0, 1) <= c <= r2(0, 1), possible only where x_a > n (1 - p_a)
        params = ElectorateParams(n=n, p=p, p_a=p_a)
        report = classify(params, c)
        assert report.case_index == 0
        assert not thresholds(params).ct_admissible
        assert [eq.kind.value for eq in report.equilibria] == [*others, "minority_swipe"]
        corner = report.equilibria[-1]
        assert (corner.strategies.alpha_a, corner.strategies.alpha_b) == (0.0, 1.0)
        assert corner.winner is Winner.A
        assert relative_residual(params, corner, c) == 0.0
        scanned = sorted(kind for kind, _, _ in scan(params, c))
        assert scanned == sorted([*others, "minority_swipe"])

    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
    def test_grid_scan_finds_the_listed_kinds(self, case):
        # the independent scan of all nine support types, inside each case
        c = case_costs(REF_TS)[case]
        listed = sorted(eq.kind.value for eq in classify(REF, c).equilibria)
        assert sorted(kind for kind, _, _ in scan(REF, c)) == listed


class TestUnderflowRegression:
    """Beyond n ~ 1e6 pa_lower and ps_lower underflow to 0.0 in linear
    space; classification must still separate the cases by their logs."""

    @pytest.mark.parametrize("n", [1e6, 1e7])
    def test_coin_toss_window_is_case_two(self, n):
        params = ElectorateParams(n=n, p=0.2, p_a=0.6)
        ts = thresholds(params)
        assert ts.pa_lower == 0.0 and ts.ps_lower == 0.0
        report = classify(params, math.sqrt(ts.ct_lower * ts.ct_upper))
        assert report.case_index == 2
        assert report.avoid
        assert not any("predicts" in note for note in report.notes)

    @pytest.mark.parametrize("n", [1e6, 1e7])
    def test_below_coin_toss_floor_is_case_three(self, n):
        params = ElectorateParams(n=n, p=0.2, p_a=0.6)
        ts = thresholds(params)
        c = ts.ct_lower * 1e-6
        assert ts.log_pa_lower < math.log(c) < ts.log_ct_lower
        report = classify(params, c)
        assert report.case_index == 3
        assert not report.avoid
        assert not any("predicts" in note for note in report.notes)

    def test_log_frontiers_strictly_ordered(self):
        ts = thresholds(ElectorateParams(n=1e7, p=0.2, p_a=0.6))
        assert ts.log_ct_upper > ts.log_ct_lower > ts.log_pa_lower > ts.log_ps_lower
        assert ts.log_ps_lower > -1e7

    @pytest.mark.parametrize(
        "n, p, p_a, c",
        [
            # linear h reads 2e-323 at the (0, 1) corner's upper bound, but
            # log h is -743.147 < log c = -743.054: no minority swipe
            (1912.734010748012, 0.7881350525483917, 0.9424227945303161, 2e-323),
            (28686.43919509227, 0.6806715740680964, 0.712327833808324, 4.84e-322),
            (33105.54336892432, 0.6522393282448935, 0.7146333018274015, 1.542e-320),
        ],
    )
    def test_subnormal_strategy_bound_lists_the_scanned_kinds(self, n, p, p_a, c):
        # case 0 at a cost near a subnormal h(x_a, n(1-p_a)) or
        # h(n(1-p_a), x_a): the list is read from log h, not from h
        params = ElectorateParams(n=n, p=p, p_a=p_a)
        assert not thresholds(params).ct_admissible
        listed = sorted(eq.kind.value for eq in classify(params, c).equilibria)
        assert listed == sorted(kind for kind, _, _ in scan(params, c))


class TestOneCostReading:
    """``classify`` and ``recommend_cost`` read the cost in one ``cost_sides`` call."""

    @pytest.fixture
    def costs_read(self, monkeypatch):
        # every cost that votecost.equilibria.cost_sides reads, in order,
        # through whichever package module calls it
        seen = []
        original = eqm.cost_sides

        def counted(c, log_fs):
            seen.append(c)
            return original(c, log_fs)

        for name, module in list(sys.modules.items()):
            if name.startswith("votecost") and getattr(module, "cost_sides", None) is original:
                monkeypatch.setattr(module, "cost_sides", counted)
        return seen

    @pytest.mark.parametrize("case, calls", [(1, 2), (2, 1), (3, 1), (4, 1), (5, 1)])
    def test_classify_reads_once_plus_the_peak(self, case, calls, costs_read):
        # only a cost on or above both absenteeism ends (case 1 here) and
        # below the bound on the peak compares the cost once more, with the
        # h peak; 1.2 ct_upper is below that bound (1.434 ct_upper at REF)
        c = 1.2 * REF_TS.ct_upper if case == 1 else case_costs(REF_TS)[case]
        assert classify(REF, c).case_index == case
        assert costs_read == [c] * calls

    def test_above_the_peak_bound_reads_no_peak(self, costs_read, monkeypatch):
        # 1.5 ct_upper is above the bound on the peak: the one reading
        # decides, with the report the peak search gives
        c = 1.5 * REF_TS.ct_upper
        assert math.log(c) > eqm._log_peak_bound(REF.x_a)
        peaks, find_h_peak = [], eqm.find_h_peak

        def counted(x_a):
            peaks.append(x_a)
            return find_h_peak(x_a)

        monkeypatch.setattr(eqm, "find_h_peak", counted)
        report = classify(REF, c)
        assert report.case_index == 1
        assert costs_read == [c] and peaks == []
        monkeypatch.setattr(eqm, "_log_peak_bound", lambda x_a: math.inf)
        assert classify(REF, c) == report
        assert peaks == [REF.x_a] and costs_read == [c, c, c]

    @pytest.mark.parametrize("case", [2, 3])
    def test_recommend_cost_reads_once_before_stepping(self, case, costs_read):
        c_min = case_costs(REF_TS)[case]
        out = recommend_cost(REF, c_min)
        assert costs_read[0] == c_min
        assert costs_read.count(c_min) == 1
        if case == 3:  # below the window: the one reading is all
            assert out == c_min and len(costs_read) == 1
        else:  # inside it: the stepping loop reads only costs above the window
            assert out > c_min and len(costs_read) > 1


class TestCoinTossInterval:
    def test_absent_when_partisans_outnumber(self):
        assert coin_toss_interval(ElectorateParams(n=100, p=0.9, p_a=0.9)) is None

    def test_matches_thresholds(self):
        interval = coin_toss_interval(REF)
        assert interval == (REF_TS.ct_lower, REF_TS.ct_upper)

    def test_width_shrinks_toward_admissibility_limit(self):
        # fixed p_a, raising p pushes p * p_a toward 1 - p_a: width falls
        widths = []
        for p in (0.3, 0.45, 0.55, 0.65):
            lo, hi = coin_toss_interval(ElectorateParams(n=2000, p=p, p_a=0.6))
            widths.append(hi - lo)
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_low_partisanship_family_is_finite_and_positive(self):
        # the wide-window family: small partisan share across many p_a
        for p_a in (0.52, 0.75, 0.90, 0.99):
            for n in np.geomspace(100, 1e5, 7):
                interval = coin_toss_interval(ElectorateParams(n=float(n), p=0.01, p_a=p_a))
                assert interval is not None
                lo, hi = interval
                assert 0.0 < lo < hi <= 0.5


class TestRecommendCost:
    def test_no_window_returns_minimum(self):
        params = ElectorateParams(n=100, p=0.9, p_a=0.9)
        assert recommend_cost(params, 0.01) == 0.01

    def test_below_window_unchanged(self):
        c_min = REF_TS.ct_lower * 0.5
        assert recommend_cost(REF, c_min) == c_min

    def test_above_window_unchanged(self):
        c_min = REF_TS.ct_upper * 2.0
        assert recommend_cost(REF, c_min) == c_min

    def test_inside_window_bumped_to_ceiling(self):
        c_min = 0.5 * (REF_TS.ct_lower + REF_TS.ct_upper)
        out = recommend_cost(REF, c_min)
        assert out == pytest.approx(REF_TS.ct_upper, abs=1e-11)
        assert out >= REF_TS.ct_upper
        lo, hi = coin_toss_interval(REF)
        assert not (lo < out < hi)

    @pytest.mark.parametrize("edge", ["ct_lower", "ct_upper"])
    def test_window_edge_lifted_above_window(self, edge):
        # the window is closed: a cost on either edge admits a tie
        out = recommend_cost(REF, getattr(REF_TS, edge))
        assert cost_side(out, REF_TS.log_ct_upper) == 1
        report = classify(REF, out)
        assert report.case_index == 1
        assert not report.avoid

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            recommend_cost(REF, 0.0)

    def test_rejects_infinite(self):
        # an infinite cost is not a recommendation, nor a report
        for fn in (recommend_cost, classify):
            with pytest.raises(DomainError, match="cost must be finite"):
                fn(REF, math.inf)

    @pytest.mark.parametrize("c", [10**400, 2**1024], ids=["10**400", "2**1024"])
    @pytest.mark.parametrize("fn", [classify, enumerate_equilibria, recommend_cost])
    def test_rejects_an_int_that_no_double_holds(self, fn, c):
        # math.log takes an int of any size: log(10**400) is finite, yet
        # no double holds the cost
        with pytest.raises(DomainError) as err:
            fn(REF, c)
        assert str(err.value) == f"cost must be finite, got {c!r}"

    @pytest.mark.parametrize("c", [10**300, sys.float_info.max], ids=["10**300", "float_max"])
    def test_accepts_the_largest_costs(self, c):
        # the largest double's log is the bound of the finiteness check
        assert classify(REF, c).case_index == classify(REF, 1e300).case_index
        assert enumerate_equilibria(REF, c) == enumerate_equilibria(REF, 1e300)
        assert recommend_cost(REF, c) == c


class TestSweep:
    def test_sweep_spec_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(p=0.2, p_a=0.6, n_grid=())
        with pytest.raises(DomainError):
            SweepSpec(p=0.2, p_a=0.6, n_grid=(10.0, 10.0))
        with pytest.raises(DomainError):
            SweepSpec(p=0.2, p_a=0.6, n_grid=(10.0, 20.0), quantities=("bogus",))
        with pytest.raises(DomainError, match="^quantities must be nonempty$"):
            SweepSpec(p=0.2, p_a=0.6, n_grid=(10.0, 20.0), quantities=())
        with pytest.raises(DomainError):
            SweepSpec(p=1.2, p_a=0.6, n_grid=(10.0, 20.0))
        for bad in ((10.0, math.nan, 30.0), (10.0, math.inf), (-1.0, 10.0)):
            with pytest.raises(DomainError):
                SweepSpec(p=0.2, p_a=0.6, n_grid=bad)

    @pytest.mark.parametrize(
        "quantities, repeated",
        [
            (("ct_upper", "ct_upper"), "['ct_upper']"),
            (
                ("pa_lower", "ct_lower", "pa_lower", "ct_lower", "ps_lower"),
                "['ct_lower', 'pa_lower']",
            ),
        ],
    )
    def test_repeated_quantity_is_rejected(self, quantities, repeated):
        # a repeated name would print its CSV column twice but one JSON column
        message = f"^repeated sweep quantities: {re.escape(repeated)}$"
        with pytest.raises(DomainError, match=message):
            SweepSpec(p=0.2, p_a=0.6, n_grid=(10.0, 20.0), quantities=quantities)

    # (p, p_a, n grid): thresholds computes on Python floats and
    # sweep_bounds through log_frontiers on arrays; the two must agree bit
    # for bit
    PATH_CASES = [
        (p, p_a, (50.0, 800.0, 3e4, 1e6, 1e7))
        for p, p_a in ((0.2, 0.6), (0.02, 0.51), (0.5, 0.9), (0.95, 0.75), (1e-6, 0.999999))
    ] + [
        # far beyond the documented populations, where only the fuzz's
        # ``far`` profile looks otherwise
        (0.2, 0.6, (1e12, 1e100, 1e300)),
        # electorates where squaring with Python's ``d ** 2`` (libm pow)
        # instead of ``d * d`` moved the last bit of a log frontier
        (0.22812187406137427, 0.9635860863804447, (2325996.9843902644,)),
        (0.0018484579871642318, 0.845901439551241, (6611052.4661669275,)),
        (0.9817455775983345, 0.7594227138923049, (345139.87102894555,)),
        (0.949017314973251, 0.643075260550463, (2917.1612850156193,)),
    ]

    def test_columns_match_thresholds(self):
        for p, p_a, grid in self.PATH_CASES:
            table = sweep_bounds(SweepSpec(p=p, p_a=p_a, n_grid=grid))
            logs = log_frontiers(np.array(grid), p, p_a)
            for i, n in enumerate(grid):
                ts = thresholds(ElectorateParams(n=n, p=p, p_a=p_a))
                for name, col in table.columns.items():
                    assert col[i] == getattr(ts, name), (n, p, p_a, name)
                log_fs = [getattr(ts, "log_" + q) for q in THRESHOLD_NAMES]
                assert log_fs == logs[:, i].tolist(), (n, p, p_a)

    def test_decrease_onset_matches_reference_loop(self):
        rng = np.random.default_rng(7)
        cols = [
            np.array([0.5]),
            np.array([0.0]),
            np.zeros(4),
            np.array([3.0, 2.0, 1.0, 0.0, 0.0]),
            np.array([1.0, 2.0, 1.0, 0.0]),
            np.array([1.0, 1.0, 0.5, 0.25]),
            np.array([0.0, 0.0, 1.0, 0.5, 0.0, 0.0]),
            np.array([1e-300, 5e-324, 5e-324, 0.0, 0.0]),
        ] + [np.where(rng.random(12) < 0.3, 0.0, rng.random(12)) for _ in range(200)]
        for col in cols:
            assert _decrease_onsets(col[None, :]) == [reference_onset(col)], col
        # the rows of one block do not see each other
        block = np.stack(cols[-200:])
        assert _decrease_onsets(block) == [reference_onset(col) for col in block]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(sweep_specs())
    def test_sweep_matches_thresholds_and_reference_onsets(self, spec):
        table = sweep_bounds(spec)
        assert list(table.columns) == list(table.onset) == list(spec.quantities)
        for i, n in enumerate(spec.n_grid):
            ts = thresholds(ElectorateParams(n=n, p=spec.p, p_a=spec.p_a))
            for name, col in table.columns.items():
                assert col[i] == getattr(ts, name), (n, spec, name)
        for name, col in table.columns.items():
            assert table.onset[name] == reference_onset(col), (spec, name)

    def test_columns_finite_positive_eventually_decreasing(self):
        grid = tuple(float(x) for x in np.geomspace(100, 1e5, 60))
        for p, p_a in ((0.2, 0.52), (0.2, 0.6), (0.2, 0.75), (0.2, 0.83)):
            table = sweep_bounds(SweepSpec(p=p, p_a=p_a, n_grid=grid))
            for name, col in table.columns.items():
                assert np.all(np.isfinite(col))
                assert np.all(col >= 0.0)
                onset = table.onset[name]
                assert onset < len(grid) - 2
                tail = col[onset:]
                # strictly decreasing while representable (exponentially
                # small frontiers may underflow to 0 at the far end)
                assert np.all(np.diff(tail[tail > 0.0]) < 0.0)
                if np.any(tail == 0.0):
                    first_zero = int(np.argmax(tail == 0.0))
                    assert np.all(tail[first_zero:] == 0.0)

    def test_ct_upper_slope_is_minus_half(self):
        grid = tuple(float(x) for x in np.geomspace(1e3, 1e5, 40))
        table = sweep_bounds(SweepSpec(p=0.2, p_a=0.6, n_grid=grid, quantities=("ct_upper",)))
        slope = np.polyfit(np.log(table.n), np.log(table.columns["ct_upper"]), 1)[0]
        assert abs(slope - (-0.5)) < 0.05

    def test_pa_lower_decay_rate(self):
        grid = tuple(float(x) for x in np.linspace(4000, 20000, 33))
        table = sweep_bounds(SweepSpec(p=0.2, p_a=0.6, n_grid=grid, quantities=("pa_lower",)))
        rate = np.polyfit(table.n, np.log(table.columns["pa_lower"]), 1)[0]
        want = -0.2 * (1.0 - 2.0 * math.sqrt(0.6 * 0.4))
        assert abs(rate - want) / abs(want) < 0.1
