"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.
"""

import math

import numpy as np
from reference_fns import nash_deviation_gain
from series_oracle import bessel_i0, bessel_i1, hyp0f1_1, hyp0f1_2

from votecost.cli import standard_verify_rows
from votecost.equilibria import (
    EquilibriumKind,
    Winner,
    enumerate_equilibria,
    solve_coin_toss,
)
from votecost.oracle import (
    OracleConfig,
    poisson_environment_pivot,
    simulate_election,
)
from votecost.pivot import (
    ElectorateParams,
    expected_margin,
    r1_closed,
    r2_closed,
    thresholds,
    turnout_means,
)
from votecost.regime import SweepSpec, classify, coin_toss_interval, sweep_bounds
from votecost.special_fn import g, h


def report(index: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {index} ({label}): {status}{suffix}")


def central_diff(fn, z, rel_step=3e-6):
    step = z * rel_step
    return (fn(z + step) - fn(z - step)) / (2.0 * step)


def test_criterion_1_oracle_equivalence():
    rows = standard_verify_rows(OracleConfig(tail_eps=1e-13))
    max_err = max(r.abs_error for r in rows)
    ok = max_err < 1e-10
    report(1, "oracle equivalence", ok, f"max |closed - brute| = {max_err:.3e} over {len(rows)} checks")
    assert ok


def test_criterion_2_special_function_identities():
    # the series identities are checked on the raw-series test oracle, the
    # diagonal identity h(x, x) = g(2x) / 2 on the package kernels
    worst_d1 = max(
        abs(central_diff(hyp0f1_1, z) - hyp0f1_2(z)) / hyp0f1_2(z)
        for z in np.geomspace(0.1, 50.0, 25)
    )
    worst_ode = max(
        abs(central_diff(bessel_i0, t) - bessel_i1(t)) / bessel_i1(t)
        for t in np.geomspace(0.1, 30.0, 25)
    )
    worst_diag = max(
        abs(h(x, x) - 0.5 * g(2.0 * x)) / (0.5 * g(2.0 * x))
        for x in (0.5, 1.0, 5.0, 20.0, 200.0)
    )
    ok = worst_d1 < 1e-6 and worst_ode < 1e-6 and worst_diag < 1e-12
    report(
        2,
        "special-function identities",
        ok,
        f"dF1 rel {worst_d1:.2e}, I0' rel {worst_ode:.2e}, diagonal rel {worst_diag:.2e}",
    )
    assert ok


def test_criterion_3_asymptotics():
    worst_g = max(
        abs(g(z) * math.sqrt(math.pi * z / 2.0) - (1.0 - 1.0 / (8.0 * z)))
        for z in (50.0, 100.0, 500.0, 1e4)
    )
    grid = tuple(float(x) for x in np.geomspace(1e3, 1e5, 40))
    table = sweep_bounds(SweepSpec(p=0.2, p_a=0.6, n_grid=grid, quantities=("ct_upper",)))
    slope = float(np.polyfit(np.log(table.n), np.log(table.columns["ct_upper"]), 1)[0])

    grid2 = tuple(float(x) for x in np.linspace(4000, 20000, 33))
    table2 = sweep_bounds(SweepSpec(p=0.2, p_a=0.6, n_grid=grid2, quantities=("pa_lower",)))
    rate = float(np.polyfit(table2.n, np.log(table2.columns["pa_lower"]), 1)[0])
    want_rate = -0.2 * (1.0 - 2.0 * math.sqrt(0.6 * 0.4))

    ok = (
        worst_g < 1e-3
        and abs(slope - (-0.5)) < 0.05
        and abs(rate - want_rate) / abs(want_rate) < 0.1
    )
    report(
        3,
        "asymptotics",
        ok,
        f"two-term defect {worst_g:.2e}, slope {slope:.4f}, decay {rate:.3e} vs {want_rate:.3e}",
    )
    assert ok


def test_criterion_4_coin_toss_solver():
    rng = np.random.default_rng(20240401)
    solved = 0
    violations = []
    while solved < 100:
        params = ElectorateParams(
            n=float(np.exp(rng.uniform(np.log(50), np.log(50000)))),
            p=float(rng.uniform(0.05, 0.5)),
            p_a=float(rng.uniform(0.52, 0.9)),
        )
        ts = thresholds(params)
        if not ts.ct_admissible or ts.ct_upper <= ts.ct_lower:
            continue
        c = float(ts.ct_lower + rng.uniform(0.02, 0.98) * (ts.ct_upper - ts.ct_lower))
        if not (0.0 < c < 0.5):
            continue
        eq = solve_coin_toss(params, c)
        if eq is None:
            violations.append((params, c, "absent inside window"))
            continue
        s = eq.strategies
        u, v = turnout_means(params, s)
        if abs(r1_closed(params, s) - c) >= 1e-8:
            violations.append((params, c, "r1 residual"))
        if abs(r2_closed(params, s) - c) >= 1e-8:
            violations.append((params, c, "r2 residual"))
        if not (0.0 < s.alpha_a < 1.0 and 0.0 < s.alpha_b < 1.0):
            violations.append((params, c, "alpha not interior"))
        if abs(u - v) >= 1e-9 * params.n:
            violations.append((params, c, "turnout mismatch"))
        solved += 1
        # outside the window the solver must return absent
        hi_c = ts.ct_upper * 1.01
        if 0.0 < hi_c < 0.5 and solve_coin_toss(params, hi_c) is not None:
            violations.append((params, hi_c, "present above window"))
        lo_c = ts.ct_lower * 0.99
        if 0.0 < lo_c < 0.5 and solve_coin_toss(params, lo_c) is not None:
            violations.append((params, lo_c, "present below window"))
    ok = not violations
    report(4, "coin-toss solver", ok, f"{solved} admissible draws, {len(violations)} violations")
    assert ok, violations[:5]


def test_criterion_5_regime_consistency():
    rng = np.random.default_rng(20240402)
    mismatch = []
    predicted_cases = 0
    for _ in range(1000):
        params = ElectorateParams(
            n=float(np.exp(rng.uniform(np.log(2000), np.log(20000)))),
            p=float(rng.uniform(0.05, 0.5)),
            p_a=float(rng.uniform(0.52, 0.9)),
        )
        ts = thresholds(params)
        lo = max(ts.ps_lower * 0.3, 1e-15)
        c = float(np.exp(rng.uniform(np.log(lo), np.log(0.49))))
        rep = classify(params, c)
        if any("predicts" in note for note in rep.notes):
            mismatch.append((params, c, rep.notes))
        if rep.case_index >= 1:
            predicted_cases += 1
    # strict frontier ordering at the reference large-N points
    ordering_ok = True
    for n in (2000.0, 5000.0, 1e4):
        ts = thresholds(ElectorateParams(n=n, p=0.2, p_a=0.6))
        if not (ts.ct_upper > ts.ct_lower > ts.pa_lower > ts.ps_lower):
            ordering_ok = False
    ok = not mismatch and ordering_ok and predicted_cases >= 500
    report(
        5,
        "regime consistency",
        ok,
        f"{predicted_cases}/1000 draws in predicted cases, {len(mismatch)} mismatches, "
        f"ordering at reference points: {ordering_ok}",
    )
    assert ok, mismatch[:3]


def test_criterion_6_nash_verification():
    params = ElectorateParams(n=200, p=0.2, p_a=0.6)
    ts = thresholds(params)
    costs = {
        EquilibriumKind.COIN_TOSS: 0.5 * (ts.ct_upper + ts.ct_lower),
        EquilibriumKind.PARTIAL_ABSENTEEISM: 0.5 * (max(ts.pa_lower, ts.ct_lower) + ts.ct_upper),
        EquilibriumKind.NO_QUEUE: 0.4,
        EquilibriumKind.PARTIAL_SATURATION: 0.5 * (ts.ps_lower + min(ts.ct_lower, ts.pa_lower)),
        EquilibriumKind.ALL_SWIPE: 0.5 * ts.ps_lower,
    }
    worst_gain = 0.0
    worst_pull = 0.0
    missing = []
    for kind, c in costs.items():
        matches = [eq for eq in enumerate_equilibria(params, c) if eq.kind is kind]
        if not matches:
            missing.append(kind.value)
            continue
        eq = matches[0]
        for side in ("A", "B"):
            worst_gain = max(worst_gain, nash_deviation_gain(params, eq.strategies, c, side))
            analytic = (r1_closed if side == "A" else r2_closed)(params, eq.strategies)
            est = poisson_environment_pivot(
                params, eq.strategies, side, OracleConfig(trials=1_000_000, seed=97531)
            )
            if est.se > 0.0:
                worst_pull = max(worst_pull, abs(est.value - analytic) / est.se)
    ok = not missing and worst_gain <= 1e-8 and worst_pull < 3.0
    report(
        6,
        "Nash verification",
        ok,
        f"all kinds present: {not missing}, max deviation gain {worst_gain:.2e}, "
        f"max MC pull {worst_pull:.2f} se",
    )
    assert ok, (missing, worst_gain, worst_pull)


def test_criterion_7_majority_principle():
    rng = np.random.default_rng(20240403)
    margin_violations = []
    collected = 0
    for _ in range(300):
        params = ElectorateParams(
            n=float(np.exp(rng.uniform(np.log(50), np.log(20000)))),
            p=float(rng.uniform(0.05, 0.6)),
            p_a=float(rng.uniform(0.52, 0.9)),
        )
        c = float(np.exp(rng.uniform(np.log(1e-9), np.log(0.49))))
        for eq in enumerate_equilibria(params, c):
            collected += 1
            margin = expected_margin(params, eq.strategies)
            if eq.kind is EquilibriumKind.COIN_TOSS:
                if abs(margin) >= 1e-6 * params.n:
                    margin_violations.append((params, c, eq.kind, margin))
            else:
                if not (margin > 0.0 and eq.winner is Winner.A):
                    margin_violations.append((params, c, eq.kind, margin))

    # at a solved coin toss the election is a fair coin for large populations
    params = ElectorateParams(n=1e6, p=0.2, p_a=0.6)
    ts = thresholds(params)
    eq = solve_coin_toss(params, 0.5 * (ts.ct_upper + ts.ct_lower))
    stats = simulate_election(params, eq.strategies, OracleConfig(trials=1_000_000, seed=314159))
    fair = abs(stats.p_a_wins - 0.5) < 3.0 * stats.se_a_wins
    ok = not margin_violations and fair
    report(
        7,
        "majority principle",
        ok,
        f"{collected} equilibria checked, {len(margin_violations)} margin violations, "
        f"coin-toss p_a_wins = {stats.p_a_wins:.4f} +- {stats.se_a_wins:.4f}",
    )
    assert ok, margin_violations[:3]


def test_criterion_8_figure_shapes():
    grid = tuple(float(x) for x in np.geomspace(100, 1e5, 50))
    families = [(0.01, pa) for pa in (0.52, 0.75, 0.90, 0.99)] + [
        (0.2, pa) for pa in (0.52, 0.60, 0.75, 0.83)
    ]
    shape_ok = True
    for p, p_a in families:
        table = sweep_bounds(SweepSpec(p=p, p_a=p_a, n_grid=grid))
        for name, col in table.columns.items():
            onset = table.onset[name]
            tail = col[onset:]
            positive = tail[tail > 0.0]
            if not (
                np.all(np.isfinite(col))
                and np.all(col >= 0.0)
                and onset < len(grid) - 2
                and np.all(np.diff(positive) < 0.0)
            ):
                shape_ok = False

    # beyond the admissibility limit the window must vanish entirely
    vanished = all(
        coin_toss_interval(ElectorateParams(n=n, p=0.9, p_a=0.9)) is None
        for n in (100.0, 1e4, 1e6)
    )

    # approaching the limit p * p_a -> 1 - p_a from below narrows the window
    widths = []
    for p in (0.3, 0.45, 0.55, 0.65):
        lo, hi = coin_toss_interval(ElectorateParams(n=2000, p=p, p_a=0.6))
        widths.append(hi - lo)
    narrowing = all(b < a for a, b in zip(widths, widths[1:]))

    ok = shape_ok and vanished and narrowing
    report(
        8,
        "figure shapes",
        ok,
        f"curves monotone: {shape_ok}, window vanishes: {vanished}, narrows: {narrowing}",
    )
    assert ok
