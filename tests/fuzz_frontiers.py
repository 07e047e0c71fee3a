"""Fuzz ``classify`` at costs on and around the four cost frontiers.

Run from a checkout (not collected by pytest):

    python tests/fuzz_frontiers.py --points 20000 --profile interior --seed 0
    python tests/fuzz_frontiers.py --points 20000 --profile bounds --seed 0
    python tests/fuzz_frontiers.py --points 20000 --profile far --seed 0

Each point draws n and the shares p and p_a from the profile:
``interior`` draws n log-uniform on [1e-2, 1e7], p uniform on
[0.01, 0.99] and p_a on [0.51, 0.99]; ``bounds`` draws n the same way
and puts each share within 1e-12 to 1e-1 of one of its bounds, so that
p_a lies just above 1/2 or just below 1; ``far`` draws the shares as
``interior`` does, from a stream of its own, and n log-uniform on
[1e7, 1e300].  It then picks one of the four frontiers f and a log
offset from {0, +-1e-13, +-1e-9}, and classifies the cost f e^offset
(skipped where that is not a normal double).  The counts printed are:

    raised          classify calls that raised
    mismatch        reports whose notes say the prediction failed
    avoid_vs_case   reports outside case 0 whose ``avoid`` differs from
                    ``case_index == 2``
    avoid_vs_list   reports whose ``avoid`` (read from the cost's sides of
                    ct_upper and ct_lower) differs from "a coin toss is
                    listed", in every case, case 0 included
    non_a_winner    reports in cases 1, 3, 4 and 5 with an equilibrium
                    not won by A
    path_mismatch   points whose four log frontiers from a scalar n
                    (the float path ``thresholds`` takes) differ from
                    those from a 1-element array n (the array path
                    ``sweep_bounds`` takes), or whose four linear
                    frontiers from ``thresholds`` differ from the
                    ``sweep_bounds`` columns at n on the grid
                    (n/2, n, 2n), less its points outside the domain;
                    all compared with ==
    empty           reports that list no equilibrium (every Poisson
                    game has one)
    missing         equilibria that the grid scan of all nine support
                    types (``support_scan.scan``) finds and the report
                    does not list.  A listed pair is the scanned one if
                    both turnout means agree within TURNOUT_TOL,
                    relative, or both log pivot gains within GAIN_TOL:
                    where a kernel is flat, pairs far apart in alpha
                    are one equilibrium within the slack of
                    ``cost_side``
    worst_residual  the largest defect of an equilibrium's conditions,
                    relative to c, from ``r1_closed`` and ``r2_closed``

The exit status is 1 when a count is nonzero or the worst residual
exceeds 1e-8, and 0 otherwise.  ``far`` prints ``mismatch`` and
``worst_residual`` but does not judge them: from about n = 1e13 no
double root meets the residual bound, and from about n = 1e18 a cost
on ct_upper can list the coin toss and no absenteeism root where one
is predicted.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from residuals import RESIDUAL_BOUND, relative_residual  # noqa: E402
from support_scan import scan  # noqa: E402
from votecost import (  # noqa: E402
    DomainError,
    ElectorateParams,
    SweepSpec,
    classify,
    log_frontiers,
    log_h,
    sweep_bounds,
    thresholds,
)
from votecost.regime import THRESHOLD_NAMES  # noqa: E402

OFFSETS = (0.0, 1e-13, -1e-13, 1e-9, -1e-9)
PROFILES = ("interior", "bounds", "far")  # the index of each is its RNG stream
TURNOUT_TOL = 1e-9
GAIN_TOL = 1e-10


def _share(rng: np.random.Generator, lo: float, hi: float, profile: str) -> float:
    if profile != "bounds":
        return float(rng.uniform(lo + 0.01, hi - 0.01))
    gap = 10.0 ** rng.uniform(-12.0, -1.0)
    return float(lo + gap if rng.random() < 0.5 else hi - gap)


def _in_domain(n: float, params: ElectorateParams) -> bool:
    try:
        ElectorateParams(n=n, p=params.p, p_a=params.p_a)
    except DomainError:
        return False
    return True


def _paths_differ(params: ElectorateParams, log_fs: np.ndarray) -> bool:
    """Whether the float and array paths disagree in a log or a linear frontier."""
    n, p, p_a = params.n, params.p, params.p_a
    grid = tuple(m for m in (n / 2.0, n, 2.0 * n) if _in_domain(m, params))
    columns = sweep_bounds(SweepSpec(p=p, p_a=p_a, n_grid=grid)).columns
    ts = thresholds(params)
    return not (
        np.array_equal(log_fs, log_frontiers(np.array([n]), p, p_a)[:, 0])
        and all(columns[q][grid.index(n)] == getattr(ts, q) for q in THRESHOLD_NAMES)
    )


def _turnouts_and_gains(params: ElectorateParams, alpha_a: float, alpha_b: float):
    u = params.x_a + params.m_a * alpha_a
    v = params.x_b + params.m_b * alpha_b
    return np.array([u, v]), log_h(np.array([v, u]), np.array([u, v]))


def _same(a, b) -> bool:
    """Whether two strategy pairs are one equilibrium: equal turnouts or equal gains."""
    (t_a, g_a), (t_b, g_b) = a, b
    return bool(np.all(abs(t_a - t_b) <= TURNOUT_TOL * t_a) or np.all(abs(g_a - g_b) <= GAIN_TOL))


def run(points: int, profile: str, seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, PROFILES.index(profile)])
    log_n = (7.0, 300.0) if profile == "far" else (-2.0, 7.0)
    counts = dict.fromkeys(
        ("points", "raised", "mismatch", "avoid_vs_case", "avoid_vs_list", "non_a_winner",
         "path_mismatch", "empty", "missing"),
        0,
    )
    worst = 0.0
    while counts["points"] < points:
        params = ElectorateParams(
            n=float(10.0 ** rng.uniform(*log_n)),
            p=_share(rng, 0.0, 1.0, profile),
            p_a=_share(rng, 0.5, 1.0, profile),
        )
        log_fs = log_frontiers(params.n, params.p, params.p_a)
        log_f = log_fs[int(rng.integers(4))]
        c = math.exp(float(log_f) + OFFSETS[int(rng.integers(len(OFFSETS)))])
        if not (c >= sys.float_info.min):
            continue
        counts["points"] += 1
        counts["path_mismatch"] += _paths_differ(params, log_fs)
        try:
            report = classify(params, c)
        except Exception as exc:  # every raise is a finding
            counts["raised"] += 1
            print(f"raised {exc!r} at {params}, c={c!r}", file=sys.stderr)
            continue
        case = report.case_index
        counts["mismatch"] += any(" but solvers returned " in n for n in report.notes)
        counts["avoid_vs_case"] += case != 0 and report.avoid != (case == 2)
        counts["avoid_vs_list"] += report.avoid != any(
            eq.kind.value == "coin_toss" for eq in report.equilibria
        )
        counts["non_a_winner"] += case not in (0, 2) and any(
            eq.winner.value != "A" for eq in report.equilibria
        )
        counts["empty"] += not report.equilibria
        listed = [_turnouts_and_gains(params, eq.strategies.alpha_a, eq.strategies.alpha_b)
                  for eq in report.equilibria]
        for kind, alpha_a, alpha_b in scan(params, c):
            if not any(_same(_turnouts_and_gains(params, alpha_a, alpha_b), b) for b in listed):
                counts["missing"] += 1
                print(f"missing {kind} ({alpha_a!r}, {alpha_b!r}) at {params}, c={c!r}",
                      file=sys.stderr)
        for eq in report.equilibria:
            worst = max(worst, relative_residual(params, eq, c))
    return {**counts, "worst_residual": worst}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=20000)
    parser.add_argument("--profile", choices=PROFILES, default="interior")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = run(args.points, args.profile, args.seed)
    print(
        f"profile={args.profile} seed={args.seed} "
        + " ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}" for k, v in result.items())
    )
    judge_roots = args.profile != "far"  # mismatch and worst_residual: see the docstring
    failed = any(
        v for k, v in result.items()
        if k not in ("points", "worst_residual") and (judge_roots or k != "mismatch")
    )
    return int(failed or (judge_roots and result["worst_residual"] > RESIDUAL_BOUND))


if __name__ == "__main__":
    sys.exit(main())
