"""The benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop: one caller, each call waiting for the
previous one.  A workload is a fixed list of operations built from the
seed; the timed run cycles through it until time is up, the traced run
makes exactly one pass so that counts repeat for a fixed seed.  The
package receives only the generated inputs.  Each operation returns an
``Outcome``; a wrong answer counts as a failed operation, and ``fatal``
marks a failure of the whole run.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from functools import partial
from time import perf_counter

import numpy as np

import reference as ref
import speed

RESIDUAL_BOUND = 1e-8  # the acceptance suite's equilibrium residual bound
VERIFY_TOL = 1e-10
MC_TRIALS = 100_000
MC_SIGMAS = 5.0


@dataclass
class Outcome:
    kind: str
    seconds: float
    items: int = 1
    attempted: int = 1
    failed: int = 0
    wrong_case: int = 0
    case: int | None = None
    max_abs_error: float | None = None
    fatal: str | None = None


def _lhs(rng: np.random.Generator, m: int) -> np.ndarray:
    """m stratified uniforms on [0, 1): one per stratum, in random order."""
    return (rng.permutation(m) + rng.random(m)) / m


def _populations(rng: np.random.Generator, m: int) -> list[float]:
    """m populations log-uniform on [10, 1e7]."""
    return [math.exp(x) for x in math.log(10.0) + math.log(1e6) * _lhs(rng, m)]


def _shares(rng: np.random.Generator, m: int) -> list[tuple[float, float]]:
    """m (p, p_a) pairs: p uniform on [0.02, 0.5], p_a uniform on (0.51, 0.9]."""
    return list(zip((0.02 + 0.48 * _lhs(rng, m)).tolist(), (0.9 - 0.39 * _lhs(rng, m)).tolist()))


def _prediction_mismatch(notes) -> bool:
    return any(" but solvers returned " in note for note in notes)


class Designer:
    """classify + recommend_cost per electorate, one sweep per (p, p_a) family."""

    name = "designer"
    primary, bulk = "classify", "sweep"
    calibration = speed.INTERPRETER
    FAMILIES, PER_FAMILY, SWEEP_POINTS = 150, 8, 200
    warmup = 2 * (PER_FAMILY + 1)

    def __init__(self, vc, seed: int):
        self.vc = vc
        rng = np.random.default_rng([seed, 1])
        populations = _populations(rng, self.FAMILIES * self.PER_FAMILY)
        grid = tuple(float(x) for x in np.geomspace(10.0, 1e7, self.SWEEP_POINTS))
        self.ops = []
        for f, (p, p_a) in enumerate(_shares(rng, self.FAMILIES)):
            for n in populations[f * self.PER_FAMILY:(f + 1) * self.PER_FAMILY]:
                c, case = ref.place_cost(rng, n, p, p_a)
                self.ops.append(partial(self._electorate, n, p, p_a, c, case))
            expected = ref.log_frontiers(np.array(grid), p, p_a)
            self.ops.append(partial(self._sweep, p, p_a, grid, expected))

    def _electorate(self, n, p, p_a, c, case) -> Outcome:
        vc = self.vc
        params = vc.ElectorateParams(n=n, p=p, p_a=p_a)
        t0 = perf_counter()
        try:
            report = vc.classify(params, c)
            t1 = perf_counter()
            recommended = vc.recommend_cost(params, c)
        except Exception as exc:  # a raising call is a failed operation
            print(f"operation raised {exc!r}", file=sys.stderr)
            return Outcome("classify", perf_counter() - t0, failed=1, case=case)
        wrong = report.case_index != case
        bad = (
            wrong
            or any(eq.residual >= RESIDUAL_BOUND for eq in report.equilibria)
            or _prediction_mismatch(report.notes)
            or not ref.recommend_ok(c, recommended, n, p, p_a)
        )
        return Outcome("classify", t1 - t0, failed=int(bad), wrong_case=int(wrong), case=case)

    def _sweep(self, p, p_a, grid, expected) -> Outcome:
        vc = self.vc
        spec = vc.SweepSpec(p=p, p_a=p_a, n_grid=grid)
        t0 = perf_counter()
        table = vc.sweep_bounds(spec)
        seconds = perf_counter() - t0
        values = np.stack([table.columns[q] for q in ref.FRONTIERS])
        bad = ref.frontier_errors(values, expected) > 0
        return Outcome("sweep", seconds, items=len(grid), failed=int(bad))


class Verifier:
    """The in-process `verify` verb, then Monte Carlo runs on the verify grid."""

    name = "verifier"
    primary, bulk = "verify", "mc"
    calibration = speed.SAMPLING
    warmup = 2

    def __init__(self, vc, seed: int):
        self.vc = vc
        rng = np.random.default_rng([seed, 2])
        self.ops = [self._verify]
        # Sampling cost depends on the means, so every (n, p, p_a) of the
        # grid is simulated once per pass, the two Monte Carlo routines in a
        # fixed checkerboard over the grid, and each alpha is used equally
        # often; the seed pairs the alphas, the sides and the streams.
        electorates = [
            vc.ElectorateParams(n=n, p=p, p_a=p_a)
            for n in ref.VERIFY_GRID_N for p in ref.VERIFY_GRID_P for p_a in ref.VERIFY_GRID_PA
        ]
        m = len(electorates)
        alpha_a = rng.permutation(np.resize(ref.VERIFY_GRID_ALPHA, m)).tolist()
        alpha_b = rng.permutation(np.resize(ref.VERIFY_GRID_ALPHA, m)).tolist()
        for k in rng.permutation(m).tolist():
            params, s = electorates[k], vc.StrategyPair(alpha_a[k], alpha_b[k])
            cfg = vc.OracleConfig(trials=MC_TRIALS, seed=int(rng.integers(0, 2**63)))
            if k % 2 == 0:
                self.ops.append(partial(self._simulate, params, s, cfg))
            else:
                side = str(rng.choice(["A", "B"]))
                closed = (vc.r1_closed if side == "A" else vc.r2_closed)(params, s)
                self.ops.append(partial(self._poisson_pivot, params, s, side, cfg, closed))

    def _verify(self) -> Outcome:
        t0 = perf_counter()
        status, text, _ = self.vc.cli.execute(["verify"])
        seconds = perf_counter() - t0
        rows = list(csv.reader(io.StringIO(text)))
        fatal = None if status == 0 else f"verify exited with status {status}"
        if not rows or rows[0] != ref.VERIFY_COLUMNS or len(rows) - 1 != ref.VERIFY_ROWS:
            return Outcome("verify", seconds, fatal=fatal or "verify output malformed")
        col = rows[0].index("abs_error")
        errors = [float(r[col]) for r in rows[1:]]
        return Outcome(
            "verify", seconds, items=len(errors), attempted=len(errors),
            failed=sum(e >= VERIFY_TOL for e in errors),
            max_abs_error=max(errors), fatal=fatal,
        )

    def _simulate(self, params, s, cfg) -> Outcome:
        t0 = perf_counter()
        st = self.vc.simulate_election(params, s, cfg)
        seconds = perf_counter() - t0
        ok = st.n_a_wins + st.n_tie + st.n_b_wins == st.trials_used == cfg.trials
        return Outcome("mc", seconds, items=cfg.trials, failed=int(not ok))

    def _poisson_pivot(self, params, s, side, cfg, closed) -> Outcome:
        t0 = perf_counter()
        est = self.vc.poisson_environment_pivot(params, s, side, cfg)
        seconds = perf_counter() - t0
        # standard error of the estimate if the closed form is the truth
        q = 2.0 * closed
        se = 0.5 * math.sqrt(q * (1.0 - q) / cfg.trials)
        ok = est.trials == cfg.trials and abs(est.value - closed) <= MC_SIGMAS * se
        return Outcome("mc", seconds, items=cfg.trials, failed=int(not ok))
