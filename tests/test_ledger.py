"""Work ledger: what each operation costs in root searches, kernel calls and reads.

Every count is taken by wrapping a package name inside the test, and
every bound is the count the package makes today.  The electorates are
1,200 like the ``designer`` benchmark's, from a fixed seed: n
log-uniform on [10, 1e7], p uniform on [0.02, 0.5], p_a uniform on
(0.51, 0.9], and a cost 10-90% of the way through a random regime's log
interval (log-uniform on [1e-9, 0.49] in case 0).  A change that lowers
a count lowers its bound with it; one that raises a count says why.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest

import votecost.cli as cli
import votecost.equilibria as eqm
import votecost.oracle as oracle
import votecost.pivot as pivot
import votecost.special_fn as sf
from votecost import ElectorateParams, StrategyPair, classify, thresholds
from votecost.pivot import log_frontiers

SEED = 20261022
ELECTORATES = 1200
LOG_TINY = math.log(sys.float_info.min)

# today's counts over the 1,200 electorates, as upper bounds (the same on
# numpy's baseline code path): (root searches, evaluations) per _rtsafe
# label, 3.80 evaluations per root
ROOTS = {
    "absenteeism": (404, 1764),
    "saturation": (363, 1535),
    "coin toss": (177, 509),
    "h peak": (183, 469),
}
H_PEAKS = 183
# one cost_sides reading per classify, and one more per peak compared
COST_READINGS = 1209


def _electorates():
    """(n, p, p_a, c, case) per electorate, placed as the module docstring says."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(ELECTORATES):
        n = 10.0 ** rng.uniform(1.0, 7.0)
        p, p_a = rng.uniform(0.02, 0.5), 0.9 - 0.39 * rng.random()
        logs = log_frontiers(n, p, p_a).tolist()
        x_a = n * p * p_a
        ordered = x_a <= n * (1.0 - p_a) and x_a > math.sqrt(2.0) and logs == sorted(
            set(logs), reverse=True
        )
        if not ordered:
            out.append((n, p, p_a, math.exp(rng.uniform(math.log(1e-9), math.log(0.49))), 0))
            continue
        uppers = [math.log(0.5), *logs]
        lowers = [*logs, logs[3] - 6.0 * math.log(10.0)]
        while True:
            case = int(rng.integers(1, 6))
            lo, hi = max(lowers[case - 1], LOG_TINY), uppers[case - 1]
            if hi > LOG_TINY:
                break
        out.append((n, p, p_a, math.exp(lo + rng.uniform(0.1, 0.9) * (hi - lo)), case))
    return out


def _counting(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _patch_everywhere(mp, name, original, replacement):
    # the name in every package module that imported it
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("votecost") and getattr(module, name, None) is original:
            mp.setattr(module, name, replacement)


@pytest.fixture(scope="module")
def classify_ledger():
    """Counts over one ``classify`` per electorate, each on a fresh ``ElectorateParams``."""
    counts = Counter()
    inputs = _electorates()
    rtsafe = eqm._rtsafe

    def searched(fn, lo, hi, f_lo, f_hi, start, label):
        counts["search", label] += 1
        evaluate = _counting(counts, ("evaluation", label), fn)
        return rtsafe(evaluate, lo, hi, f_lo, f_hi, start, label)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eqm, "_rtsafe", searched)
        mp.setattr(eqm, "find_h_peak", _counting(counts, "find_h_peak", eqm.find_h_peak))
        _patch_everywhere(
            mp, "cost_sides", eqm.cost_sides, _counting(counts, "cost_sides", eqm.cost_sides)
        )
        mp.setattr(pivot, "ThresholdSet", _counting(counts, "ThresholdSet", pivot.ThresholdSet))
        for n, p, p_a, c, case in inputs:
            report = classify(ElectorateParams(n=n, p=p, p_a=p_a), c)
            counts["case", report.case_index] += 1
            counts["wrong case"] += report.case_index != case
    return counts


class TestClassifyLedger:
    def test_inputs_reach_every_case(self, classify_ledger):
        assert classify_ledger["wrong case"] == 0
        assert all(classify_ledger["case", k] > 50 for k in range(6))

    @pytest.mark.parametrize("label", sorted(ROOTS))
    def test_root_searches_and_evaluations(self, classify_ledger, label):
        searches, evaluations = ROOTS[label]
        assert 0 < classify_ledger["search", label] <= searches
        assert classify_ledger["evaluation", label] <= evaluations

    def test_h_peaks(self, classify_ledger):
        # at most one root search per call; none where x_a <= sqrt(2)
        assert classify_ledger["search", "h peak"] <= classify_ledger["find_h_peak"] <= H_PEAKS

    def test_cost_readings_and_frontiers(self, classify_ledger):
        assert classify_ledger["cost_sides"] <= COST_READINGS
        assert classify_ledger["ThresholdSet"] == ELECTORATES


def test_eight_scalar_bessel_calls_per_thresholds(monkeypatch):
    counts = Counter()
    i0e, i1e = _counting(counts, "i0e", sf.i0e_float), _counting(counts, "i1e", sf.i1e_float)
    # g reads them from special_fn, the h parts of thresholds from pivot's FLOAT_OPS
    monkeypatch.setattr(sf, "i0e_float", i0e)
    monkeypatch.setattr(sf, "i1e_float", i1e)
    monkeypatch.setattr(pivot, "FLOAT_OPS", (math.sqrt, i0e, i1e))
    inputs = _electorates()[:100]
    for n, p, p_a, _, _ in inputs:
        thresholds(ElectorateParams(n=n, p=p, p_a=p_a))
    assert counts == {"i0e": 4 * len(inputs), "i1e": 4 * len(inputs)}


class TestVerifyLedger:
    @pytest.fixture
    def verify_counts(self, monkeypatch):
        counts = Counter()
        monkeypatch.setattr(
            cli, "pivot_gain_bruteforce", _counting(counts, "brute", cli.pivot_gain_bruteforce)
        )
        _patch_everywhere(monkeypatch, "h", sf.h, _counting(counts, "h", sf.h))

        class CountedRow(cli.VerifyRow):
            def __init__(self, *cells):
                counts["VerifyRow"] += 1
                super().__init__(*cells)

        monkeypatch.setattr(cli, "VerifyRow", CountedRow)
        return counts

    def test_csv(self, verify_counts):
        status, _, _ = cli.execute(["verify"])
        assert status == cli.EXIT_OK
        assert verify_counts == {"brute": 1}

    def test_json(self, verify_counts):
        # only JSON output builds the rows
        status, _, _ = cli.execute(["verify", "--format", "json"])
        assert status == cli.EXIT_OK
        assert verify_counts == {"brute": 1, "VerifyRow": 1800}


class _CountingRng:
    """A ``Generator`` that counts its Poisson and binomial draws."""

    def __init__(self, rng, counts):
        self.rng, self.counts = rng, counts

    def poisson(self, *args):
        self.counts["poisson"] += 1
        return self.rng.poisson(*args)

    def binomial(self, *args):
        self.counts["binomial"] += 1
        return self.rng.binomial(*args)


@pytest.mark.parametrize(
    "run, draws",
    [
        (oracle.simulate_election, {"poisson": 2, "binomial": 2}),
        (oracle.poisson_environment_pivot, {"poisson": 2}),
    ],
)
def test_monte_carlo_draws(monkeypatch, run, draws):
    counts = Counter()
    rng = oracle._rng
    monkeypatch.setattr(oracle, "_rng", lambda cfg: _CountingRng(rng(cfg), counts))
    cfg = oracle.OracleConfig(trials=1000, seed=7)
    run(ElectorateParams(n=200.0, p=0.2, p_a=0.6), StrategyPair(0.3, 0.7), cfg=cfg)
    assert counts == draws
