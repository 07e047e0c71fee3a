"""Brute-force sums and Monte Carlo simulation against analytic anchors."""

import itertools
import math

import numpy as np
import pytest
from reference_fns import four_draw_pivot, simulate_margin, tie_rule, utility_bruteforce
from scipy import stats

from votecost import oracle
from votecost.cli import VERIFY_GRID_ALPHA, VERIFY_GRID_N, VERIFY_GRID_P, VERIFY_GRID_PA
from votecost.equilibria import solve_coin_toss
from votecost.errors import DomainError, TruncationLimitError
from votecost.oracle import (
    OracleConfig,
    _pmf_vector,
    _poisson_pivot,
    _total_pmfs,
    _upper_index,
    class_sizes,
    pivot_gain_bruteforce,
    poisson_environment_pivot,
    simulate_election,
)
from votecost.pivot import ElectorateParams, StrategyPair, r1_closed, r2_closed


class TestTieRule:
    def test_values(self):
        assert tie_rule(3, 2) == 1.0
        assert tie_rule(2, 2) == 0.5
        assert tie_rule(0, 1) == 0.0


class TestBruteForce:
    def test_zero_means(self):
        for side in ("A", "B"):
            out = pivot_gain_bruteforce(0, 0, 0, 0, side)
            assert out.value == 0.5
            assert out.error_bound == pytest.approx(4e-13)

    def test_symmetric_point(self):
        a = pivot_gain_bruteforce(1.0, 1.0, 0.0, 0.0, "A")
        b = pivot_gain_bruteforce(1.0, 1.0, 0.0, 0.0, "B")
        assert a.value == pytest.approx(b.value, abs=1e-14)

    def test_balanced_totals_match_across_sides(self):
        # x_a + y_a = x_b + y_b makes both sides' gains coincide
        a = pivot_gain_bruteforce(1.8, 1.2, 0.7, 1.3, "A")
        b = pivot_gain_bruteforce(1.8, 1.2, 0.7, 1.3, "B")
        assert abs(a.value - b.value) < 1e-10

    def test_truncation_soundness(self):
        # the same sum with every index cut at twice its truncation point
        means = (3.0, 2.0, 4.0, 1.0)
        base = pivot_gain_bruteforce(*means, "A")
        pmfs = []
        for m in means:
            k = int(stats.poisson.ppf(1.0 - OracleConfig().tail_eps, m))
            pmfs.append(stats.poisson.pmf(np.arange(2 * k + 1), m))
        own, other = np.convolve(pmfs[0], pmfs[2]), np.convolve(pmfs[1], pmfs[3])
        other = np.pad(other, (0, max(0, len(own) + 1 - len(other))))
        # P(T_B - T_A = 0) + P(T_B - T_A = 1), each with gain 1/2
        doubled = 0.5 * (own @ other[: len(own)] + own @ other[1 : len(own) + 1])
        assert abs(base.value - doubled) < base.error_bound

    def test_matches_literal_quadruple_loop(self):
        # the convolution evaluation is a regrouping of the four nested
        # sums; spell the sums out once and compare
        means = (1.3, 0.8, 0.6, 1.1)
        kmax = 30
        pmfs = [stats.poisson.pmf(np.arange(kmax + 1), m) for m in means]
        total = 0.0
        for a in range(kmax + 1):
            for b in range(kmax + 1):
                for r in range(kmax + 1):
                    for s in range(kmax + 1):
                        weight = pmfs[0][a] * pmfs[1][b] * pmfs[2][r] * pmfs[3][s]
                        total += weight * (tie_rule(a + r + 1, b + s) - tie_rule(a + r, b + s))
        fast = pivot_gain_bruteforce(*means, "A")
        assert abs(total - fast.value) < 1e-12

    def test_one_item_or_a_sequence(self):
        # one electorate takes one item (a number, a 0-d array or a str) in
        # each argument and gives a float; a grid of that one electorate
        # gives a flat list with the same bits (frozen at x_a, x_b, y_a,
        # y_b = 1.3, 0.8, 2, 1.1)
        gain_a, gain_b = 0.12698273960497453, 0.16478932816911307
        for y_a in (2.0, 2, np.float64(2.0), np.array(2.0)):
            for y_b in (1.1, np.float64(1.1)):
                for side, want in (("A", gain_a), ("B", gain_b)):
                    value = pivot_gain_bruteforce(1.3, 0.8, y_a, y_b, side).value
                    assert type(value) is float and value == want
        for y_a in ([2.0], (2.0,), np.array([2.0])):
            value = pivot_gain_bruteforce([1.3], [0.8], [y_a], [[1.1]], "A").value
            assert type(value) is list and value == [gain_a]
        for side in (("A",), ("A", "B"), ["B"]):
            value = pivot_gain_bruteforce([1.3], [0.8], [[2.0]], [[1.1]], side).value
            want = [gain_a if one == "A" else gain_b for one in side]
            assert type(value) is list and value == want
            assert all(type(gain) is float for gain in value)

    @staticmethod
    def padded_gain(x_a, x_b, y_a, y_b, side, cfg):
        # the reference: the other total always copied into a zero-padded
        # vector of length n + 1, whatever its length
        (dist_a,), (dist_b,) = _total_pmfs([x_a], [x_b], [[y_a]], [[y_b]], cfg)
        own, other = (dist_a, dist_b) if side == "A" else (dist_b, dist_a)
        n = len(own)
        other_pad = np.zeros(n + 1)
        m = min(len(other), n + 1)
        other_pad[:m] = other[:m]
        return 0.5 * float(np.dot(own, other_pad[:n]) + np.dot(own, other_pad[1 : n + 1]))

    @pytest.mark.parametrize("tail_eps", [1e-13, 1e-9])
    def test_bit_identical_to_padded_copy(self, tail_eps):
        cfg = OracleConfig(tail_eps=tail_eps)
        rng = np.random.default_rng(20240717)
        means = [tuple(m) for m in 10.0 ** rng.uniform(-3.0, 1.7, size=(300, 4))]
        means += [(0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 3.0), (0.0, 1.5, 0.7, 0.0)]
        # len(other) - len(own): below 0, 0, 1 and above 1 all occur
        seen = set()
        for point in means:
            x_a, x_b, y_a, y_b = point
            (dist_a,), (dist_b,) = _total_pmfs([x_a], [x_b], [[y_a]], [[y_b]], cfg)
            for side in ("A", "B"):
                own, other = (dist_a, dist_b) if side == "A" else (dist_b, dist_a)
                seen.add(min(max(len(other) - len(own), -1), 2))
                got = pivot_gain_bruteforce(*point, side, cfg).value
                assert got == self.padded_gain(*point, side, cfg), (point, side)
        assert seen == {-1, 0, 1, 2}

    def test_stacked_matmul_keeps_dot_bits(self):
        # the gains' kernel: one (1, n) @ (n, 1) matmul per own total over
        # a batch of shift-0 and shift-1 windows must give np.dot's bits,
        # as numpy sends that shape to the same dot kernel.  If a numpy
        # routes it elsewhere (a gemv rounds differently), this fails first.
        rng = np.random.default_rng(20240717)
        lengths = rng.integers(1, 301, size=200)
        assert set((lengths % 32).tolist()) == set(range(32))
        for n in lengths.tolist():
            rows = int(rng.integers(1, 11))
            padded = np.zeros((rows, n + 1 + int(rng.integers(0, 4))))
            for row in padded:
                used = int(rng.integers(1, padded.shape[1]))
                row[:used] = 10.0 ** rng.uniform(-300.0, 10.0, size=used)
            own = 10.0 ** rng.uniform(-300.0, 10.0, size=n)
            windows = np.lib.stride_tricks.sliding_window_view(
                padded, padded.shape[1] - 1, axis=1
            )
            dots = np.matmul(own[None, :], windows[..., :n, None])[..., 0, 0]
            want = [[np.dot(own, row[shift : shift + n]) for shift in (0, 1)] for row in padded]
            assert dots.tolist() == want, n
            gains = oracle._window_gains([own], windows)
            assert gains.tolist() == [[0.5 * (d0 + d1) for d0, d1 in want]], n

    def test_cell_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "CELL_CAP", 1e3)
        with pytest.raises(TruncationLimitError):
            pivot_gain_bruteforce(50, 50, 50, 50, "A")

    @pytest.mark.parametrize("slot", range(4))
    def test_no_finite_index_is_truncation_error(self, slot):
        # pdtrik gives NaN past means of ~1e11; cast to int, NaN would read
        # as -2**63 and pass the cell cap
        means = [[1.0], [1.0], [[0.5, 1.0]], [[1.0]]]
        means[slot] = [1e14] if slot < 2 else [[1e14]]
        with pytest.raises(TruncationLimitError, match="Poisson mean 100000000000000.0 "):
            pivot_gain_bruteforce(*means, ("A", "B"))
        with pytest.raises(TruncationLimitError, match="Poisson mean 100000000000000.0 "):
            _upper_index([1.0, 1e14], 1e-13)
        # below that, the cell cap still decides
        with pytest.raises(TruncationLimitError, match="exceeds CELL_CAP"):
            pivot_gain_bruteforce(1e10, 1, 1, 1)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            pivot_gain_bruteforce(-1.0, 0, 0, 0, "A")
        with pytest.raises(DomainError):
            pivot_gain_bruteforce(1.0, 0, 0, 0, "C")
        with pytest.raises(DomainError):
            pivot_gain_bruteforce(1.0, 0, 0, 0, None)

    # the last five are not real numbers
    @pytest.mark.parametrize(
        "bad", [-1.0, -math.inf, math.inf, math.nan, "x", "1.5", 1j, None, np.array("x")]
    )
    @pytest.mark.parametrize("slot, name", enumerate(["x_a", "x_b", "y_a", "y_b"]))
    def test_names_the_bad_mean(self, slot, name, bad):
        means = [1.0, 2.0, 3.0, 4.0]
        means[slot] = bad
        with pytest.raises(DomainError, match=f"^{name} must be a finite mean >= 0, got "):
            pivot_gain_bruteforce(*means, "A")

    @pytest.mark.parametrize("bad", [[1.0, 2.0], [], (3.0,), np.array([1.0])])
    @pytest.mark.parametrize("slot, name", enumerate(["x_a", "x_b"]))
    def test_partisan_means_take_one_value(self, slot, name, bad):
        means = [1.0, 2.0, 3.0, 4.0]
        means[slot] = bad
        with pytest.raises(DomainError, match=f"^{name} must be one mean, got "):
            pivot_gain_bruteforce(*means, "A")

    @pytest.mark.parametrize("tail_eps", [1e-13, 1e-10, 1e-7])
    def test_sequences_match_scalar_calls(self, tail_eps, monkeypatch):
        cfg = OracleConfig(tail_eps=tail_eps)
        grid = [
            ElectorateParams(n=n, p=p, p_a=p_a)
            for n, p, p_a in itertools.product(VERIFY_GRID_N, VERIFY_GRID_P, VERIFY_GRID_PA)
        ]
        top = math.log10(max(max(e.x_a, e.x_b, e.m_a, e.m_b) for e in grid))
        rng = np.random.default_rng(20240717)
        for trial in range(12):
            x_a, x_b = 10.0 ** rng.uniform([-300.0, -3.0], top)[rng.permutation(2)]
            ys_a = [0.0, *10.0 ** rng.uniform(-300.0, top, size=2), 10.0**top]
            ys_b = [0.0, 1e-300, *10.0 ** rng.uniform(-3.0, top, size=2)]
            sides = [("A", "B"), ("B", "A"), ["B"], "A"][trial % 4]
            for y_a, y_b in [(ys_a, ys_b), (ys_a[1], ys_b), (ys_a, ys_b[2])]:
                got = pivot_gain_bruteforce([x_a], [x_b], [y_a], [y_b], sides, cfg)
                want = [
                    pivot_gain_bruteforce(x_a, x_b, one_a, one_b, side, cfg).value
                    for one_a, one_b, side in itertools.product(
                        np.atleast_1d(y_a), np.atleast_1d(y_b), sides
                    )
                ]
                assert got.value == want, (x_a, x_b, y_a, y_b, sides)
                assert got.error_bound == 4.0 * tail_eps

        # every check runs before a pmf is built
        built, build = [], oracle._pmf_vector
        monkeypatch.setattr(
            oracle, "_pmf_vector", lambda *args: built.append(args) or build(*args)
        )
        ys = [0.0, 1.0, 50.0]
        with pytest.raises(DomainError, match="^side must be one of"):
            pivot_gain_bruteforce([1.0], [1.0], [ys], [ys], ("A", "C"), cfg)
        for bad in (math.nan, -1.0, "x"):
            with pytest.raises(DomainError, match="^y_a must be a finite mean >= 0, got "):
                pivot_gain_bruteforce([1.0], [1.0], [[0.5, bad]], [ys], ("A", "B"), cfg)
            with pytest.raises(DomainError, match="^y_b must be a finite mean >= 0, got "):
                pivot_gain_bruteforce([1.0], [1.0], [ys], [[bad, 0.5]], "B", cfg)
        # one electorate takes one item per argument; a sequence is named
        for name, y_a, y_b, side in [
            ("y_a", ys, 1.0, "A"), ("y_b", 1.0, ys, "A"), ("side", 1.0, 1.0, ("A", "B"))
        ]:
            with pytest.raises(DomainError, match=f"^{name} must be one (mean|side), got "):
                pivot_gain_bruteforce(1.0, 1.0, y_a, y_b, side, cfg)
        # only the largest box, the last y_a with the last y_b, breaks the cap
        k_one, k_big = _upper_index([1.0, 50.0], tail_eps).tolist()
        monkeypatch.setattr(oracle, "CELL_CAP", (k_one + 1) ** 2 * (k_big + 1) ** 2 - 1)
        with pytest.raises(TruncationLimitError):
            pivot_gain_bruteforce([1.0], [1.0], [ys], [ys], ("A", "B"), cfg)
        assert built == []
        # the patched function is the one that builds them: one call per sum
        pivot_gain_bruteforce([1.0], [1.0], [ys[:2]], [ys], ("A", "B"), cfg)
        assert len(built) == 1


class TestGrid:
    """Sequences for x_a and x_b: one electorate per entry, in one pass."""

    @staticmethod
    def count_pmf_builds(monkeypatch):
        built, build = [], oracle._pmf_vector
        monkeypatch.setattr(
            oracle, "_pmf_vector", lambda *args: built.append(args) or build(*args)
        )
        return built

    @pytest.mark.parametrize("tail_eps", [1e-13, 1e-10, 1e-7])
    def test_verify_grid_matches_per_electorate_calls(self, tail_eps, monkeypatch):
        cfg = OracleConfig(tail_eps=tail_eps)
        grid = [
            ElectorateParams(n=n, p=p, p_a=p_a)
            for n, p, p_a in itertools.product(VERIFY_GRID_N, VERIFY_GRID_P, VERIFY_GRID_PA)
        ]
        ys_a = [[e.m_a * alpha for alpha in VERIFY_GRID_ALPHA] for e in grid]
        ys_b = [[e.m_b * alpha for alpha in VERIFY_GRID_ALPHA] for e in grid]
        want = [
            gain
            for e, y_a, y_b in zip(grid, ys_a, ys_b)
            for gain in pivot_gain_bruteforce([e.x_a], [e.x_b], [y_a], [y_b], ("A", "B"), cfg).value
        ]
        built = self.count_pmf_builds(monkeypatch)
        got = pivot_gain_bruteforce(
            [e.x_a for e in grid], [e.x_b for e in grid], ys_a, ys_b, ("A", "B"), cfg
        )
        assert len(built) == 1
        assert got.value == want
        assert got.error_bound == 4.0 * tail_eps

    @pytest.mark.parametrize("tail_eps", [1e-13, 1e-9])
    def test_random_electorates_match_per_electorate_calls(self, tail_eps, monkeypatch):
        # every electorate its own form: one voter mean or a sequence of 0-3
        # per side; the block is as wide as the longest total of the grid
        cfg = OracleConfig(tail_eps=tail_eps)
        rng = np.random.default_rng(20240717)
        seen = set()
        for trial in range(8):
            size = int(rng.integers(1, 40))
            xs = 10.0 ** rng.uniform(-3.0, 1.7, size=(size, 2))
            xs[rng.random(size=(size, 2)) < 0.1] = 0.0
            ys = [[], []]
            for _ in range(size):
                for side_ys in ys:
                    count = int(rng.integers(-1, 4))
                    means = 10.0 ** rng.uniform(-3.0, 1.7, size=max(count, 1))
                    means[rng.random(size=len(means)) < 0.1] = 0.0
                    side_ys.append(float(means[0]) if count < 0 else means[:count].tolist())
            sides = [("A", "B"), ("B",), "A", "B"][trial % 4]
            want = []
            for (x_a, x_b), y_a, y_b in zip(xs.tolist(), *ys):
                want += pivot_gain_bruteforce([x_a], [x_b], [y_a], [y_b], sides, cfg).value
                y_a, y_b = np.atleast_1d(y_a).tolist(), np.atleast_1d(y_b).tolist()
                totals_a, totals_b = _total_pmfs([x_a], [x_b], [y_a], [y_b], cfg)
                for own, other in itertools.chain(
                    itertools.product(totals_a, totals_b), itertools.product(totals_b, totals_a)
                ):
                    seen.add(min(max(len(other) - len(own), -1), 2))
            built = self.count_pmf_builds(monkeypatch)
            got = pivot_gain_bruteforce(xs[:, 0].tolist(), xs[:, 1], *ys, sides, cfg)
            assert len(built) == 1
            assert got.value == want, trial
            assert [type(v) for v in got.value] == [type(v) for v in want]
            assert type(got.value) is list and all(type(v) is float for v in got.value)
            monkeypatch.undo()
        # len(other) - len(own): below 0, 0, 1 and above 1 all occur
        assert seen == {-1, 0, 1, 2}

    def test_empty_grid(self):
        assert pivot_gain_bruteforce([], [], [], [], ("A", "B")).value == []

    @pytest.mark.parametrize(
        "x_a, x_b, y_a, y_b",
        [
            ([1.0, 2.0], [1.0], [1.0, 2.0], [1.0, 2.0]),
            ([1.0], [1.0, 2.0], [1.0], [1.0]),
            ([1.0, 2.0], [1.0, 2.0], [1.0], [1.0, 2.0]),
            ([1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [[1.0], [2.0], [3.0]]),
            ([1.0], [1.0], 1.0, [1.0]),
            ([1.0], [1.0], [1.0], [2.0, 3.0]),
        ],
    )
    def test_unequal_lengths(self, x_a, x_b, y_a, y_b, monkeypatch):
        built = self.count_pmf_builds(monkeypatch)
        with pytest.raises(DomainError, match=" one entry per electorate, got "):
            pivot_gain_bruteforce(x_a, x_b, y_a, y_b, ("A", "B"))
        assert built == []

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_any_electorate_raises_before_a_pmf_is_built(self, where, monkeypatch):
        tail_eps = 1e-13
        cfg = OracleConfig(tail_eps=tail_eps)
        built = self.count_pmf_builds(monkeypatch)

        def means(slot, bad):
            # five electorates of means 1.0, the one at ``where`` with ``bad``
            grid = [[1.0] * 5, [1.0] * 5, [[1.0, 0.5]] * 5, [1.0] * 5]
            grid[slot] = list(grid[slot])
            grid[slot][where] = bad if slot != 2 else [0.5, bad]
            return grid

        for slot, name in enumerate(["x_a", "x_b", "y_a", "y_b"]):
            with pytest.raises(TruncationLimitError, match="Poisson mean 100000000000000.0 "):
                pivot_gain_bruteforce(*means(slot, 1e14), ("A", "B"), cfg)
            with pytest.raises(DomainError, match=f"^{name} must be a finite mean >= 0, got "):
                pivot_gain_bruteforce(*means(slot, math.nan), ("A", "B"), cfg)
        # only the electorate with a mean of 50 breaks the cap
        k_one, k_big = _upper_index([1.0, 50.0], tail_eps).tolist()
        monkeypatch.setattr(oracle, "CELL_CAP", (k_one + 1) ** 3 * (k_big + 1))
        for slot in range(4):
            pivot_gain_bruteforce(*means(slot, 50.0), ("A", "B"), cfg)
        # the cap holds per electorate, not for the grid's largest indices
        spread = means(0, 50.0)
        spread[3] = [50.0 if e == (where + 1) % 5 else 1.0 for e in range(5)]
        pivot_gain_bruteforce(*spread, ("A", "B"), cfg)
        monkeypatch.setattr(oracle, "CELL_CAP", (k_one + 1) ** 3 * (k_big + 1) - 1)
        for slot in range(4):
            with pytest.raises(TruncationLimitError, match="exceeds CELL_CAP"):
                pivot_gain_bruteforce(*means(slot, 50.0), ("A", "B"), cfg)
        assert len(built) == 5


# means from the smallest subnormal up to 1e5
POISSON_MEANS = [5e-324, 1e-300, 1e-30, 1e-16, *np.logspace(-6, 5, 400)]


class TestPoissonHelpers:
    """The scipy.special helpers reproduce scipy.stats.poisson bit for bit."""

    @pytest.mark.parametrize("tail_eps", [1e-13, 1e-10, 1e-7])
    def test_upper_index_matches_ppf(self, tail_eps):
        for mean in POISSON_MEANS:
            want = int(stats.poisson.ppf(1.0 - tail_eps, mean))
            assert _upper_index([mean], tail_eps).tolist() == [want], mean

    @pytest.mark.parametrize("tail_eps", [1e-13, 1e-10, 1e-7])
    def test_pmf_vector_matches_pmf(self, tail_eps):
        for mean in POISSON_MEANS:
            (k_max,) = _upper_index([mean], tail_eps).tolist()
            want = stats.poisson.pmf(np.arange(k_max + 1), mean)
            (pmf,) = _pmf_vector([mean], [k_max])
            np.testing.assert_array_equal(pmf, want)

    @pytest.mark.parametrize(
        "mean, tail_eps, want",
        [
            (18122.424665646275, 1e-13, 19120),
            (70316.99770378614, 1e-13, 72274),
            (66081.66788046046, 1e-10, 67723),
        ],
    )
    def test_upper_index_steps_back(self, mean, tail_eps, want):
        # here ceil(pdtrik) lands one above the ppf, whose cdf check steps back
        assert _upper_index([mean], tail_eps).tolist() == [want]
        assert int(stats.poisson.ppf(1.0 - tail_eps, mean)) == want

    @pytest.mark.parametrize("tail_eps", [1e-13, 1e-10, 1e-7])
    def test_batched_calls_match_scipy(self, tail_eps):
        # one call of each helper over every mean
        want = [int(stats.poisson.ppf(1.0 - tail_eps, mean)) for mean in POISSON_MEANS]
        ks = _upper_index(POISSON_MEANS, tail_eps)
        assert ks.tolist() == want
        pmfs = _pmf_vector(POISSON_MEANS, ks)
        assert len(pmfs) == len(POISSON_MEANS)
        for mean, k_max, pmf in zip(POISSON_MEANS, want, pmfs):
            np.testing.assert_array_equal(pmf, stats.poisson.pmf(np.arange(k_max + 1), mean))

    def test_zero_mean(self):
        k_one = int(stats.poisson.ppf(1.0 - 1e-13, 1.0))
        assert _upper_index([0.0, 1.0, 0.0], 1e-13).tolist() == [0, k_one, 0]
        pmfs = _pmf_vector([0.0, 2.0, 0.0], [3, 0, 0])
        np.testing.assert_array_equal(pmfs[0], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(pmfs[1], stats.poisson.pmf([0], 2.0))
        np.testing.assert_array_equal(pmfs[2], [1.0])

    def test_repeated_upper_index_matches_ppf(self):
        means = POISSON_MEANS[:64]
        for _ in range(2):
            for tail_eps in (1e-13, 1e-7):
                for mean in means:
                    want = int(stats.poisson.ppf(1.0 - tail_eps, mean))
                    for _repeat in range(2):
                        assert _upper_index([mean], tail_eps).tolist() == [want], (mean, tail_eps)


    @pytest.mark.parametrize("tail_eps", [1e-13, 1e-7])
    def test_upper_index_evaluates_each_distinct_mean_once(self, tail_eps, monkeypatch):
        # verify's grid repeats means (0.0 among them): pdtrik sees each once
        grid = [
            ElectorateParams(n=n, p=p, p_a=p_a)
            for n, p, p_a in itertools.product(VERIFY_GRID_N, VERIFY_GRID_P, VERIFY_GRID_PA)
        ]
        means = [
            mean
            for e in grid
            for mean in (e.x_a, e.x_b, *(e.m_a * a for a in VERIFY_GRID_ALPHA),
                         *(e.m_b * a for a in VERIFY_GRID_ALPHA))
        ]
        seen, pdtrik = [], oracle.special.pdtrik
        monkeypatch.setattr(
            oracle.special, "pdtrik", lambda q, m: seen.append(m.tolist()) or pdtrik(q, m)
        )
        ks = _upper_index(means, tail_eps).tolist()
        monkeypatch.undo()
        assert len(seen) == 1 and sorted(seen[0]) == sorted(set(means)) != sorted(means)
        assert ks == [_upper_index([mean], tail_eps).item() for mean in means]
        # repeats in any order, 0.0 and -0.0 among them, give each mean's own index
        rng = np.random.default_rng(20240717)
        repeated = [*POISSON_MEANS, *POISSON_MEANS[::3], 0.0, -0.0, 0.0, 1.0, -0.0]
        repeated = [repeated[i] for i in rng.permutation(len(repeated))]
        want = [_upper_index([mean], tail_eps).item() for mean in repeated]
        assert _upper_index(repeated, tail_eps).tolist() == want
        # the error names the first mean without an index in input order
        with pytest.raises(TruncationLimitError, match="Poisson mean 1000000000000000.0 "):
            _upper_index([1.0, 1e15, 1e14, 1e15, 0.0], tail_eps)


class TestNoStateBetweenCalls:
    MEANS = (1.8, 1.2, 0.7, 1.3)

    def run(self):
        return (
            pivot_gain_bruteforce(*self.MEANS, "A"),
            pivot_gain_bruteforce(*self.MEANS, "B"),
            utility_bruteforce("A", 1, *self.MEANS, 0.05),
            utility_bruteforce("A", 0, *self.MEANS, 0.05),
        )

    @pytest.mark.parametrize(
        "between",
        [
            lambda: pivot_gain_bruteforce(2.0, 1.0, 1.0, 2.0, "A"),
            lambda: pivot_gain_bruteforce(1.8, 1.2, 0.7, 1.3, "A", OracleConfig(tail_eps=1e-7)),
            lambda: utility_bruteforce("B", 1, 0.3, 4.0, 0.0, 2.5, 0.1),
        ],
        ids=["means", "config", "utility"],
    )
    def test_interleaved_call_does_not_change_results(self, between):
        # no call carries anything over into the next
        fresh_between = between()
        fresh = self.run()
        assert between() == fresh_between
        assert self.run() == fresh
        assert between() == fresh_between

    def test_exceptions_are_not_cached(self, monkeypatch):
        with monkeypatch.context() as small:
            small.setattr(oracle, "CELL_CAP", 1e3)
            for _ in range(2):
                with pytest.raises(DomainError):
                    pivot_gain_bruteforce(-1.0, 0, 0, 0, "A")
                with pytest.raises(DomainError):
                    pivot_gain_bruteforce(float("nan"), 0, 0, 0, "A")
                with pytest.raises(TruncationLimitError):
                    pivot_gain_bruteforce(50, 50, 50, 50, "A")
        # a breach right after the same means were summed under a larger cap
        pivot_gain_bruteforce(50, 50, 50, 50, "A")
        monkeypatch.setattr(oracle, "CELL_CAP", 1e3)
        with pytest.raises(TruncationLimitError):
            pivot_gain_bruteforce(50, 50, 50, 50, "A")


# The truncation test keeps the class name of the deleted totals memo so
# that its collected ids stay as they were; it checks that the totals
# `_total_pmfs` builds after a change of truncation are those of a cold call.
class TestTotalsMemo:
    MEANS = TestNoStateBetweenCalls.MEANS

    @pytest.mark.parametrize(
        "cfg",
        [OracleConfig(tail_eps=1e-7), OracleConfig(tail_eps=1e-9), OracleConfig(tail_eps=1e-11)],
        ids=["tail_eps", "tail_eps_1e-9", "tail_eps_1e-11"],
    )
    def test_truncation_change_between_calls_matches_cold(self, cfg):
        # compares the vectors: a stale total under another tail_eps
        # can give the same gain to the last bit
        def totals(cfg):
            x_a, x_b, y_a, y_b = self.MEANS
            (dist_a,), (dist_b,) = _total_pmfs([x_a], [x_b], [[y_a]], [[y_b]], cfg)
            return dist_a, dist_b

        want = totals(cfg)
        default = totals(OracleConfig())
        for _ in range(2):
            for dist, base, wanted in zip(totals(cfg), default, want):
                assert len(dist) != len(base)
                np.testing.assert_array_equal(dist, wanted)
            for dist, base in zip(totals(OracleConfig()), default):
                np.testing.assert_array_equal(dist, base)


class TestUtility:
    def test_lone_voter(self):
        assert utility_bruteforce("A", 1, 0, 0, 0, 0, 0.1) == pytest.approx(0.9)
        assert utility_bruteforce("A", 0, 0, 0, 0, 0, 0.1) == pytest.approx(0.5)

    def test_difference_is_gain_minus_cost(self):
        means = (1.8, 1.2, 0.7, 1.3)
        for side in ("A", "B"):
            d = utility_bruteforce(side, 1, *means, 0.05) - utility_bruteforce(
                side, 0, *means, 0.05
            )
            gain = pivot_gain_bruteforce(*means, side)
            assert abs(d + 0.05 - gain.value) < 1e-9

    def test_matches_closed_form_difference(self):
        params = ElectorateParams(n=10, p=0.3, p_a=0.6)
        s = StrategyPair(0.5, 0.5)
        y_a, y_b = params.m_a * 0.5, params.m_b * 0.5
        d = utility_bruteforce("A", 1, params.x_a, params.x_b, y_a, y_b, 0.07)
        d -= utility_bruteforce("A", 0, params.x_a, params.x_b, y_a, y_b, 0.07)
        assert abs(d - (r1_closed(params, s) - 0.07)) < 1e-9

    def test_rejects_bad_cost(self):
        with pytest.raises(DomainError):
            utility_bruteforce("A", 1, 1, 1, 1, 1, 0.0)
        with pytest.raises(DomainError):
            utility_bruteforce("A", 2, 1, 1, 1, 1, 0.1)


class TestSimulate:
    def test_counts_partition_trials(self):
        params = ElectorateParams(n=30, p=0.3, p_a=0.6)
        w = simulate_election(params, StrategyPair(0.5, 0.5), OracleConfig(trials=7777, seed=3))
        assert w.n_a_wins + w.n_tie + w.n_b_wins == w.trials_used == 7777
        assert w.p_a_wins == w.n_a_wins / 7777
        assert 0.0 <= w.p_tie <= 1.0

    def test_deterministic_for_fixed_seed(self):
        params = ElectorateParams(n=50, p=0.2, p_a=0.6)
        s = StrategyPair(0.3, 0.8)
        cfg = OracleConfig(trials=20_000, seed=99)
        assert simulate_election(params, s, cfg) == simulate_election(params, s, cfg)

    def test_partisan_majority_dominates(self):
        # nearly everyone is partisan: the majority side essentially always wins
        params = ElectorateParams(n=400, p=0.999, p_a=0.7)
        w = simulate_election(params, StrategyPair(0.0, 0.0), OracleConfig(trials=20_000, seed=11))
        assert w.p_a_wins > 1.0 - 3.0 * max(w.se_a_wins, 1e-4) - 1e-3

    def test_all_swipe_margin_is_partisan_noise_only(self):
        # deterministic non-partisan turnout: win odds computable from the
        # two partisan Poisson distributions alone
        params = ElectorateParams(n=60, p=0.3, p_a=0.6)
        size_a, size_b = class_sizes(params)
        shift = size_a - size_b
        k = np.arange(0, 200)
        pmf_a = stats.poisson.pmf(k, params.x_a)
        pmf_b = stats.poisson.pmf(k, params.x_b)
        # P(A wins) = P(pois_a - pois_b > -shift)
        want = float(
            sum(
                pmf_a[i] * pmf_b[: max(0, min(200, i + shift))].sum()
                for i in range(200)
            )
        )
        w = simulate_election(params, StrategyPair(1.0, 1.0), OracleConfig(trials=200_000, seed=17))
        assert w.p_a_wins == pytest.approx(want, abs=3.5 * w.se_a_wins)

    def test_se_scales_with_trials(self):
        params = ElectorateParams(n=20, p=0.3, p_a=0.55)
        s = StrategyPair(0.5, 0.5)
        w_small = simulate_election(params, s, OracleConfig(trials=10_000, seed=5))
        w_large = simulate_election(params, s, OracleConfig(trials=1_000_000, seed=5))
        ratio = w_small.se_a_wins / w_large.se_a_wins
        assert 8.0 <= ratio <= 12.5

    def test_pivot_estimates_consistent_at_coin_toss(self):
        # the simulator draws binomial (not Poisson) non-partisan turnout, so
        # its pivot estimate carries an O(alpha * c) discretization offset
        # relative to the indifference level; at this sample size 3 se covers it
        params = ElectorateParams(n=200, p=0.2, p_a=0.6)
        c = 0.0445
        eq = solve_coin_toss(params, c)
        assert eq is not None
        w = simulate_election(params, eq.strategies, OracleConfig(trials=1_000, seed=12))
        assert abs(w.pivot_a - c) < 3.0 * w.se_pivot_a
        assert abs(w.pivot_b - c) < 3.0 * w.se_pivot_b

    @pytest.mark.parametrize(
        "n, p, p_a", [(1.5e19, 0.5, 0.9), (1e20, 1e-15, 0.6), (1e30, 0.5, 0.6)]
    )
    def test_counts_past_the_int64_limit_are_a_domain_error(self, n, p, p_a):
        # past 2**62 a side's vote total can wrap in int64, or numpy refuses
        # the mean or the class size
        params = ElectorateParams(n=n, p=p, p_a=p_a)
        with pytest.raises(DomainError, match="^side A's expected vote count"):
            simulate_election(params, StrategyPair(1.0, 1.0), OracleConfig(trials=10))
        with pytest.raises(DomainError, match="^side A's expected vote count"):
            poisson_environment_pivot(params, StrategyPair(1.0, 1.0), "A", OracleConfig(trials=10))

    @pytest.mark.parametrize(
        "n, p, p_a, alpha_a, alpha_b",
        [
            (200, 0.2, 0.6, 0.3, 0.7),
            (200, 0.2, 0.6, 0.0, 1.0),
            (60, 0.3, 0.6, 1.0, 0.0),
            (7.5, 0.9, 0.55, 0.0, 0.0),
            (1e6, 0.2, 0.6, 0.5, 0.875),
        ],
    )
    def test_counts_equal_the_fresh_array_margin(self, n, p, p_a, alpha_a, alpha_b):
        # the margin built in place reads the same seeded draws in the same order
        params, s = ElectorateParams(n=n, p=p, p_a=p_a), StrategyPair(alpha_a, alpha_b)
        cfg = OracleConfig(trials=20_000, seed=8)
        margin = simulate_margin(params, s, cfg)
        w = simulate_election(params, s, cfg)
        counts = [int(np.count_nonzero(hit)) for hit in (margin > 0, margin == 0, margin < 0)]
        assert [w.n_a_wins, w.n_tie, w.n_b_wins] == counts
        assert w.pivot_a == 0.5 * ((counts[1] + int(np.count_nonzero(margin == -1))) / cfg.trials)
        assert w.pivot_b == 0.5 * ((counts[1] + int(np.count_nonzero(margin == 1))) / cfg.trials)

    def test_counts_below_the_int64_limit(self):
        params = ElectorateParams(n=1e18, p=0.5, p_a=0.9)
        w = simulate_election(params, StrategyPair(1.0, 1.0), OracleConfig(trials=10))
        assert (w.n_a_wins, w.n_tie, w.n_b_wins) == (10, 0, 0)


class TestPoissonEnvironmentPivot:
    def test_zero_means_exact_half(self):
        est = _poisson_pivot(0.0, 0.0, 0.0, 0.0, "A", OracleConfig(trials=500, seed=1))
        assert est.value == 0.5
        assert est.se == 0.0

    def test_matches_bruteforce(self):
        # params realizing means x_a=2, x_b=1, y_a=1, y_b=2
        params = ElectorateParams(n=12, p=0.25, p_a=2.0 / 3.0)
        s = StrategyPair(1.0 / 6.0, 2.0 / 3.0)
        assert params.x_a == pytest.approx(2.0)
        assert params.x_b == pytest.approx(1.0)
        cfg = OracleConfig(trials=1_000_000, seed=2024)
        for side in ("A", "B"):
            est = poisson_environment_pivot(params, s, side, cfg)
            brute = pivot_gain_bruteforce(2.0, 1.0, 1.0, 2.0, side)
            assert abs(est.value - brute.value) < 3.0 * est.se

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize(
        "n, p, p_a, alpha_a, alpha_b",
        [
            (12, 0.25, 2.0 / 3.0, 1.0 / 6.0, 2.0 / 3.0),
            (200, 0.2, 0.6, 0.3, 0.7),
            (1e6, 0.2, 0.6, 0.5, 0.875),
        ],
    )
    def test_equals_the_two_draw_reference(self, n, p, p_a, alpha_a, alpha_b, side):
        params, s = ElectorateParams(n=n, p=p, p_a=p_a), StrategyPair(alpha_a, alpha_b)
        cfg = OracleConfig(trials=20_000, seed=77)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        # A's total first, then B's, each one draw at its summed mean
        t_a = rng.poisson(params.x_a + params.m_a * alpha_a, cfg.trials)
        t_b = rng.poisson(params.x_b + params.m_b * alpha_b, cfg.trials)
        diff = (t_b - t_a) if side == "A" else (t_a - t_b)
        q = int(np.count_nonzero((diff == 0) | (diff == 1))) / cfg.trials
        est = poisson_environment_pivot(params, s, side, cfg)
        assert (est.value, est.se, est.trials) == (
            0.5 * q, 0.5 * math.sqrt(q * (1.0 - q) / cfg.trials), cfg.trials
        )

    def test_agrees_with_the_four_draw_estimator(self):
        # the same estimator over another stream: each electorate of the
        # verify grid at its own strategy pair and side, independent seeds
        points = itertools.product(VERIFY_GRID_N, VERIFY_GRID_P, VERIFY_GRID_PA)
        for k, (n, p, p_a) in enumerate(points):
            params = ElectorateParams(n=n, p=p, p_a=p_a)
            s = StrategyPair(VERIFY_GRID_ALPHA[k % 5], VERIFY_GRID_ALPHA[(2 * k + 1) % 5])
            side = "AB"[k % 2]
            new = poisson_environment_pivot(params, s, side, OracleConfig(trials=20_000, seed=k))
            y_a, y_b = params.m_a * s.alpha_a, params.m_b * s.alpha_b
            old_cfg = OracleConfig(trials=20_000, seed=1000 + k)
            old = four_draw_pivot(params.x_a, params.x_b, y_a, y_b, side, old_cfg)
            assert abs(new.value - old.value) <= 5.0 * math.hypot(new.se, old.se), (k, new, old)
        assert k == 35

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_far_apart_totals_read_zero(self, side):
        # A's total is about 1000 above B's: other - own is near -1000 for
        # side A, which wraps to a huge unsigned value, and near +1000 for B
        est = _poisson_pivot(1000.0, 1.0, 0.0, 0.0, side, OracleConfig(trials=10_000, seed=4))
        assert (est.value, est.se) == (0.0, 0.0)

    def test_rejects_unknown_side(self):
        params = ElectorateParams(n=50, p=0.2, p_a=0.6)
        with pytest.raises(DomainError) as err:
            poisson_environment_pivot(params, StrategyPair(0.3, 0.8), "C")
        assert str(err.value) == "side must be one of ('A', 'B'), got 'C'"

    def test_side_b_past_the_int64_limit(self):
        # side A's x_a + y_a stays below 2**62 here; side B's reaches it
        params = ElectorateParams(n=2e19, p=0.01, p_a=0.55)
        with pytest.raises(DomainError, match="^side B's expected vote count"):
            poisson_environment_pivot(params, StrategyPair(0.0, 1.0), "A", OracleConfig(trials=10))

    def test_matches_closed_form(self):
        params = ElectorateParams(n=50, p=0.2, p_a=0.6)
        s = StrategyPair(0.3, 0.8)
        cfg = OracleConfig(trials=1_000_000, seed=31)
        est_a = poisson_environment_pivot(params, s, "A", cfg)
        est_b = poisson_environment_pivot(params, s, "B", cfg)
        assert abs(est_a.value - r1_closed(params, s)) < 3.0 * est_a.se
        assert abs(est_b.value - r2_closed(params, s)) < 3.0 * est_b.se


class TestOracleConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            OracleConfig(tail_eps=0.0)
        with pytest.raises(DomainError):
            OracleConfig(tail_eps=math.nan)
        with pytest.raises(DomainError):
            OracleConfig(tail_eps=1e-3)
        with pytest.raises(DomainError):
            OracleConfig(trials=0)
        with pytest.raises(DomainError):
            OracleConfig(seed=-1)

    @pytest.mark.parametrize("tail_eps", [1e-17, 2.0**-54, 5e-324])
    def test_rejects_tail_eps_where_one_minus_it_is_one(self, tail_eps):
        assert 1.0 - tail_eps == 1.0
        with pytest.raises(DomainError, match="^tail_eps must be at least 5.551115123125784e-17"):
            OracleConfig(tail_eps=tail_eps)

    def test_smallest_tail_eps(self):
        cfg = OracleConfig(tail_eps=oracle.TAIL_EPS_MIN)
        assert 1.0 - cfg.tail_eps < 1.0
        gain = pivot_gain_bruteforce([1.8], [1.2], [[0.0, 0.7]], [[1.3]], ("A", "B"), cfg)
        assert len(gain.value) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 1.7},
            {"seed": -0.5},
            {"seed": 3.0},
            {"seed": True},
            {"seed": "7"},
            {"trials": 2.5},
            {"trials": 1000.0},
            {"trials": True},
        ],
    )
    def test_rejects_non_integer_trials_and_seed(self, kwargs):
        with pytest.raises(DomainError):
            OracleConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = OracleConfig(trials=np.int64(500), seed=np.uint64(2**64 - 1))
        assert simulate_election(
            ElectorateParams(n=30, p=0.3, p_a=0.6), StrategyPair(0.5, 0.5), cfg
        ).trials_used == 500
