"""CLI contract: schemas, determinism, exit codes, atomic output."""

import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
from enum import Enum

import numpy as np
import pytest

from votecost.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    _csv_column,
    _csv_schema,
    _csv_text,
    _fmt_cell,
    _json_default,
    _json_text,
    execute,
    standard_verify_rows,
)
from votecost.equilibria import Equilibrium, EquilibriumKind, Winner
from votecost.errors import ConvergenceError
from votecost.oracle import OracleConfig, pivot_gain_bruteforce
from votecost.pivot import ElectorateParams, StrategyPair, r1_closed, r2_closed, thresholds
from votecost.regime import classify


EQUILIBRIUM_HEADER = ["kind", "alpha_a", "alpha_b", "z_root", "residual", "winner", "notes"]
EQUILIBRIUM_KEYS = ["kind", "strategies", "z_root", "residual", "winner", "notes"]

# a case-0 point where the (0, 1) corner is the only equilibrium
CORNER_SOLVE = ["solve", "--n", "7.720378020741096", "--p", "0.9914664648146816",
                "--pa", "0.6319540163784259", "--c", "0.12530346880670365"]


def run_cli(argv):
    status, text, _ = execute(argv)
    return status, text


def by_column(rows):
    # _csv_text takes the cells column by column
    return list(zip(*rows))


class TestThresholdsVerb:
    def test_json_roundtrip(self):
        status, text = run_cli(["thresholds", "--n", "500", "--p", "0.2", "--pa", "0.6"])
        assert status == EXIT_OK
        doc = json.loads(text)
        assert doc["command"] == "thresholds"
        assert doc["version"]
        want = thresholds(ElectorateParams(n=500, p=0.2, p_a=0.6))
        assert doc["results"] == json.loads(json.dumps(want, default=_json_default))
        # the log frontiers stay out of the default output
        assert list(doc["results"]) == [
            "ct_upper", "ct_lower", "pa_lower", "ps_lower", "ct_admissible"
        ]

    def test_csv_schema(self):
        status, text = run_cli(
            ["thresholds", "--n", "500", "--p", "0.2", "--pa", "0.6", "--format", "csv"]
        )
        assert status == EXIT_OK
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "p", "pa", "ct_upper", "ct_lower", "pa_lower", "ps_lower", "ct_admissible"]
        assert len(rows) == 2
        assert rows[1][-1] == "true"

    def test_validation_exit(self):
        status, text = run_cli(["thresholds", "--n", "500", "--p", "1.5", "--pa", "0.6"])
        assert status == EXIT_VALIDATION
        doc = json.loads(text)
        assert doc["error"]["type"] == "DomainError"


class TestSolveVerb:
    def test_solve_lists_equilibria(self):
        status, text = run_cli(
            ["solve", "--n", "1000", "--p", "0.2", "--pa", "0.6", "--c", "0.02"]
        )
        assert status == EXIT_OK
        doc = json.loads(text)
        kinds = [eq["kind"] for eq in doc["results"]]
        assert kinds == ["coin_toss", "partial_absenteeism", "no_queue"]
        for eq in doc["results"]:
            assert eq["residual"] < 1e-8
            assert list(eq) == EQUILIBRIUM_KEYS
            assert list(eq["strategies"]) == ["alpha_a", "alpha_b"]

    def test_csv_schema(self):
        status, text = run_cli(
            ["solve", "--n", "1000", "--p", "0.2", "--pa", "0.6", "--c", "0.02",
             "--format", "csv"]
        )
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == EQUILIBRIUM_HEADER
        assert len(rows) == 4

    def test_empty_result_keeps_header(self):
        # every cost has an equilibrium, so no solve prints an empty list
        header, _ = _csv_schema(Equilibrium)
        assert header == tuple(EQUILIBRIUM_HEADER)
        assert _csv_text(header, []) == ",".join(EQUILIBRIUM_HEADER) + "\n"

    def test_minority_swipe_row(self):
        status, text = run_cli(CORNER_SOLVE + ["--format", "csv"])
        assert status == EXIT_OK
        assert text.splitlines()[1:] == ["minority_swipe,0,1,,0,A,"]
        doc = json.loads(run_cli(CORNER_SOLVE)[1])
        assert doc["diagnostics"]["count"] == 1


class TestClassifyVerb:
    ARGV = ["classify", "--n", "500", "--p", "0.2", "--pa", "0.6", "--c", "0.028"]

    def test_report_roundtrip(self):
        status, text = run_cli(self.ARGV)
        assert status == EXIT_OK
        doc = json.loads(text)
        want = classify(ElectorateParams(n=500, p=0.2, p_a=0.6), 0.028)
        assert doc["results"] == json.loads(json.dumps(want, default=_json_default))
        assert doc["results"]["case_index"] == 2
        assert doc["results"]["avoid"] is True
        # dict equality ignores order; the key order is part of the output
        res = doc["results"]
        assert list(res) == ["case_index", "thresholds", "equilibria", "avoid", "notes"]
        for eq in res["equilibria"]:
            assert list(eq) == EQUILIBRIUM_KEYS

    def test_csv_schema(self):
        status, text = run_cli(self.ARGV + ["--format", "csv"])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["case_index", "avoid", *EQUILIBRIUM_HEADER]
        assert len(rows) == 4

    def test_far_electorate_elects_a(self):
        # both mixed roots round onto their interval ends here, so a margin
        # taken from them would read 0; the winner follows from the family
        argv = ["classify", "--n", "1e300", "--p", "0.5", "--pa", "0.6", "--c", "1e-300"]
        status, text = run_cli(argv)
        assert status == EXIT_OK
        res = json.loads(text)["results"]
        assert res["case_index"] == 3
        assert res["avoid"] is False
        assert [eq["kind"] for eq in res["equilibria"]] == [
            "partial_absenteeism", "no_queue", "partial_saturation"
        ]
        assert [eq["winner"] for eq in res["equilibria"]] == ["A"] * 3
        assert [eq["notes"] for eq in res["equilibria"]] == [[]] * 3


@pytest.mark.parametrize("verb", ["solve", "classify"])
@pytest.mark.parametrize("c", ["inf", "1e400"])
def test_infinite_cost_exit(verb, c):
    # 1e400 parses to inf; the error document is strict JSON, no Infinity
    status, text = run_cli([verb, "--n", "500", "--p", "0.2", "--pa", "0.6", "--c", c])
    assert status == EXIT_VALIDATION
    doc = json.loads(text, parse_constant=pytest.fail)
    assert doc["error"] == {"type": "DomainError", "message": "cost must be finite, got inf"}


class TestSweepVerb:
    def test_csv_schema_and_rows(self):
        status, text = run_cli(
            ["sweep", "--p", "0.01", "--pa", "0.75", "--n-min", "100",
             "--n-max", "100000", "--points", "12"]
        )
        assert status == EXIT_OK
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "ct_upper", "ct_lower", "pa_lower", "ps_lower"]
        assert len(rows) == 13
        for row in rows[1:]:
            assert all(float(x) >= 0.0 for x in row)

    def test_quantity_subset(self):
        status, text = run_cli(
            ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", "100",
             "--n-max", "1000", "--points", "5", "--quantities", "ct_upper,ct_lower"]
        )
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "ct_upper", "ct_lower"]

    def test_bad_quantity_is_validation_error(self):
        status, text = run_cli(
            ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", "100",
             "--n-max", "1000", "--points", "5", "--quantities", "nope",
             "--format", "json"]
        )
        assert status == EXIT_VALIDATION
        doc = json.loads(text)
        assert doc["error"]["type"] == "DomainError"
        assert "nope" in doc["error"]["message"]
        assert doc["params"] is None

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_repeated_quantity_is_validation_error(self, fmt):
        # the CSV used to print the column twice and the JSON once
        status, text = run_cli(
            ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", "100",
             "--n-max", "1000", "--points", "3", "--quantities", "ct_upper,ct_upper",
             "--format", fmt]
        )
        assert status == EXIT_VALIDATION
        message = "repeated sweep quantities: ['ct_upper']"
        if fmt == "json":
            doc = json.loads(text)
            assert doc["error"] == {"type": "DomainError", "message": message}
            assert doc["params"] is None
        else:
            assert text == f"error: DomainError: {message}\n"

    def test_empty_quantity_list_is_validation_error(self):
        # "," names no quantity once the empty names are dropped
        status, text = run_cli(
            ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", "100",
             "--n-max", "1000", "--points", "3", "--quantities", ",", "--format", "json"]
        )
        assert status == EXIT_VALIDATION
        doc = json.loads(text)
        assert doc["error"] == {"type": "DomainError", "message": "quantities must be nonempty"}

    @pytest.mark.parametrize("n_min, n_max", [("nan", "100"), ("10", "inf"), ("100", "10")])
    def test_bad_population_range_is_validation_error(self, n_min, n_max):
        status, text = run_cli(
            ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", n_min,
             "--n-max", n_max, "--points", "3", "--format", "json"]
        )
        assert status == EXIT_VALIDATION
        assert "--n-max" in json.loads(text)["error"]["message"]

    def test_underflowed_column_has_onset_zero(self):
        # pa_lower and ps_lower underflow to 0.0 on the whole grid; flat
        # zeros are the floor, not rises
        status, text = run_cli(
            ["sweep", "--p", "0.2", "--pa", "0.9", "--n-min", "1e5",
             "--n-max", "1e6", "--points", "4", "--format", "json"]
        )
        assert status == EXIT_OK
        results = json.loads(text)["results"]
        assert results["columns"]["pa_lower"] == results["columns"]["ps_lower"] == [0.0] * 4
        assert results["onset"] == {"ct_upper": 0, "ct_lower": 0, "pa_lower": 0, "ps_lower": 0}

    def test_deterministic_bytes(self):
        argv = ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", "100",
                "--n-max", "1000", "--points", "7"]
        assert run_cli(argv) == run_cli(argv)


class TestSimulateVerb:
    BASE = ["simulate", "--n", "200", "--p", "0.2", "--pa", "0.6",
            "--trials", "4000", "--seed", "42"]

    def test_explicit_strategy(self):
        status, text = run_cli(self.BASE + ["--alpha-a", "0.3", "--alpha-b", "0.7"])
        assert status == EXIT_OK
        doc = json.loads(text)
        res = doc["results"]
        assert res["n_a_wins"] + res["n_tie"] + res["n_b_wins"] == 4000
        assert list(res) == [
            "p_a_wins", "p_tie", "p_b_wins", "se_a_wins", "pivot_a", "se_pivot_a",
            "pivot_b", "se_pivot_b", "trials_used", "n_a_wins", "n_tie", "n_b_wins",
        ]
        assert doc["diagnostics"]["class_size_a"] == 96
        assert doc["diagnostics"]["class_size_b"] == 64

    def test_solved_kind_strategy(self):
        status, text = run_cli(self.BASE + ["--kind", "coin_toss", "--c", "0.045"])
        assert status == EXIT_OK
        doc = json.loads(text)
        assert doc["diagnostics"]["strategy_source"] == "solved coin_toss"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_two_roots_of_the_kind_take_the_smaller(self, fmt):
        # c above ct_upper (0.036380) and below the peak of h(x_a, .)
        # (0.036533): absenteeism roots at z = 58.53 and 59.46
        argv = ["simulate", "--n", "500", "--p", "0.2", "--pa", "0.6", "--trials", "4000",
                "--seed", "42", "--kind", "partial_absenteeism", "--c", "0.0365",
                "--format", fmt]
        status, text = run_cli(argv)
        assert status == EXIT_OK
        if fmt == "json":
            diag = json.loads(text)["diagnostics"]
            assert diag["solved_count"] == 2
            assert diag["note"] == (
                "multiple equilibria of this kind; using the one with smallest z_root"
            )
            alpha_b = diag["alpha_b"]
        else:
            alpha_b = float(next(csv.DictReader(io.StringIO(text)))["alpha_b"])
        assert alpha_b == 0.11582110539630572

    def test_missing_kind_cost_is_validation_error(self):
        status, text = run_cli(self.BASE + ["--kind", "coin_toss"])
        assert status == EXIT_VALIDATION

    def test_absent_kind_is_validation_error(self):
        status, text = run_cli(self.BASE + ["--kind", "coin_toss", "--c", "0.4"])
        assert status == EXIT_VALIDATION
        assert "no coin_toss equilibrium" in json.loads(text)["error"]["message"]

    def test_half_alpha_pair_is_validation_error(self):
        status, _ = run_cli(self.BASE + ["--alpha-a", "0.3"])
        assert status == EXIT_VALIDATION

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "extra", [["--c", "nan"], ["--c", "0.045"], ["--kind", "coin_toss"],
                  ["--kind", "coin_toss", "--c", "0.045"]]
    )
    def test_kind_or_cost_with_explicit_pair_is_validation_error(self, extra, fmt):
        # an explicit pair fixes the strategies; --kind and --c would be ignored
        argv = [*self.BASE, "--alpha-a", "0.5", "--alpha-b", "0.5", *extra, "--format", fmt]
        status, text = run_cli(argv)
        assert status == EXIT_VALIDATION
        want = "--kind and --c do not apply to an explicit --alpha-a/--alpha-b pair"
        if fmt == "json":
            error = json.loads(text)["error"]
            assert error["type"] == "DomainError" and error["message"] == want
        else:
            assert text == f"error: DomainError: {want}\n"

    def test_oracle_config_error_reports_params(self):
        argv = ["simulate", "--n", "200", "--p", "0.2", "--pa", "0.6",
                "--seed", "-1", "--alpha-a", "0.3", "--alpha-b", "0.7"]
        status, text = run_cli(argv)
        assert status == EXIT_VALIDATION
        doc = json.loads(text)
        assert doc["error"]["type"] == "DomainError"
        assert "seed" in doc["error"]["message"]
        assert doc["params"] == {"n": 200.0, "p": 0.2, "p_a": 0.6}

    def test_deterministic_bytes(self):
        argv = self.BASE + ["--alpha-a", "0.3", "--alpha-b", "0.7"]
        assert run_cli(argv) == run_cli(argv)

    @pytest.mark.parametrize(
        "electorate",
        [
            ["--n", "1.5e19", "--p", "0.5", "--pa", "0.9", "--alpha-a", "1", "--alpha-b", "1"],
            ["--n", "1e20", "--p", "1e-15", "--pa", "0.6", "--alpha-a", "0.5", "--alpha-b", "0.5"],
            ["--n", "1e30", "--p", "0.5", "--pa", "0.6", "--alpha-a", "0.5", "--alpha-b", "0.5"],
        ],
    )
    def test_counts_past_the_int64_limit_are_validation_errors(self, electorate):
        status, text = run_cli(["simulate", *electorate, "--trials", "10"])
        assert status == EXIT_VALIDATION
        error = json.loads(text)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].endswith("reaches the simulation limit 2**62")

    def test_counts_below_the_int64_limit(self):
        argv = ["simulate", "--n", "1e18", "--p", "0.5", "--pa", "0.9", "--alpha-a", "1",
                "--alpha-b", "1", "--trials", "10", "--format", "csv"]
        assert run_cli(argv) == (EXIT_OK, (
            "trials,seed,alpha_a,alpha_b,p_a_wins,se_a_wins,p_tie,p_b_wins,pivot_a,"
            "se_pivot_a,pivot_b,se_pivot_b,n_a_wins,n_tie,n_b_wins\n"
            "10,20240717,1,1,1,0,0,0,0,0,0,0,10,0,0\n"
        ))

    def test_csv_schema(self):
        argv = self.BASE + ["--alpha-a", "0.3", "--alpha-b", "0.7", "--format", "csv"]
        rows = list(csv.reader(io.StringIO(run_cli(argv)[1])))
        assert rows[0] == [
            "trials", "seed", "alpha_a", "alpha_b", "p_a_wins", "se_a_wins", "p_tie",
            "p_b_wins", "pivot_a", "se_pivot_a", "pivot_b", "se_pivot_b",
            "n_a_wins", "n_tie", "n_b_wins",
        ]
        assert len(rows) == 2


class TestVerifyVerb:
    def test_passes_default_grid(self):
        status, text = run_cli(["verify"])
        assert status == EXIT_OK
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "p", "pa", "alpha_a", "alpha_b", "side",
                           "closed_form", "brute_force", "abs_error", "error_bound"]
        assert len(rows) == 1 + 1800

    def test_deterministic_bytes(self):
        assert run_cli(["verify"]) == run_cli(["verify"])

    def test_json_row_keys_match_csv_header(self):
        _, text = run_cli(["verify"])
        header = next(csv.reader(io.StringIO(text)))
        _, text = run_cli(["verify", "--format", "json"])
        rows = json.loads(text)["results"]["rows"]
        assert len(rows) == 1800
        assert all(list(row) == header for row in rows)

    def test_brute_force_matches_scalar_calls(self):
        # one call per electorate gives, bit for bit, what each row's
        # scalar call gives on its own
        cfg = OracleConfig()
        rows = standard_verify_rows(cfg)
        assert len(rows) == 1800
        for row in rows:
            params = ElectorateParams(n=row.n, p=row.p, p_a=row.pa)
            y_a = params.m_a * row.alpha_a
            y_b = params.m_b * row.alpha_b
            cold = pivot_gain_bruteforce(params.x_a, params.x_b, y_a, y_b, row.side, cfg)
            assert row.brute_force == cold.value, row

    def test_closed_forms_match_scalar_calls(self):
        # each row holds the scalar gain of its own strategy pair and side
        for row in standard_verify_rows(OracleConfig()):
            params = ElectorateParams(n=row.n, p=row.p, p_a=row.pa)
            s = StrategyPair(row.alpha_a, row.alpha_b)
            closed = r1_closed if row.side == "A" else r2_closed
            assert row.closed_form == closed(params, s), row

    def test_tail_eps_where_one_minus_it_is_one(self):
        # 1 - 1e-17 rounds to 1.0, which has no finite Poisson index
        status, text = run_cli(["verify", "--tail-eps", "1e-17", "--format", "json"])
        assert status == EXIT_VALIDATION
        doc = json.loads(text)
        assert doc["error"]["type"] == "DomainError"
        assert doc["error"]["message"].startswith("tail_eps must be at least ")

    def test_tolerance_breach_exit(self):
        status, text = run_cli(["verify", "--tol", "1e-30", "--format", "json"])
        assert status == EXIT_TOLERANCE
        doc = json.loads(text)
        assert doc["results"]["pass"] is False

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_not_finite_positive_is_validation_error(self, tol):
        status, text = run_cli(["verify", "--tol", tol, "--format", "json"])
        assert status == EXIT_VALIDATION
        doc = json.loads(text, parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))
        assert doc["error"]["type"] == "DomainError"
        assert "--tol" in doc["error"]["message"]


class TestJsonable:
    def test_scalars_pass_and_str_enums_unwrap(self):
        # json prints these itself, without the hook: scalars as they are,
        # a str-based Enum as its plain value, np.float64 as a number and a
        # tuple as a list
        values = [1.5, -0.0, 3, "A", True, None, Winner.A, EquilibriumKind.COIN_TOSS,
                  np.float64(0.25), (Winner.A,)]
        hooked = []
        json.dumps(values, default=hooked.append)
        assert hooked == []
        text = _json_text("solve", None, results=values)
        assert '"results": [\n    1.5,\n    -0.0,\n    3,\n    "A",' in text
        assert json.loads(text)["results"] == [
            1.5, -0.0, 3, "A", True, None, "A", "coin_toss", 0.25, ["A"]
        ]

    def test_hook_takes_dataclasses_and_arrays_only(self):
        params = ElectorateParams(n=500, p=0.2, p_a=0.6)
        assert _json_default(params) == {"n": 500, "p": 0.2, "p_a": 0.6}
        # the logs, hidden from repr, stay out
        assert list(_json_default(thresholds(params))) == [
            "ct_upper", "ct_lower", "pa_lower", "ps_lower", "ct_admissible"
        ]
        assert _json_default(np.array([0.5, 2.0])) == [0.5, 2.0]
        with pytest.raises(TypeError):
            _json_default(object())


class Shade(Enum):
    DARK = "dark"


class TestCsvText:
    HEADER = ["signed_zero", "one", "extreme", "other", "text"]
    # equal values of other types or signs follow a formatted float in
    # each column, so a memo keyed on the value alone misprints them; the
    # last column holds every character that needs quotes
    ROWS = [
        [0.0, 1.0, float("nan"), np.float64(0.1), "a,b"],
        [-0.0, True, float("inf"), None, 'say "hi"'],
        [0.0, 1, float("-inf"), Shade.DARK, "two\nlines"],
        [-0.0, 1.0, 5e-324, ("a,b", "c"), "cr\rhere"],
        [0.0, True, 1e308, np.float64(-0.0), ""],
        [-0.0, 1, 5e-324, 0.1, "plain"],
    ]

    # one type per column, so each column takes its own path through the
    # writer: plain floats (0.0 before -0.0, one NaN object twice and
    # another NaN, both infinities), str, bool, None and np.float64
    NAN = float("nan")
    TYPED_HEADER = ["float", "text", "flag", "none", "np_float"]
    TYPED_ROWS = [
        [0.0, "a,b", True, None, np.float64(0.1)],
        [-0.0, 'say "hi"', False, None, np.float64(-0.0)],
        [NAN, "two\nlines", True, None, np.float64(0.0)],
        [math.inf, "cr\rhere", False, None, np.float64("nan")],
        [NAN, "", True, None, np.float64(0.1)],
        [-math.inf, "plain", False, None, np.float64(-np.inf)],
        [float("nan"), "plain", True, None, np.float64(5e-324)],
        [0.1, ",", False, None, np.float64(0.1)],
        [5e-324, '"', True, None, np.float64(1e308)],
        [0.1, "\r", False, None, np.float64(0.0)],
        [-0.0, "a,b", True, None, np.float64(-0.0)],
    ]

    @staticmethod
    def per_cell(header, rows):
        # floats as format(x, ".17g") prints them, every other cell as
        # csv.writer quotes it, except a bare \r: csv.writer quotes it from
        # Python 3.13 on, and the pinned text is its quoted form
        crs = []

        def cell(x):
            if isinstance(x, str) and "\r" in x:
                crs.append(x)
                return f"<cr{len(crs)}>"
            return format(x, ".17g") if isinstance(x, float) else _fmt_cell(x)

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([[cell(x) for x in row] for row in rows])
        text = buf.getvalue()
        for k, cr in enumerate(crs, 1):
            text = text.replace(f"<cr{k}>", '"' + cr.replace('"', '""') + '"', 1)
        return text

    def test_matches_per_cell_rule(self):
        want = self.per_cell(self.HEADER, self.ROWS)
        assert _csv_text(self.HEADER, by_column(self.ROWS)) == want

    @staticmethod
    def long_floats():
        # a float column at verify's scale: 2,400 cells of about 600
        # distinct values, each repeated, with 0.0 before -0.0, two
        # distinct NaN objects, both infinities and subnormals
        rng = np.random.default_rng(20240717)
        magnitudes = 10.0 ** rng.uniform(-320.0, 308.0, size=590)
        values = (magnitudes * rng.choice([-1.0, 1.0], size=590)).tolist()
        values += [0.0, -0.0, float("nan"), float("nan"), math.inf, -math.inf,
                   5e-324, -5e-324, 2.5e-310, 1e-300]
        cells = [values[k] for k in rng.integers(0, len(values), size=2390).tolist()]
        return [0.0, -0.0, *values[-8:], *cells]

    def test_typed_columns_match_per_cell_rule(self):
        want = self.per_cell(self.TYPED_HEADER, self.TYPED_ROWS)
        assert _csv_text(self.TYPED_HEADER, by_column(self.TYPED_ROWS)) == want
        columns = list(zip(*csv.reader(io.StringIO(want))))
        assert columns[0][1:4] == ("0", "-0", "nan")
        assert columns[1][4] == "cr\rhere"

        cells = self.long_floats()
        assert len(cells) >= 2000 and len(set(cells)) < len(cells) / 2
        rows = [[x, k] for k, x in enumerate(cells)]
        want = self.per_cell(["float", "index"], rows)
        assert _csv_text(["float", "index"], by_column(rows)) == want
        column = [line.split(",")[0] for line in want.splitlines()[1:]]
        assert column[:10] == ["0", "-0", "nan", "nan", "inf", "-inf",
                               "4.9406564584124654e-324", "-4.9406564584124654e-324",
                               "2.5000000000000171e-310", "1e-300"]

    @staticmethod
    def distinct_floats():
        # mostly distinct, as verify's closed_form and brute_force columns:
        # 0.0 before -0.0, two NaN objects, one of them twice, both
        # infinities and subnormals among 600 random values
        rng = np.random.default_rng(20240718)
        magnitudes = 10.0 ** rng.uniform(-320.0, 308.0, size=600)
        values = (magnitudes * rng.choice([-1.0, 1.0], size=600)).tolist()
        nan = float("nan")
        values += [0.0, -0.0, nan, float("nan"), nan, math.inf, -math.inf,
                   5e-324, -5e-324, 2.5e-310, -0.0, 0.0]
        return [values[k] for k in rng.permutation(len(values)).tolist()]

    def test_float_column_cells(self):
        # each cell prints as "%.17g" % x alone, on both sides of the
        # half-distinct line that picks between the two ways of formatting
        distinct = self.distinct_floats()
        repeated = self.long_floats()
        assert 2 * len(set(distinct)) > len(distinct)
        assert 2 * len(set(repeated)) <= len(repeated)
        half = [0.0, -0.0, 1.0, 1.0]
        for cells in (distinct, repeated, half, half[1:], [-0.0], [5e-324, 5e-324]):
            assert _csv_column(tuple(cells)) == ["%.17g" % x for x in cells], cells[:4]

    @pytest.mark.parametrize("header", [TYPED_HEADER, HEADER, [""]])
    def test_zero_rows(self, header):
        assert _csv_text(header, []) == self.per_cell(header, [])

    def test_one_column(self):
        # a lone empty cell is quoted, so it does not read as an empty row
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([[""], ["x"]])
        assert _csv_text([""], [["x"]]) == buf.getvalue() == '""\nx\n'

    def test_cells(self):
        header, *rows = csv.reader(io.StringIO(_csv_text(self.HEADER, by_column(self.ROWS))))
        assert header == self.HEADER
        columns = list(zip(*rows))
        assert columns[0] == ("0", "-0", "0", "-0", "0", "-0")
        assert columns[1] == ("1", "true", "1", "1", "true", "1")
        assert columns[2] == ("nan", "inf", "-inf", "4.9406564584124654e-324", "1e+308",
                              "4.9406564584124654e-324")
        assert columns[3] == ("0.10000000000000001", "", "dark", "a,b;c", "-0",
                              "0.10000000000000001")
        assert columns[4] == ("a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain")


class TestOutputFile:
    def test_atomic_write(self, tmp_path):
        out = tmp_path / "table.csv"
        status, text = run_cli(
            ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", "100",
             "--n-max", "1000", "--points", "5", "--out", str(out)]
        )
        assert status == EXIT_OK
        assert out.read_text() == text
        leftovers = [p for p in os.listdir(tmp_path) if p != "table.csv"]
        assert leftovers == []

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask_022", "umask_077"]
    )
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        out = tmp_path / "table.json"
        argv = ["thresholds", "--n", "500", "--p", "0.2", "--pa", "0.6", "--out", str(out)]
        saved = os.umask(umask)
        try:
            status, _ = run_cli(argv)
        finally:
            os.umask(saved)
        assert status == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_missing_directory_names_the_given_path(self, tmp_path):
        out = tmp_path / "missing" / "table.json"
        argv = ["thresholds", "--n", "500", "--p", "0.2", "--pa", "0.6", "--out", str(out)]
        first, second = run_cli(argv), run_cli(argv)
        assert first == second
        status, text = first
        assert status == EXIT_VALIDATION
        message = json.loads(text)["error"]["message"]
        assert str(out) in message
        assert ".votecost-" not in text

    def test_failed_replace_removes_the_temp_file(self, tmp_path):
        # os.replace cannot put a file over a directory; that fails after
        # the temp file beside it is written, which must then be removed
        out = tmp_path / "taken"
        out.mkdir()
        argv = ["thresholds", "--n", "500", "--p", "0.2", "--pa", "0.6", "--out", str(out)]
        status, text = run_cli(argv)
        assert status == EXIT_VALIDATION
        assert str(out) in json.loads(text)["error"]["message"]
        assert ".votecost-" not in text
        assert os.listdir(tmp_path) == ["taken"]
        assert os.listdir(out) == []

    def test_seventeen_significant_digits(self):
        status, text = run_cli(
            ["thresholds", "--n", "500", "--p", "0.2", "--pa", "0.6", "--format", "csv"]
        )
        rows = list(csv.reader(io.StringIO(text)))
        ct_upper = float(rows[1][3])
        want = thresholds(ElectorateParams(n=500, p=0.2, p_a=0.6)).ct_upper
        assert ct_upper == want  # 17 significant digits round-trip


class TestExitCodeMapping:
    def test_convergence_maps_to_exit_three(self, monkeypatch):
        def stalled(params, c):
            raise ConvergenceError("stalled")

        monkeypatch.setattr("votecost.cli.enumerate_equilibria", stalled)
        status, text = run_cli(
            ["solve", "--n", "500", "--p", "0.2", "--pa", "0.6", "--c", "0.02"]
        )
        assert status == EXIT_NO_CONVERGENCE
        doc = json.loads(text)
        assert doc["error"] == {"type": "ConvergenceError", "message": "stalled"}
        assert doc["params"] == {"n": 500.0, "p": 0.2, "p_a": 0.6}


class TestEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "votecost.cli", "thresholds",
             "--n", "100", "--p", "0.3", "--pa", "0.6"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["command"] == "thresholds"

    def test_argparse_validation_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "votecost.cli", "solve", "--n", "100"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_VALIDATION

    @pytest.fixture(scope="class")
    def loaded_by_import(self):
        # the modules a cold import of the package and its CLI loads, in
        # one fresh interpreter
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, votecost, votecost.cli; print(*sys.modules, sep='\\n')"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_import_does_not_load_scipy_stats(self, loaded_by_import):
        # scipy.stats costs most of a cold import; the package needs only
        # scipy.special
        assert "votecost.cli" in loaded_by_import
        assert "scipy.stats" not in loaded_by_import

    def test_import_does_not_load_scipy_optimize(self, loaded_by_import):
        # scipy.optimize would add ~0.3 s to every CLI call, which is why
        # equilibria._rtsafe is written out rather than taken from it
        assert "votecost.cli" in loaded_by_import
        assert "scipy.optimize" not in loaded_by_import
