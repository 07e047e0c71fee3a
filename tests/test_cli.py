"""CLI contract: schemas, determinism, exit codes, atomic output."""

import csv
import io
import json
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
    _csv_schema,
    _csv_text,
    _fmt_cell,
    _jsonable,
    execute,
    standard_verify_rows,
)
from votecost.equilibria import Equilibrium
from votecost.errors import ConvergenceError
from votecost.oracle import OracleConfig, pivot_gain_bruteforce
from votecost.pivot import ElectorateParams, thresholds
from votecost.regime import classify


EQUILIBRIUM_HEADER = ["kind", "alpha_a", "alpha_b", "z_root", "residual", "winner", "notes"]
EQUILIBRIUM_KEYS = ["kind", "strategies", "z_root", "residual", "winner", "notes"]

# a case-0 point where the (0, 1) corner is the only equilibrium
CORNER_SOLVE = ["solve", "--n", "7.720378020741096", "--p", "0.9914664648146816",
                "--pa", "0.6319540163784259", "--c", "0.12530346880670365"]


def run_cli(argv):
    status, text, _ = execute(argv)
    return status, text


class TestThresholdsVerb:
    def test_json_roundtrip(self):
        status, text = run_cli(["thresholds", "--n", "500", "--p", "0.2", "--pa", "0.6"])
        assert status == EXIT_OK
        doc = json.loads(text)
        assert doc["command"] == "thresholds"
        assert doc["version"]
        want = thresholds(ElectorateParams(n=500, p=0.2, p_a=0.6))
        assert doc["results"] == _jsonable(want)
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
        assert header == EQUILIBRIUM_HEADER
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
        assert doc["results"] == _jsonable(want)
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

    @pytest.mark.parametrize("n_min, n_max", [("nan", "100"), ("10", "inf"), ("100", "10")])
    def test_bad_population_range_is_validation_error(self, n_min, n_max):
        status, text = run_cli(
            ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", n_min,
             "--n-max", n_max, "--points", "3", "--format", "json"]
        )
        assert status == EXIT_VALIDATION
        assert "--n-max" in json.loads(text)["error"]["message"]

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

    def test_brute_force_matches_cold_memo(self):
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

    def test_matches_per_cell_rule(self):
        # floats as format(x, ".17g") prints them, every other cell as
        # csv.writer quotes it, except a bare \r: csv.writer quotes it from
        # Python 3.13 on, and the pinned text is its quoted form
        def cell(x):
            if isinstance(x, str) and "\r" in x:
                return "<cr>"
            return format(x, ".17g") if isinstance(x, float) else _fmt_cell(x)

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.HEADER)
        writer.writerows([[cell(x) for x in row] for row in self.ROWS])
        want = buf.getvalue().replace("<cr>", '"cr\rhere"')
        assert _csv_text(self.HEADER, self.ROWS) == want

    def test_one_column(self):
        # a lone empty cell is quoted, so it does not read as an empty row
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([[""], ["x"]])
        assert _csv_text([""], [["x"]]) == buf.getvalue() == '""\nx\n'

    def test_cells(self):
        header, *rows = csv.reader(io.StringIO(_csv_text(self.HEADER, self.ROWS)))
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

    def test_import_does_not_load_scipy_stats(self):
        # scipy.stats costs most of a cold import; the package needs only
        # scipy.special
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, votecost, votecost.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
