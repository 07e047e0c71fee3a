"""Hash what the command line prints, one line per invocation.

Run from a checkout (not collected by pytest):

    python tests/cli_bytes.py                      # this checkout's src/
    python tests/cli_bytes.py --src OTHER/src      # another checkout's

Each invocation goes through ``votecost.cli.main`` in process, with the
working directory set to a fresh temporary directory so that relative
``--out`` paths print the same bytes on every run.  The line printed is

    <sha256 of (exit status, stdout, stderr, --out file)>  <label>

where the ``--out`` file is empty when absent.  Two checkouts whose
command lines agree print identical lines, so ``diff`` of the two
outputs lists the invocations whose bytes changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ELECTORATE = ["--n", "500", "--p", "0.2", "--pa", "0.6"]
SIM = ["simulate", "--n", "200", "--p", "0.2", "--pa", "0.6", "--trials", "4000", "--seed", "42"]
# expected totals tie at alphas 0.5 and 0.875: 120000 + 240000 = 80000 + 280000
SIM_1E6 = ["simulate", "--n", "1e6", *SIM[3:]]
SWEEP = ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", "100", "--n-max", "1000"]

# (label, argv, --out path relative to the working directory or None)
INVOCATIONS = [
    ("thresholds json", ["thresholds", *ELECTORATE], None),
    ("thresholds csv", ["thresholds", *ELECTORATE, "--format", "csv"], None),
    ("thresholds bad p", ["thresholds", "--n", "500", "--p", "1.5", "--pa", "0.6"], None),
    ("thresholds bad p csv", ["thresholds", "--n", "500", "--p", "1.5", "--pa", "0.6",
                              "--format", "csv"], None),
    ("thresholds bad n", ["thresholds", "--n", "-1", "--p", "0.2", "--pa", "0.6"], None),
    # n that is not finite: errors.finite_real, ahead of the range test
    ("thresholds n inf", ["thresholds", "--n", "inf", "--p", "0.2", "--pa", "0.6"], None),
    ("thresholds n nan csv", ["thresholds", "--n", "nan", "--p", "0.2", "--pa", "0.6",
                              "--format", "csv"], None),
    # ElectorateParams' message prints the four means: x_b underflows to
    # 0.0 (JSON), and x_a and x_b round to the same subnormal (CSV)
    ("thresholds means underflow", ["thresholds", "--n", "1", "--p", "5e-324",
                                    "--pa", "0.9"], None),
    ("thresholds means tie csv", ["thresholds", "--n", "10", "--p", "5e-324",
                                  "--pa", "0.53125", "--format", "csv"], None),
    ("thresholds out", ["thresholds", *ELECTORATE], "t.json"),
    ("solve json", ["solve", "--n", "1000", "--p", "0.2", "--pa", "0.6", "--c", "0.02"], None),
    ("solve csv", ["solve", "--n", "1000", "--p", "0.2", "--pa", "0.6", "--c", "0.02",
                   "--format", "csv"], None),
    ("solve corner only", ["solve", "--n", "7.720378020741096", "--p", "0.9914664648146816",
                           "--pa", "0.6319540163784259", "--c", "0.12530346880670365"], None),
    # above 1/2 the coin toss has no window, and no solver raises
    ("solve cost above one half", ["solve", *ELECTORATE, "--c", "0.75"], None),
    # exactly on the peak of h(x_a, .): the peak is the absenteeism root
    ("solve on absenteeism peak", ["solve", *ELECTORATE, "--c", "0.03653314903180234"], None),
    ("solve bad c", ["solve", *ELECTORATE, "--c", "-0.1"], None),
    ("solve bad c csv", ["solve", *ELECTORATE, "--c", "-0.1", "--format", "csv"], None),
    ("classify json", ["classify", *ELECTORATE, "--c", "0.028"], None),
    ("classify csv", ["classify", *ELECTORATE, "--c", "0.028", "--format", "csv"], None),
    ("classify case 1", ["classify", *ELECTORATE, "--c", "0.3"], None),
    ("classify bad c", ["classify", *ELECTORATE, "--c", "0"], None),
    ("classify bad pa", ["classify", "--n", "500", "--p", "0.2", "--pa", "0.4",
                         "--c", "0.1"], None),
    ("classify out csv", ["classify", *ELECTORATE, "--c", "0.028", "--format", "csv"], "c.csv"),
    # a cost on ct_lower (a note, and the cases 2 and 3 both fit), one on
    # pa_lower (case 3 without its absenteeism root), and a case 0 whose
    # only equilibrium is the (0, 1) corner
    ("classify on ct_lower", ["classify", *ELECTORATE, "--c", "0.01994087762042176"], None),
    ("classify on pa_lower", ["classify", *ELECTORATE, "--c", "0.005935692821050649"], None),
    ("classify case 0 minority swipe", ["classify", "--n", "7.720378020741096",
                                        "--p", "0.9914664648146816",
                                        "--pa", "0.6319540163784259",
                                        "--c", "0.12530346880670365"], None),
    # ct_upper within EPS_CMP of 1/2: a cost of 1/2 is on it, a coin toss
    ("classify half cost on window edge", ["classify", "--n", "0.01", "--p", "2e-12",
                                           "--pa", "0.6", "--c", "0.5"], None),
    # case 3 at Bessel arguments near 1e6: absenteeism and saturation roots
    # near z = 5.6e5 and 2.1e6, subnormal residuals, and pa_lower and
    # ps_lower underflowed
    ("classify large n tiny cost", ["classify", "--n", "5e6", "--p", "0.2", "--pa", "0.6",
                                    "--c", "1e-300"], None),
    ("sweep csv", [*SWEEP, "--points", "7"], None),
    ("sweep json", [*SWEEP, "--points", "7", "--format", "json"], None),
    ("sweep one point", [*SWEEP, "--points", "1"], None),
    ("sweep subset", [*SWEEP, "--points", "5", "--quantities", "ct_upper,ct_lower"], None),
    ("sweep bad quantity", [*SWEEP, "--points", "5", "--quantities", "nope"], None),
    ("sweep bad quantity json", [*SWEEP, "--points", "5", "--quantities", "nope",
                                 "--format", "json"], None),
    # "," names no quantity once the empty names are dropped
    ("sweep empty quantities", [*SWEEP, "--points", "5", "--quantities", ","], None),
    ("sweep zero points", [*SWEEP, "--points", "0", "--format", "json"], None),
    ("sweep reversed range", ["sweep", "--p", "0.2", "--pa", "0.6", "--n-min", "1000",
                              "--n-max", "100", "--points", "5"], None),
    ("sweep bad p", ["sweep", "--p", "2", "--pa", "0.6", "--n-min", "100",
                     "--n-max", "1000", "--points", "5", "--format", "json"], None),
    ("sweep out", [*SWEEP, "--points", "5"], "s.csv"),
    ("verify csv", ["verify"], None),
    ("verify json", ["verify", "--format", "json"], None),
    ("verify tolerance breach", ["verify", "--tol", "1e-30", "--format", "json"], None),
    # exit 4 with the whole table printed: CSV goes to stdout, not stderr
    ("verify tolerance breach csv", ["verify", "--tol", "1e-30"], None),
    # the longest totals (CSV) and the shortest, past the tolerance (exit 4)
    ("verify tail-eps 2e-16", ["verify", "--tail-eps", "2e-16"], None),
    ("verify tail-eps 1e-7 json", ["verify", "--tail-eps", "1e-7", "--format", "json"], None),
    ("verify bad tail-eps", ["verify", "--tail-eps", "0"], None),
    ("verify bad tail-eps json", ["verify", "--tail-eps", "0", "--format", "json"], None),
    ("verify nan tail-eps", ["verify", "--tail-eps", "nan"], None),
    ("verify out", ["verify"], "v.csv"),
    ("simulate explicit", [*SIM, "--alpha-a", "0.3", "--alpha-b", "0.7"], None),
    ("simulate explicit csv", [*SIM, "--alpha-a", "0.3", "--alpha-b", "0.7",
                               "--format", "csv"], None),
    # the margin at both degenerate binomials, and at large means, where
    # numpy samples the Poisson and binomial counts by rejection
    ("simulate alpha 0 and 1", [*SIM, "--alpha-a", "0", "--alpha-b", "1"], None),
    ("simulate n 1e6", [*SIM_1E6, "--alpha-a", "0.5", "--alpha-b", "0.875"], None),
    ("simulate default trials and seed", ["simulate", "--n", "50", "--p", "0.2", "--pa", "0.6",
                                          "--alpha-a", "0.5", "--alpha-b", "0.5"], None),
    ("simulate solved kind", [*SIM, "--kind", "coin_toss", "--c", "0.045"], None),
    # c between ct_upper and the absenteeism peak: two roots, the note, and
    # the smaller root simulated
    ("simulate kind with two roots", ["simulate", *ELECTORATE, "--trials", "4000", "--seed", "42",
                                      "--kind", "partial_absenteeism", "--c", "0.0365"], None),
    ("simulate kind without c", [*SIM, "--kind", "coin_toss"], None),
    ("simulate absent kind", [*SIM, "--kind", "coin_toss", "--c", "0.4"], None),
    ("simulate half pair", [*SIM, "--alpha-a", "0.3"], None),
    ("simulate no strategy", SIM, None),
    ("simulate bad alpha", [*SIM, "--alpha-a", "1.3", "--alpha-b", "0.5"], None),
    ("simulate nan alpha", [*SIM, "--alpha-a", "nan", "--alpha-b", "0.5"], None),
    ("simulate zero trials", ["simulate", "--n", "200", "--p", "0.2", "--pa", "0.6",
                              "--trials", "0", "--alpha-a", "0.3", "--alpha-b", "0.7"], None),
    ("simulate negative seed", ["simulate", "--n", "200", "--p", "0.2", "--pa", "0.6",
                                "--seed", "-1", "--alpha-a", "0.3", "--alpha-b", "0.7"], None),
    ("simulate out", [*SIM, "--alpha-a", "0.3", "--alpha-b", "0.7"], "m.json"),
    ("out into missing directory", ["thresholds", *ELECTORATE], "missing-dir/t.json"),
    ("argparse missing flag", ["solve", "--n", "100"], None),
    ("argparse bad choice", [*SIM, "--kind", "nope"], None),
    ("version", ["--version"], None),
]


def _digest(main, argv: list[str], out: str | None) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    if out is not None:
        argv = [*argv, "--out", out]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse errors and --version
            status = exc.code
    written = Path(out).read_text() if out is not None and Path(out).exists() else ""
    blob = "\0".join([str(status), stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parents[1] / "src"),
        help="directory holding the votecost package (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from votecost.cli import main as cli_main

    home = os.getcwd()
    for label, cli_argv, out in INVOCATIONS:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                digest = _digest(cli_main, cli_argv, out)
            finally:
                os.chdir(home)
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
