"""Command-line front end emitting JSON or CSV.

Verbs: thresholds, solve, classify, sweep, verify, simulate.  Flags,
output, exit codes and the CSV rules: README, "Command line" and
"Numerical notes".  Each verb's runner returns its CSV cells column by
column; ``run`` turns every validation error into an error payload.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, get_type_hints

import numpy as np

from . import __version__
from .equilibria import Equilibrium, EquilibriumKind, enumerate_equilibria
from .errors import ConvergenceError, DomainError, TruncationLimitError
from .oracle import (
    DEFAULT_ORACLE_CONFIG,
    OracleConfig,
    class_sizes,
    pivot_gain_bruteforce,
    simulate_election,
)
from .pivot import ElectorateParams, StrategyPair, ThresholdSet, _group_means, _h_list, thresholds
# not called here: kept only for bench/tracing.py, which wraps them in this module
from .pivot import r1_closed, r2_closed  # noqa: F401
from .regime import THRESHOLD_NAMES, CASE_DESCRIPTIONS, SweepSpec, classify, sweep_bounds

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_TOLERANCE = 4

# Acceptance grid for `verify`: small electorates whose quadruple sums are
# cheap, crossed with the corners and midpoints of the strategy square.
VERIFY_GRID_N = (5.0, 10.0, 20.0, 40.0)
VERIFY_GRID_P = (0.1, 0.3, 0.5)
VERIFY_GRID_PA = (0.55, 0.7, 0.9)
VERIFY_GRID_ALPHA = (0.0, 0.25, 0.5, 0.75, 1.0)

# simulate's CSV order is not WinStats' field order, which is its JSON key
# order; deriving either from the other would change the output bytes
SIMULATE_COLUMNS = (
    "trials", "seed", "alpha_a", "alpha_b",
    "p_a_wins", "se_a_wins", "p_tie", "p_b_wins",
    "pivot_a", "se_pivot_a", "pivot_b", "se_pivot_b",
    "n_a_wins", "n_tie", "n_b_wins",
)

# classify writes one row per equilibrium, prefixed by the report-level
# values that hold for every row; the rest of the report (thresholds,
# notes) stays in the JSON output
CLASSIFY_PREFIX = ("case_index", "avoid")

# CSV names that differ from the field name (the --pa flag)
_COLUMN_RENAMES = {"p_a": "pa"}


@functools.cache
def _repr_fields(cls: type) -> tuple[str, ...]:
    """The fields of dataclass ``cls`` that JSON and CSV print: those its repr shows."""
    return tuple(f.name for f in fields(cls) if f.repr)


def _json_default(obj: Any) -> Any:
    """The ``json.dumps`` hook: a dataclass's repr fields, an array's list.

    Any other object that ``json`` cannot print raises ``TypeError``.
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return {name: getattr(obj, name) for name in _repr_fields(type(obj))}


def _flat_fields(cls: type, prefix: str = "") -> list[tuple[str, str]]:
    """(CSV column, dotted attribute path) per repr field of ``cls``.

    Fields come in declaration order; a field holding a dataclass
    expands in place into its own fields (``Equilibrium.strategies``
    becomes ``alpha_a, alpha_b``).  The field types come from
    ``get_type_hints`` because the modules postpone annotations.
    """
    hints = get_type_hints(cls)
    flat = []
    for name in _repr_fields(cls):
        if is_dataclass(hints[name]):
            flat += _flat_fields(hints[name], f"{prefix}{name}.")
        else:
            flat.append((_COLUMN_RENAMES.get(name, name), prefix + name))
    return flat


@functools.cache
def _csv_schema(cls: type) -> tuple[tuple[str, ...], Callable[[Any], tuple]]:
    """The CSV header of ``cls`` and a getter of one instance's cells, in order.

    Cached per class, as ``get_type_hints`` takes ~0.1 ms; the header is
    a tuple, so no caller can change the cached copy.
    """
    flat = _flat_fields(cls)
    # one attrgetter reads every cell; dataclasses.astuple would deep-copy
    return tuple(col for col, _ in flat), attrgetter(*(path for _, path in flat))


def _fmt_cell(x: Any) -> str:
    if isinstance(x, float):
        # the same text as format(x, ".17g"), and faster; bool is not a float
        return "%.17g" % x
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, Enum):
        return str(x.value)
    if isinstance(x, tuple):
        return ";".join(x)
    return str(x)


def _csv_field(text: str) -> str:
    """``text`` quoted, with ``"`` doubled, if it holds ``,``, ``"``, ``\\n`` or ``\\r``."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(cells) -> list[str]:
    """The CSV text of one column's cells, by the per-cell rule.

    A column of plain floats is formatted in one ``%`` with ``"%.17g\n"``
    repeated, and the text split; each value prints as ``"%.17g" % x``
    does alone.  When at most half its cells are distinct, only the
    distinct non-zero values are formatted and the rest looked up.
    """
    cells = tuple(cells)
    kinds = set(map(type, cells))
    if kinds == {float}:
        distinct = set(cells)
        if 2 * len(distinct) > len(cells):
            # verify's closed_form and brute_force columns
            return (("%.17g\n" * len(cells)) % cells).split("\n")[:-1]
        # float text needs no quotes.  0.0 and -0.0 are equal and would
        # share a key, so zeros are formatted per cell.
        keys = [x for x in distinct if x]
        memo = dict(zip(keys, (("%.17g\n" * len(keys)) % tuple(keys)).split("\n")))
        return [memo[x] if x else _fmt_cell(x) for x in cells]
    if kinds == {str}:
        # verify's side column: each distinct text quoted once
        memo = {x: _csv_field(x) for x in set(cells)}
        return list(map(memo.__getitem__, cells))
    return [_csv_field(_fmt_cell(x)) for x in cells]


def _csv_text(header: tuple[str, ...], columns: list) -> str:
    # one sequence of cells per header name, or none for no rows; cells
    # joined by hand, column by column, with csv.writer's minimal quoting;
    # unlike csv.writer before Python 3.13, a bare \r is quoted too (RFC 4180)
    lines = [",".join(_csv_column(header)), *map(",".join, zip(*map(_csv_column, columns)))]
    if len(header) == 1:
        # one empty cell prints "", as csv.writer does, so it is not an empty row
        lines = [line or '""' for line in lines]
    return "\n".join(lines) + "\n"


def _json_text(verb: str, params: ElectorateParams | None, **body: Any) -> str:
    """The JSON frame of every output: command, params, ``body``'s keys, version."""
    frame = {"command": verb, "params": params, **body, "version": __version__}
    return json.dumps(frame, indent=2, default=_json_default) + "\n"


@dataclass
class VerifyRow:
    """One closed-form vs brute-force comparison of the `verify` grid."""

    # built from _verify_columns only for JSON output and
    # standard_verify_rows; not frozen: 1,800 frozen rows cost ~5.8 ms, plain
    # ~1.0 ms (2-vCPU Xeon, Python 3.11)
    n: float
    p: float
    pa: float
    alpha_a: float
    alpha_b: float
    side: str
    closed_form: float
    brute_force: float
    abs_error: float
    error_bound: float


def _verify_columns(cfg: OracleConfig) -> list:
    """The ten ``VerifyRow`` columns over the standard grid, in field order."""
    sides = ("A", "B")
    # axes (n, p, p_a, alpha_a, alpha_b, side): the rows in product order
    keys = np.meshgrid(
        VERIFY_GRID_N, VERIFY_GRID_P, VERIFY_GRID_PA, VERIFY_GRID_ALPHA, VERIFY_GRID_ALPHA,
        sides, indexing="ij",
    )
    n, p, p_a, alpha_a, alpha_b, side = keys
    # the means and turnout means of ElectorateParams and turnout_means, bit for bit
    x_a, x_b, m_a, m_b = _group_means(n, p, p_a)[:4]
    y_a, y_b = m_a * alpha_a, m_b * alpha_b
    u, v = x_a + y_a, x_b + y_b
    # one brute-force call over the 36 electorates, with each one's five
    # y_a and y_b; its gains come as one flat list in row order
    brute = pivot_gain_bruteforce(
        x_a[..., 0, 0, 0].ravel().tolist(),
        x_b[..., 0, 0, 0].ravel().tolist(),
        y_a[..., 0, 0].reshape(-1, len(VERIFY_GRID_ALPHA)).tolist(),
        y_b[..., 0, :, 0].reshape(-1, len(VERIFY_GRID_ALPHA)).tolist(),
        sides,
        cfg,
    )
    # r1 = h(v, u) on side A rows and r2 = h(u, v) on side B rows, in one pass
    on_a = side == "A"
    closed = _h_list(np.where(on_a, v, u).ravel(), np.where(on_a, u, v).ravel())
    errors = [abs(c - g) for c, g in zip(closed, brute.value)]
    return [
        *(key.ravel().tolist() for key in keys),
        closed,
        brute.value,
        errors,
        (brute.error_bound,) * len(errors),
    ]


def standard_verify_rows(cfg: OracleConfig) -> list[VerifyRow]:
    """Closed-form vs brute-force residuals over the standard grid."""
    return list(map(VerifyRow, *_verify_columns(cfg)))


# (exit status, results, diagnostics, CSV header, CSV columns)
_Output = tuple[int, Any, dict, tuple[str, ...], list]


def _run_thresholds(args: argparse.Namespace, params: ElectorateParams) -> _Output:
    ts = thresholds(params)
    params_header, params_cells = _csv_schema(ElectorateParams)
    ts_header, ts_cells = _csv_schema(ThresholdSet)
    columns = list(zip((*params_cells(params), *ts_cells(ts))))
    return EXIT_OK, ts, {}, params_header + ts_header, columns


def _run_solve(args: argparse.Namespace, params: ElectorateParams) -> _Output:
    eqs = enumerate_equilibria(params, args.c)
    header, cells = _csv_schema(Equilibrium)
    columns = list(zip(*map(cells, eqs)))
    return EXIT_OK, eqs, {"cost": args.c, "count": len(eqs)}, header, columns


def _run_classify(args: argparse.Namespace, params: ElectorateParams) -> _Output:
    report = classify(params, args.c)
    eq_header, cells = _csv_schema(Equilibrium)
    header = (*CLASSIFY_PREFIX, *eq_header)
    prefix = [getattr(report, name) for name in CLASSIFY_PREFIX]
    columns = list(zip(*[(*prefix, *cells(eq)) for eq in report.equilibria]))
    diag = {"cost": args.c, "case_description": CASE_DESCRIPTIONS[report.case_index]}
    return EXIT_OK, report, diag, header, columns


def _run_sweep(args: argparse.Namespace, params: None) -> _Output:
    if args.points < 1:
        raise DomainError(f"--points must be >= 1, got {args.points}")
    if not (0 < args.n_min <= args.n_max):
        raise DomainError("need 0 < --n-min <= --n-max")
    if not math.isfinite(args.n_max):
        raise DomainError(f"--n-max must be finite, got {args.n_max!r}")
    grid = tuple(np.geomspace(args.n_min, args.n_max, args.points).tolist())
    quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    spec = SweepSpec(p=args.p, p_a=args.pa, n_grid=grid, quantities=quantities)
    table = sweep_bounds(spec)
    header = ("n", *quantities)
    columns = [table.n.tolist(), *(table.columns[q].tolist() for q in quantities)]
    results = {"n": table.n, "columns": table.columns, "onset": table.onset}
    diag = {"p": spec.p, "pa": spec.p_a, "points": len(table.n)}
    return EXIT_OK, results, diag, header, columns


def _run_verify(args: argparse.Namespace, params: None) -> _Output:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise DomainError(f"--tol must be finite and > 0, got {args.tol!r}")
    columns = _verify_columns(OracleConfig(tail_eps=args.tail_eps))
    errors = columns[8]  # abs_error
    max_err = max(errors)
    ok = max_err < args.tol
    results = {"max_abs_error": max_err, "tolerance": args.tol, "points": len(errors), "pass": ok}
    if args.format == "json":
        # the CSV reads the columns; only JSON prints rows
        results["rows"] = list(map(VerifyRow, *columns))
    diag = {"tail_eps": args.tail_eps}
    return (EXIT_OK if ok else EXIT_TOLERANCE), results, diag, _repr_fields(VerifyRow), columns


def _strategy_for_simulate(
    args: argparse.Namespace, params: ElectorateParams
) -> tuple[StrategyPair, dict[str, Any]]:
    if args.alpha_a is not None or args.alpha_b is not None:
        if args.alpha_a is None or args.alpha_b is None:
            raise DomainError("--alpha-a and --alpha-b must be given together")
        if args.kind is not None or args.c is not None:
            raise DomainError("--kind and --c do not apply to an explicit --alpha-a/--alpha-b pair")
        return StrategyPair(args.alpha_a, args.alpha_b), {"strategy_source": "explicit"}
    if args.kind is None:
        raise DomainError("simulate needs either --alpha-a/--alpha-b or --kind with --c")
    if args.c is None:
        raise DomainError("--kind requires --c to solve for the equilibrium")
    wanted = EquilibriumKind(args.kind)
    eqs = [eq for eq in enumerate_equilibria(params, args.c) if eq.kind is wanted]
    if not eqs:
        raise DomainError(
            f"no {wanted.value} equilibrium exists at c={args.c!r} for these parameters"
        )
    diag = {"strategy_source": f"solved {wanted.value}", "solved_count": len(eqs)}
    if len(eqs) > 1:
        diag["note"] = "multiple equilibria of this kind; using the one with smallest z_root"
    return eqs[0].strategies, diag


def _run_simulate(args: argparse.Namespace, params: ElectorateParams) -> _Output:
    cfg = OracleConfig(trials=args.trials, seed=args.seed)
    s, diag = _strategy_for_simulate(args, params)
    stats = simulate_election(params, s, cfg)
    size_a, size_b = class_sizes(params)
    diag.update(
        {
            "alpha_a": s.alpha_a,
            "alpha_b": s.alpha_b,
            "class_size_a": size_a,
            "class_size_b": size_b,
            "seed": cfg.seed,
            "trials": cfg.trials,
        }
    )
    values = dict(
        vars(stats),
        trials=stats.trials_used,
        seed=cfg.seed,
        alpha_a=s.alpha_a,
        alpha_b=s.alpha_b,
    )
    columns = [(values[name],) for name in SIMULATE_COLUMNS]
    return EXIT_OK, stats, diag, SIMULATE_COLUMNS, columns


_RUNNERS = {
    "thresholds": _run_thresholds,
    "solve": _run_solve,
    "classify": _run_classify,
    "sweep": _run_sweep,
    "verify": _run_verify,
    "simulate": _run_simulate,
}


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".votecost-", suffix=".tmp")
    # mkstemp creates the file owner-only; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Run parsed arguments; returns (exit status, serialized output).

    Every validation error, of the electorate or of a verb's own flags,
    becomes an error payload here.  When ``args.out`` is set the output
    is also written there atomically.
    """
    params = None
    try:
        if hasattr(args, "n"):
            params = ElectorateParams(n=args.n, p=args.p, p_a=args.pa)
        status, results, diag, header, columns = _RUNNERS[args.verb](args, params)
    except (DomainError, ValueError) as exc:
        return _error_output(args, params, exc, EXIT_VALIDATION)
    except (ConvergenceError, TruncationLimitError) as exc:
        return _error_output(args, params, exc, EXIT_NO_CONVERGENCE)
    if args.format == "csv":
        text = _csv_text(header, columns)
    else:
        text = _json_text(args.verb, params, results=results, diagnostics=diag)
    if args.out:
        try:
            _write_atomic(args.out, text)
        except OSError as exc:
            # name the path given, not the random temp file beside it
            exc = OSError(exc.errno, exc.strerror, args.out)
            return _error_output(args, params, exc, EXIT_VALIDATION)
    return status, text


def _error_output(
    args: argparse.Namespace, params: ElectorateParams | None, exc: Exception, status: int
) -> tuple[int, str]:
    if args.format == "json":
        error = {"type": type(exc).__name__, "message": str(exc)}
        return status, _json_text(args.verb, params, error=error)
    return status, f"error: {type(exc).__name__}: {exc}\n"


def _add_common(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default=default_format)
    sub.add_argument("--out", default=None, help="write output to this path (atomic)")


def _add_electorate(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=float, required=True, help="expected population size")
    sub.add_argument("--p", type=float, required=True, help="partisan share in (0,1)")
    sub.add_argument("--pa", type=float, required=True, help="A-supporter share in (1/2,1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votecost",
        description="Costly-voting equilibria, cost regimes, and oracle checks.",
    )
    parser.add_argument("--version", action="version", version=f"votecost {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("thresholds", help="the four cost frontiers")
    _add_electorate(sub)
    _add_common(sub, "json")

    sub = subs.add_parser("solve", help="every type-symmetric equilibrium at a cost")
    _add_electorate(sub)
    sub.add_argument("--c", type=float, required=True, help="voting cost")
    _add_common(sub, "json")

    sub = subs.add_parser("classify", help="regime report for a cost")
    _add_electorate(sub)
    sub.add_argument("--c", type=float, required=True, help="voting cost")
    _add_common(sub, "json")

    sub = subs.add_parser("sweep", help="threshold curves over a population grid")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--pa", type=float, required=True)
    sub.add_argument("--n-min", type=float, required=True)
    sub.add_argument("--n-max", type=float, required=True)
    sub.add_argument("--points", type=int, required=True)
    sub.add_argument(
        "--quantities",
        default=",".join(THRESHOLD_NAMES),
        help="comma-separated subset of " + ",".join(THRESHOLD_NAMES),
    )
    _add_common(sub, "csv")

    sub = subs.add_parser("verify", help="closed form vs brute force on the standard grid")
    sub.add_argument("--tol", type=float, default=1e-10)
    sub.add_argument("--tail-eps", type=float, default=DEFAULT_ORACLE_CONFIG.tail_eps)
    _add_common(sub, "csv")

    sub = subs.add_parser("simulate", help="Monte Carlo election statistics")
    _add_electorate(sub)
    sub.add_argument("--alpha-a", type=float, default=None)
    sub.add_argument("--alpha-b", type=float, default=None)
    sub.add_argument(
        "--kind",
        choices=[k.value for k in EquilibriumKind],
        default=None,
        help="simulate at a solved equilibrium of this kind (requires --c)",
    )
    sub.add_argument("--c", type=float, default=None)
    sub.add_argument("--trials", type=int, default=DEFAULT_ORACLE_CONFIG.trials)
    sub.add_argument("--seed", type=int, default=DEFAULT_ORACLE_CONFIG.seed)
    _add_common(sub, "json")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing reads the parser and never changes it
    return build_parser()


def execute(argv: list[str] | None = None) -> tuple[int, str, argparse.Namespace]:
    """Parse argv and run it; returns (exit status, output, parsed arguments)."""
    args = _parser().parse_args(argv)
    status, text = run(args)
    return status, text, args


def main(argv: list[str] | None = None) -> int:
    status, text, args = execute(argv)
    failed = status in (EXIT_VALIDATION, EXIT_NO_CONVERGENCE)
    if failed and args.format == "csv":
        sys.stderr.write(text)
    elif args.out and not failed:
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
