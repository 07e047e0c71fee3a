"""Benchmark entry point for votecost.

    python3 bench/run.py --workload {designer,verifier} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the workload is timed for S seconds with
tracing off and the end-to-end metrics are printed.  With ``--trace 1``
the workload makes one untimed warm-up, one plain pass and one traced
pass whatever S is, and the per-layer metrics are printed, including
the tracing overhead (traced pass minus plain pass).  Spans go to
``bench/out/trace-<workload>-<seed>.csv``.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One process on a small shared machine: keep numpy's thread pools to
# one thread in this process and every child, so runs measure the program
# and not the scheduler.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import votecost; print(time.perf_counter() - t)"
)
IMPORT_MODULES = {
    "numpy": "import.numpy_s",
    "scipy.special": "import.scipy_special_s",
    "scipy.stats": "import.scipy_stats_s",
    "votecost": "import.votecost_s",
}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=True
    )


def setup_seconds(env: dict) -> float:
    """`import votecost` time in a fresh interpreter."""
    return float(run_child(["-c", IMPORT_PROBE], env).stdout)


def package_import_s(importtime_log: str, package: str) -> float:
    """Cumulative import time of ``package``, from `python -X importtime` output.

    The log lists each module after the modules it imported, indented one
    step deeper.  A package imported lazily may have no line of its own,
    so this sums the cumulative times of its outermost modules.
    """
    names: list[str] = []
    cumulative: list[int] = []
    parent: dict[int, int] = {}
    pending: list[tuple[int, int]] = []  # (indent, index) not yet given a parent
    for line in importtime_log.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        indent = len(parts[2]) - len(parts[2].lstrip())
        index = len(names)
        names.append(parts[2].strip())
        cumulative.append(int(parts[1]))
        while pending and pending[-1][0] > indent:
            parent[pending.pop()[1]] = index
        pending.append((indent, index))

    def inside(i: int) -> bool:
        return names[i] == package or names[i].startswith(package + ".")

    return 1e-6 * sum(
        cumulative[i] for i in range(len(names))
        if inside(i) and not (i in parent and inside(parent[i]))
    )


def import_breakdown(env: dict) -> dict[str, float]:
    """Interpreter floor and per-package import times from `python -X importtime`."""
    floor = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        run_child(["-c", "pass"], env)
        floor.append(perf_counter() - t0)
    logs = [
        run_child(["-X", "importtime", "-c", "import votecost"], env).stderr
        for _ in range(IMPORT_REPEATS)
    ]
    out = {"import.interpreter_s": statistics.median(floor)}
    for package, key in IMPORT_MODULES.items():
        out[key] = statistics.median(package_import_s(log, package) for log in logs)
    return out


def environment(vc) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "votecost": vc.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        **THREAD_ENV,
    }


def make_workload(name: str, vc, seed: int):
    import workloads

    return (workloads.Designer if name == "designer" else workloads.Verifier)(vc, seed)


def tail_ms(seconds: list[float]) -> float:
    """Highest of p99/p95/p90/p50 with at least ten samples beyond it, in ms."""
    if not seconds:
        return 0.0
    ordered = sorted(seconds)
    for q in (99, 95, 90, 50):
        if len(ordered) * (100 - q) / 100 >= 10:
            return 1e3 * statistics.quantiles(ordered, n=100)[q - 1]
    return 1e3 * ordered[-1]


def timed_run(wl, seconds: float, env: dict) -> tuple[list, dict]:
    """Cycle through the operations until time is up, and at least once.

    Every timing is scaled to the reference machine speed (see speed.py).
    Five set-up samples are spread evenly over the run.  Every call is
    checked, but the returned outcomes hold one per distinct operation,
    its worst repetition, so that `attempted` and `failed` depend on the
    seed and not on how many passes fit in the time.
    """
    from speed import SpeedLog

    setup_seconds(env)  # untimed: fills the bytecode and page caches
    for op in wl.ops[: wl.warmup]:
        op()
    speed = SpeedLog(wl.calibration)
    outcomes, spans, setup = [], [], []
    start = perf_counter()
    i = 0
    while (now := perf_counter()) < start + seconds or i < len(wl.ops):
        if speed.due(now):
            speed.calibrate()
        elif len(setup) < SETUP_REPEATS and now >= start + seconds * len(setup) / SETUP_REPEATS:
            setup.append((now, setup_seconds(env), perf_counter()))
        else:
            outcomes.append(wl.ops[i % len(wl.ops)]())
            spans.append((now, perf_counter()))
            i += 1
    speed.calibrate()
    scaled = [o.seconds * speed.scale(*span) for o, span in zip(outcomes, spans)]
    primary = [t for o, t in zip(outcomes, scaled) if o.kind == wl.primary]
    rates = [o.items / t for o, t in zip(outcomes, scaled) if o.kind == wl.bulk]
    metrics = {
        "setup_s": statistics.median(s * speed.scale(t0, t1) for t0, s, t1 in setup),
        "op_p50_ms": 1e3 * statistics.median(primary),
        "items_per_s": statistics.median(rates),
    }
    raw = [o.seconds for o in outcomes if o.kind == wl.primary]
    print(f"# {len(outcomes)} operations, {i / len(wl.ops):.1f} passes; {wl.primary}: "
          f"{len(primary)} samples, scaled tail {tail_ms(primary):.4f} ms, "
          f"unscaled median {1e3 * statistics.median(raw):.4f} ms; "
          f"calibration median {1e3 * statistics.median(speed.durations):.4f} ms "
          f"over {len(speed.durations)} samples; unscaled setup "
          + " ".join(f"{s:.4f}" for _, s, _ in setup))
    print(f"# {sum(o.failed for o in outcomes)} of {sum(o.attempted for o in outcomes)} "
          f"checked calls failed, over all passes")
    worst = {}  # one outcome per distinct operation: its worst repetition
    for k, o in enumerate(outcomes):
        j = k % len(wl.ops)
        worst[j] = max(worst.get(j, o), o, key=lambda x: (x.fatal is not None, x.failed))
    return list(worst.values()), metrics


def traced_run(wl, seed: int, env: dict) -> tuple[list, dict]:
    import tracing

    for op in wl.ops[: wl.warmup]:
        op()
    t0 = perf_counter()
    plain = [op() for op in wl.ops]
    plain_s = perf_counter() - t0
    tracer = tracing.Tracer()
    with tracer.installed():
        t0 = perf_counter()
        outcomes = [op() for op in wl.ops]
        traced_s = perf_counter() - t0
    for name in tracer.missing:
        print(f"# not traced (absent from this version): {name}", file=sys.stderr)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_csv(out_dir / f"trace-{wl.name}-{seed}.csv", t0)

    attempted = sum(o.attempted for o in outcomes)
    classify = [o.seconds for o in plain if o.kind == "classify"]
    cases = {o.case for o in outcomes if o.case}
    errors = [o.max_abs_error for o in outcomes if o.max_abs_error is not None]
    metrics = tracing.layer_metrics(tracer)
    metrics.update(
        {
            "regime.wrong_case_share": sum(o.wrong_case for o in outcomes) / attempted,
            "regime.regimes_hit": len(cases),
            "regime.classify.p99_ms": tail_ms(classify),
            "oracle.verify_max_abs_error": max(errors, default=0.0),
            "ops_failed_share": sum(o.failed for o in outcomes) / attempted,
            "trace.spans": len(tracer.names),
            "trace.overhead_s": traced_s - plain_s,
        }
    )
    metrics.update(import_breakdown(env))
    return outcomes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("designer", "verifier"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "votecost" / "__init__.py").is_file():
        print(f"error: votecost sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import votecost
    import votecost.cli

    if not Path(votecost.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported votecost from {votecost.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    print("# env " + json.dumps(environment(votecost)))
    wl = make_workload(args.workload, votecost, args.seed)
    if args.trace:
        outcomes, metrics = traced_run(wl, args.seed, env)
    else:
        outcomes, metrics = timed_run(wl, args.seconds, env)

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    fatal = sorted({o.fatal for o in outcomes if o.fatal})
    for msg in fatal:
        print(f"error: {msg}", file=sys.stderr)
    for name in units:
        print(f"{name} {metrics[name]} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not fatal,
                "attempted": sum(o.attempted for o in outcomes),
                "failed": sum(o.failed for o in outcomes),
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
