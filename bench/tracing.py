"""Boundary tracing of votecost from outside the package.

Each traced name is the function a module imports from the layer below
it, replaced in the importing module's namespace (for example
``votecost.equilibria.h``), so calls made by that module go through a
wrapper that records one span (name, start, end, parent) and one count.
Nothing in the package is edited; ``Tracer.installed`` restores every
original on exit.  A name a later version of the package no longer has
is skipped and listed in ``Tracer.missing``.
"""

from __future__ import annotations

import csv
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (namespace, attribute, span name).  The span name is the layer and
# function called; the namespace says which module's calls are seen.
TARGETS = (
    ("votecost.pivot", "g", "special_fn.g"),
    ("votecost.pivot", "h", "special_fn.h"),
    ("votecost.equilibria", "g", "special_fn.g"),
    ("votecost.equilibria", "h", "special_fn.h"),
    ("votecost.equilibria", "_i_sign_core", "special_fn.i_sign"),
    ("votecost.equilibria", "r1_closed", "pivot.r_closed"),
    ("votecost.equilibria", "r2_closed", "pivot.r_closed"),
    ("votecost.equilibria", "solve_coin_toss", "equilibria.coin_toss"),
    ("votecost.equilibria", "solve_partial_absenteeism", "equilibria.absenteeism"),
    ("votecost.equilibria", "find_h_peak", "equilibria.h_peak"),
    ("votecost.equilibria", "solve_partial_saturation", "equilibria.saturation"),
    ("votecost.equilibria", "no_queue_exists", "equilibria.corners"),
    ("votecost.equilibria", "all_swipe_exists", "equilibria.corners"),
    ("votecost.regime", "thresholds", "pivot.thresholds"),
    ("votecost.regime", "enumerate_equilibria", "equilibria.enumerate"),
    ("votecost.cli", "thresholds", "pivot.thresholds"),
    ("votecost.cli", "r1_closed", "pivot.r_closed"),
    ("votecost.cli", "r2_closed", "pivot.r_closed"),
    ("votecost.cli", "enumerate_equilibria", "equilibria.enumerate"),
    ("votecost.cli", "classify", "regime.classify"),
    ("votecost.cli", "sweep_bounds", "regime.sweep_bounds"),
    ("votecost.cli", "pivot_gain_bruteforce", "oracle.bruteforce"),
    ("votecost.cli", "simulate_election", "oracle.mc"),
    # the benchmark's own calls, which it makes through these attributes
    ("votecost", "classify", "regime.classify"),
    ("votecost", "recommend_cost", "regime.recommend_cost"),
    ("votecost", "sweep_bounds", "regime.sweep_bounds"),
    ("votecost", "simulate_election", "oracle.mc"),
    ("votecost", "poisson_environment_pivot", "oracle.mc"),
    ("votecost.cli", "execute", "cli.execute"),
)

KERNEL = ("special_fn.g", "special_fn.h", "special_fn.i_sign")
SOLVERS = (
    "equilibria.enumerate",
    "equilibria.coin_toss",
    "equilibria.absenteeism",
    "equilibria.h_peak",
    "equilibria.saturation",
    "equilibria.corners",
)


def _roots(result) -> int:
    if isinstance(result, list):
        return len(result)
    if isinstance(result, float):
        return int(result > 0.0)
    return int(result is not None)


# Work counted from return values: roots returned by the solvers, grid
# points swept, Monte Carlo trials run and classifications reporting case 0.
RESULT_COUNTERS = {
    "equilibria.coin_toss": ("roots", _roots),
    "equilibria.absenteeism": ("roots", _roots),
    "equilibria.h_peak": ("roots", _roots),
    "equilibria.saturation": ("roots", _roots),
    "regime.sweep_bounds": ("sweep_points", lambda r: len(r.n)),
    "oracle.mc": ("mc_trials", lambda r: getattr(r, "trials_used", None) or r.trials),
    "regime.classify": ("case0", lambda r: int(r.case_index == 0)),
}


class Tracer:
    """In-memory span recorder; one thread, so spans nest by a stack."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.calls: Counter = Counter()  # per patched attribute
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, path: str, name: str, fn):
        counter = RESULT_COUNTERS.get(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, calls, counters = self._stack, self.calls, self.counters

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            calls[path] += 1
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for namespace, attr, name in TARGETS:
                module = importlib.import_module(namespace)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{namespace}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{namespace}.{attr}", name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self):
        """Per span name: count, self time (duration minus direct children), duration."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        count: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            count[name] += 1
            self_s[name] += duration - child[i]
            total_s[name] += duration
        return count, self_s, total_s

    def spans_under(self, ancestor: str, names) -> int:
        """Spans named in ``names`` that have an ``ancestor`` span above them."""
        inside = [False] * len(self.names)
        total = 0
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            # parents are recorded before their children, so inside[parent] is final
            inside[i] = parent >= 0 and (inside[parent] or self.names[parent] == ancestor)
            total += inside[i] and name in names
        return total

    def write_csv(self, path, origin: float) -> None:
        """Write every span as id,parent,name,start_s,end_s relative to origin."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_s", "end_s"])
            for i, name in enumerate(self.names):
                out.writerow(
                    [i, self.parents[i], name,
                     f"{self.starts[i] - origin:.9f}", f"{self.ends[i] - origin:.9f}"]
                )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics derived from one traced pass."""
    count, self_s, total_s = tracer.totals()
    c = tracer.counters

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    kernel_calls = sum(count[k] for k in KERNEL)
    kernel_s = sum(self_s[k] for k in KERNEL)
    solver_kernel_calls = sum(
        tracer.calls[f"votecost.equilibria.{attr}"] for attr in ("g", "h", "_i_sign_core")
    )
    out = {
        "special_fn.calls": kernel_calls,
        "special_fn.self_s": kernel_s,
        "special_fn.us_per_call": per(kernel_s, kernel_calls, 1e6),
        "special_fn.calls_per_classify": per(
            tracer.spans_under("regime.classify", KERNEL), count["regime.classify"]
        ),
        "pivot.thresholds.calls": count["pivot.thresholds"],
        "pivot.thresholds.self_s": self_s["pivot.thresholds"],
        "pivot.r_closed.calls": count["pivot.r_closed"],
    }
    for name in SOLVERS:
        out[f"{name}.self_s"] = self_s[name]
    out["equilibria.roots"] = c["roots"]
    out["equilibria.kernel_calls_per_root"] = per(solver_kernel_calls, c["roots"])
    out.update(
        {
            "regime.classify.self_s": self_s["regime.classify"],
            "regime.recommend_cost.self_s": self_s["regime.recommend_cost"],
            "regime.sweep_bounds.self_s": self_s["regime.sweep_bounds"],
            "regime.sweep.us_per_point": per(
                total_s["regime.sweep_bounds"], c["sweep_points"], 1e6
            ),
            "regime.case0_share": per(c["case0"], count["regime.classify"]),
            "oracle.bruteforce.calls": count["oracle.bruteforce"],
            "oracle.bruteforce.self_s": self_s["oracle.bruteforce"],
            "oracle.bruteforce.us_per_call": per(
                self_s["oracle.bruteforce"], count["oracle.bruteforce"], 1e6
            ),
            "oracle.mc.ns_per_trial": per(self_s["oracle.mc"], c["mc_trials"], 1e9),
            "cli.execute.self_s": self_s["cli.execute"],
        }
    )
    return out

