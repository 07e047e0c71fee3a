"""Every type-symmetric equilibrium at one electorate and cost, by grid scan.

An oracle for ``enumerate_equilibria`` that shares none of its
intervals, frontiers, root finder or ownership rules: only the kernel
``log_h``, through the pivot gains r1 = h(v, u) and r2 = h(u, v) at the
turnout means u = x_a + m_a alpha_a and v = x_b + m_b alpha_b.

Each of alpha_a, alpha_b is 0, interior or 1, which gives nine support
types.  ``scan`` looks for each:

* the corners (0, 0), (0, 1) and (1, 1): both inequalities at the point;
* the edges alpha_a = 0 (r2 = c, r1 <= c) and alpha_b = 1 (r1 = c,
  r2 >= c): GRID points along the closed edge, every sign change of the
  equality's log gap located by bisection, and the inequality checked
  at each root;
* the interior type, where r1 = r2 = c: the gains are equal only on the
  line u = v, where both are h(w, w); it is scanned the same way for
  w in [x_a, n (1 - p_a)];
* the types (interior, 0), (1, 0) and (1, interior) need r1 >= r2.  On
  the edges alpha_b = 0 and alpha_a = 1, u > v, so r1 < r2 there
  (h(x, z) - h(z, x) has the sign of x - z); ``scan`` asserts u > v and
  log r1 <= log r2 at every grid point of those edges.

Inequalities are read without slack, so a pair ``scan`` returns meets
its conditions to rounding.  Each grid is one numpy call, and the roots
of one edge are bisected together; a call takes about 10 ms on a 2-vCPU
Xeon.
"""

from __future__ import annotations

import math

import numpy as np

from votecost import ElectorateParams, log_h

GRID = 4001


def _roots(gap, grid: np.ndarray) -> np.ndarray:
    """Every t in [grid[0], grid[-1]] where ``gap`` is 0 or changes sign between grid points."""
    f = gap(grid)
    lo, hi = grid[:-1], grid[1:]
    change = (f[:-1] < 0.0) & (f[1:] > 0.0) | (f[:-1] > 0.0) & (f[1:] < 0.0)
    lo, hi, f_lo = lo[change], hi[change], f[:-1][change]
    # halve every bracket until no float lies between its ends: a root
    # near t = 0 needs more halvings than one near t = 1
    mid = 0.5 * (lo + hi)
    while np.any((mid != lo) & (mid != hi)):
        f_mid = gap(mid)
        left = (f_mid > 0.0) == (f_lo > 0.0)
        lo, f_lo = np.where(left, mid, lo), np.where(left, f_mid, f_lo)
        hi = np.where(left, hi, mid)
        mid = 0.5 * (lo + hi)
    return np.concatenate([grid[f == 0.0], mid])


def scan(params: ElectorateParams, c: float) -> list[tuple[str, float, float]]:
    """(kind, alpha_a, alpha_b) of every equilibrium found at cost ``c``."""
    x_a, x_b, m_a, m_b = params.x_a, params.x_b, params.m_a, params.m_b
    log_c = math.log(c)

    def turnouts(alpha_a, alpha_b):
        alpha_a, alpha_b = np.asarray(alpha_a, dtype=float), np.asarray(alpha_b, dtype=float)
        return x_a + m_a * alpha_a, x_b + m_b * alpha_b

    def log_r1(alpha_a, alpha_b):
        u, v = turnouts(alpha_a, alpha_b)
        return log_h(v, u)

    def log_r2(alpha_a, alpha_b):
        u, v = turnouts(alpha_a, alpha_b)
        return log_h(u, v)

    t = np.linspace(0.0, 1.0, GRID)
    for alpha_a, alpha_b in ((t, 0.0), (1.0, t)):
        u, v = turnouts(alpha_a, alpha_b)
        assert np.all(u > v) and np.all(log_h(v, u) <= log_h(u, v)), params

    found = []
    for kind, alpha_a, alpha_b, holds in (
        ("no_queue", 0.0, 0.0, lambda r1, r2: r1 <= log_c and r2 <= log_c),
        ("minority_swipe", 0.0, 1.0, lambda r1, r2: r1 <= log_c <= r2),
        ("all_swipe", 1.0, 1.0, lambda r1, r2: r1 >= log_c and r2 >= log_c),
    ):
        if holds(log_r1(alpha_a, alpha_b), log_r2(alpha_a, alpha_b)):
            found.append((kind, alpha_a, alpha_b))
    alpha_b = _roots(lambda s: log_r2(0.0, s) - log_c, t)
    for b in alpha_b[log_r1(0.0, alpha_b) <= log_c]:
        found.append(("partial_absenteeism", 0.0, float(b)))
    alpha_a = _roots(lambda s: log_r1(s, 1.0) - log_c, t)
    for a in alpha_a[log_r2(alpha_a, 1.0) >= log_c]:
        found.append(("partial_saturation", float(a), 1.0))
    top = params.total_b
    if x_a < top:
        w_of = lambda s: x_a + (top - x_a) * s  # noqa: E731
        for w in w_of(_roots(lambda s: log_h(w_of(s), w_of(s)) - log_c, t)):
            found.append(("coin_toss", float((w - x_a) / m_a), float((w - x_b) / m_b)))
    return found
