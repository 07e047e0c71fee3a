r"""Pivot-probability kernels on exponentially scaled Bessel functions.

A side whose vote total is Poisson(x) meets an opponent polling
Poisson(z).  Their difference D is Skellam distributed (Skellam 1946;
Myerson 2000, "Large Poisson games"):

    P(D = 0) = e^{-x-z} I0(t),   P(D = 1) = e^{-x-z} sqrt(x/z) I1(t),
    t = 2 sqrt(x z).

The two threshold kernels are

    g(z)    = (I0(z) + I1(z)) e^{-z}
    h(x, z) = [P(D = 0) + P(D = 1)] / 2 = (F1(x z) + x F2(x z)) e^{-x-z} / 2

with the confluent limit series F1(w) = sum w^k / (k!)^2 = I0(2 sqrt(w))
and F2(w) = sum w^k / (k! (k+1)!) = I1(2 sqrt(w)) / sqrt(w).  ``g`` is
strictly decreasing with g(0) = 1 and bounds the voting-cost interval on
which an interior mixed equilibrium exists; ``h`` bounds the cost
intervals of the boundary equilibria; h(x, x) = g(2x) / 2.

Arguments reach ~1e7, where e^{-x-z} underflows and I_k(t) overflows.
Every kernel is therefore evaluated in the factorized form

    e^{-x-z} I_k(t) = e^{-(sqrt(x)-sqrt(z))^2} [e^{-t} I_k(t)],

whose exponent is never positive.  It is d * d with
d = (x - z) / (sqrt(x) + sqrt(z)), which does not cancel when x ~ z.
README, "Numerical notes", says which routines give e^{-t} I_k(t) and
why floats and arrays get the same bits.

The formula has three kinds of entry point:

* ``g`` and ``h`` take and return Python floats: ``g`` for one
  electorate's frontiers, ``h`` for the closed-form pivot gains
  (``pivot.r1_closed`` and ``r2_closed``, hence the printed
  ``residual``; ``pivot._h_list`` gives ``verify`` the same bits on
  arrays).  Their values underflow to 0.0 once the exponent passes
  ~745, at populations of ~1e6 for the exponentially small frontiers.
* ``_log_g_slope`` and ``_log_h_slope`` serve the solvers: every kernel
  value they do not take from the frontiers (a case-0 interval end, the
  peak, each step of ``equilibria._rtsafe``) is read from them.  Each
  returns the log of the kernel, finite where ``h`` underflows, and its
  exact z-slope from the same two Bessel values, by the Skellam identity
  dP(D = k)/dz = P(D = k + 1) - P(D = k).  ``_i_sign_core`` returns the
  slope probe that ``equilibria.find_h_peak`` solves, with its own
  z-slope; it is damped by e^{-t} alone and keeps its sign where ``h``
  underflows.
* ``log_g`` and ``log_h`` take numpy arrays and return natural logs,
  finite for every positive argument, for the cost frontiers of a sweep.
  One electorate's frontiers (``pivot.thresholds``) use ``g`` and
  ``_h_parts`` on floats, with the same bits.

All functions are pure; concurrent use is unrestricted.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import i0e, i1e
from scipy.special.cython_special import i0e as i0e_float, i1e as i1e_float

from .errors import DomainError

__all__ = [
    "g",
    "h",
    "log_g",
    "log_h",
]

SQRT2 = math.sqrt(2.0)
# the (sqrt, i0e, i1e) of ``_h_parts`` on Python floats and on numpy arrays
FLOAT_OPS = (math.sqrt, i0e_float, i1e_float)
ARRAY_OPS = (np.sqrt, i0e, i1e)


def _h_parts(x_a, z, ops):
    # h = scaled * exp(-dd) with scaled = (i0 + r_i1) / 2, i0 = i0e(t),
    # r_i1 = sqrt(x_a / z) i1e(t), which the slope of log h reuses, and
    # dd = d * d; ``ops`` is FLOAT_OPS or ARRAY_OPS, so every entry point
    # shares one formula and Python floats stay Python floats
    sqrt, i0e, i1e = ops
    rx, rz = sqrt(x_a), sqrt(z)
    t = 2.0 * rx * rz
    i0, r_i1 = i0e(t), (rx / rz) * i1e(t)
    d = (x_a - z) / (rx + rz)
    return 0.5 * (i0 + r_i1), d * d, i0, r_i1


def g(z: float) -> float:
    """(I0(z) + I1(z)) e^{-z}: continuous, g(0) = 1, strictly decreasing to 0."""
    try:
        valid = z >= 0.0
    except TypeError:  # a str or None does not compare with a float
        valid = False
    if not valid:
        raise DomainError(f"g requires z >= 0, got {z!r}")
    return i0e_float(z) + i1e_float(z)


def h(x_a: float, z: float) -> float:
    """(F1(x_a z) + x_a F2(x_a z)) e^{-x_a-z} / 2, evaluated without overflow.

    Equals the expected tie-rule gain from one extra vote for a side whose
    vote total is Poisson(x_a) against an opponent polling Poisson(z), at
    finite x_a, z >= 0.  Underflows to 0.0 where ``log_h`` is below ~-745.
    """
    try:
        valid = 0.0 <= x_a < math.inf and 0.0 <= z < math.inf
    except TypeError:  # a str or None does not compare with a float
        valid = False
    if not valid:
        raise DomainError(f"h requires finite x_a >= 0 and z >= 0, got {x_a!r}, {z!r}")
    if z == 0.0:
        # F1(0) = F2(0) = 1
        return 0.5 * (1.0 + x_a) * math.exp(-x_a)
    scaled, dd, _, _ = _h_parts(x_a, z, FLOAT_OPS)
    # math.exp, not numpy's exp (which differs from it in the last bit at a
    # few percent of arguments), keeps the last bit of h and the residuals;
    # pivot._h_list finishes its array pass with it too
    return scaled * math.exp(-dd)


def _log_g_slope(z: float) -> tuple[float, float]:
    # (log g(z), d log g / dz) for z > 0, from g'(z) = -e^{-z} I1(z) / z;
    # log g reads the bits of ``g``
    i0, i1 = i0e_float(z), i1e_float(z)
    total = i0 + i1
    return math.log(total), -i1 / (z * total)


def _log_h_slope(x_a: float, z: float) -> tuple[float, float]:
    # (log h(x_a, z), d log h / dz) for x_a, z > 0, finite where ``h``
    # underflows.  dP(D=k)/dz = P(D=k+1) - P(D=k) (Skellam 1946) gives
    # dh/dz = [P(D=2) - P(D=0)] / 2, and I2 = I0 - (2/t) I1 (A&S 9.6.26)
    # turns it into d log h / dz = ((x_a - z) I0 - r I1) / (z (I0 + r I1)),
    # r = sqrt(x_a / z): the Bessel values of h itself, no further calls
    scaled, dd, i0, r_i1 = _h_parts(x_a, z, FLOAT_OPS)
    return math.log(scaled) - dd, ((x_a - z) * i0 - r_i1) / (2.0 * z * scaled)


def _i_sign_core(x_a: float, z: float) -> tuple[float, float]:
    # (S, dS/dz) for S = (x_a - z) F1(x_a z) - x_a F2(x_a z), scaled by
    # e^{-t} instead of e^{-x_a-z}: S has the sign of dh/dz, free of the
    # catastrophic underflow of the fully damped form when z is far from
    # x_a.  The slope follows from d i0e/dt = i1e - i0e,
    # d i1e/dt = i0e - (1 + 1/t) i1e and dt/dz = r = sqrt(x_a / z).
    # Requires x_a > 0 and z > 0, which ``find_h_peak`` ensures.
    t = 2.0 * math.sqrt(x_a * z)
    r = math.sqrt(x_a / z)
    i0, i1 = i0e_float(t), i1e_float(t)
    value = (x_a - z) * i0 - r * i1
    slope = (r * r + r / z) * i1 - (1.0 + r * r) * i0 - (x_a - z) * r * (i0 - i1)
    return value, slope


def log_g(z) -> np.ndarray:
    """log g(z), elementwise over an array of arguments z >= 0."""
    z = np.asarray(z, dtype=float)
    if not z.min(initial=math.inf) >= 0.0:  # NaN fails too
        raise DomainError("log_g requires every z >= 0")
    return np.log(i0e(z) + i1e(z))


def log_h(x_a, z) -> np.ndarray:
    """log h(x_a, z), elementwise; finite where ``h`` itself underflows.

    Requires x_a >= 0 and z > 0 (the cost frontiers always have positive
    arguments, so z = 0 is not special-cased as it is in ``h``).
    """
    scaled, dd = _array_h_parts(x_a, z, "log_h")
    return np.log(scaled) - dd


def _array_h_parts(x_a, z, name: str) -> tuple[np.ndarray, np.ndarray]:
    # (scaled, dd) of ``_h_parts`` on arrays, for every x_a >= 0 and z > 0
    x_a = np.asarray(x_a, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (x_a.min(initial=math.inf) >= 0.0 and z.min(initial=math.inf) > 0.0):
        raise DomainError(f"{name} requires every x_a >= 0 and z > 0")
    return _h_parts(x_a, z, ARRAY_OPS)[:2]
