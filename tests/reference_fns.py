"""Small reference functions the tests use and the package does not.

Leading large-argument terms of the kernels, the damped slope probe of
``h`` with its domain checks, and the tie rule of the brute-force sums.
The slope probe wraps the package's ``_i_sign_core``, so tests of its
sign exercise the kernel the solvers use.
"""

import math

from votecost.errors import DomainError
from votecost.special_fn import _i_sign_core


def g_leading(z: float) -> float:
    """Leading large-z term of g: sqrt(2 / (pi z))."""
    if not (z > 0.0):
        raise DomainError(f"g_leading requires z > 0, got {z!r}")
    return math.sqrt(2.0 / (math.pi * z))


def h_ray_leading(x_a: float, q: float) -> float:
    """Leading term of h(x_a, q x_a) for large x_a along a fixed ray q.

    (sqrt(q) + 1) / (4 sqrt(pi x_a) q^{3/4}) * exp(-(sqrt(q) - 1)^2 x_a),
    with the exponent in its cancellation-free form
    (q + 1 - 2 sqrt(q) = (sqrt(q) - 1)^2).
    """
    if not (x_a > 0.0):
        raise DomainError(f"h_ray_leading requires x_a > 0, got {x_a!r}")
    if not (q > 0.0):
        raise DomainError(f"h_ray_leading requires q > 0, got {q!r}")
    rq = math.sqrt(q)
    prefactor = (rq + 1.0) / (4.0 * math.sqrt(math.pi * x_a) * q**0.75)
    return prefactor * math.exp(-((rq - 1.0) ** 2) * x_a)


def i_sign(x_a: float, z: float) -> float:
    """Damped slope probe for h(x_a, .): sign equals sign of dh/dz for z > 0.

    Returns [(x_a - z) F1(x_a z) - x_a F2(x_a z)] e^{-x_a-z}.  Only the
    sign and zeros are meaningful; the magnitude carries the damping
    factor so the value never overflows.
    """
    if not (x_a > 0.0):
        raise DomainError(f"i_sign requires x_a > 0, got {x_a!r}")
    if not (z >= 0.0):
        raise DomainError(f"i_sign requires z >= 0, got {z!r}")
    core = _i_sign_core(x_a, z)
    return core * math.exp(-((math.sqrt(x_a) - math.sqrt(z)) ** 2))


def tie_rule(m: int, n: int) -> float:
    """Payoff of the first side when it polls m votes against n: 1, 1/2, or 0."""
    if m > n:
        return 1.0
    if m == n:
        return 0.5
    return 0.0
