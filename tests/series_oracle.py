"""Raw power series for the Bessel-type functions, as a test oracle.

Independent of votecost and of scipy: plain double-precision sums of

    F1(w) = sum_{k>=0} w^k / (k!)^2          I0(t) = F1(t^2/4)
    F2(w) = sum_{k>=0} w^k / (k! (k+1)!)     I1(t) = (t/2) F2(t^2/4)

which overflow for w >~ 1.26e5, and a log-rescaled series for the scaled
factors e^{-t} I_k(t), which stays representable for every t.
"""

import math

SERIES_REL_TOL = 1e-15


def _series(z: float, ratio) -> float:
    # stop once three consecutive terms fall below SERIES_REL_TOL of the
    # running sum (guards against plateaus of accidentally small terms)
    if not (z >= 0.0) or math.isinf(z):
        raise ValueError(f"series requires a finite argument >= 0, got {z!r}")
    total = 1.0
    term = 1.0
    k = 0
    quiet = 0
    while quiet < 3:
        k += 1
        term *= z / ratio(k)
        total += term
        if not math.isfinite(total):
            return math.inf
        quiet = quiet + 1 if term <= SERIES_REL_TOL * total else 0
    return total


def hyp0f1_1(z: float) -> float:
    """F1(z) = sum_{k>=0} z^k / (k!)^2 for finite z >= 0."""
    return _series(z, lambda k: k * k)


def hyp0f1_2(z: float) -> float:
    """F2(z) = sum_{k>=0} z^k / (k! (k+1)!) for finite z >= 0."""
    return _series(z, lambda k: k * (k + 1))


def bessel_i0(t: float) -> float:
    """Modified Bessel I0(t) = F1(t^2/4), t >= 0.  Unscaled; may overflow."""
    if not (t >= 0.0):
        raise ValueError(f"bessel_i0 requires t >= 0, got {t!r}")
    return hyp0f1_1(0.25 * t * t)


def bessel_i1(t: float) -> float:
    """Modified Bessel I1(t) = (t/2) F2(t^2/4), t >= 0.  Unscaled; may overflow."""
    if not (t >= 0.0):
        raise ValueError(f"bessel_i1 requires t >= 0, got {t!r}")
    return 0.5 * t * hyp0f1_2(0.25 * t * t)


def scaled_bessel_logseries(t: float, order: int) -> float:
    """e^{-t} I_order(t) by direct series in shifted-exponent arithmetic.

    Every term is handled as a log-magnitude, so the sum never leaves
    representable range for any t.
    """
    assert t > 0
    log_half_t = math.log(0.5 * t)
    logs = []
    k = 0
    while True:
        logs.append(
            (2 * k + order) * log_half_t
            - math.lgamma(k + 1)
            - math.lgamma(k + order + 1)
        )
        if k > 3 and logs[-1] < max(logs) - 80.0:
            break
        k += 1
    peak = max(logs)
    return math.exp(peak - t) * math.fsum(math.exp(x - peak) for x in logs)
