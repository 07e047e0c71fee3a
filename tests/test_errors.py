"""One test of a number from outside: ``finite_real`` and the entry points that use it."""

import math

import numpy as np
import pytest

from votecost.equilibria import find_h_peak
from votecost.errors import DomainError, finite_real
from votecost.oracle import OracleConfig, pivot_gain_bruteforce
from votecost.regime import SweepSpec

NOT_REAL = ["1", None, 1j, np.array([1.0, 2.0]), np.array([1.0]), 10**400, math.inf]
NOT_REAL_IDS = ["str", "None", "complex", "array", "one-element array", "int past floats", "inf"]

# (entry point taking the value, the message before its repr)
ENTRY_POINTS = {
    "tail_eps": (lambda v: OracleConfig(tail_eps=v), "tail_eps must be in (0, 1e-6), got "),
    "n_grid middle": (
        lambda v: SweepSpec(p=0.2, p_a=0.6, n_grid=(10.0, v, 30.0)),
        "n_grid must hold finite reals, got ",
    ),
    "find_h_peak": (find_h_peak, "find_h_peak requires a finite x_a > 0, got "),
    "grid x_a": (
        lambda v: pivot_gain_bruteforce([v], [1.0], [[1.0]], [[1.0]]),
        "x_a must be a finite mean >= 0, got ",
    ),
    "grid y_a": (
        lambda v: pivot_gain_bruteforce([1.0], [1.0], [[0.5, v]], [[1.0]]),
        "y_a must be a finite mean >= 0, got ",
    ),
}


@pytest.mark.parametrize(
    "value", [0.0, -1.5, 5e-324, 1.7976931348623157e308, 3, True, np.float32(2.5),
              np.int64(7), np.array(0.25)]
)
def test_accepts_one_finite_real(value):
    assert finite_real(value) is True


@pytest.mark.parametrize(
    "value", [*NOT_REAL, -math.inf, math.nan, np.array("x"), np.array([[1.0]])]
)
def test_rejects_what_is_not_one_finite_real(value):
    assert finite_real(value) is False


@pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_raises_domain_error(entry, value):
    # a DomainError with the entry point's message, not a TypeError,
    # ValueError or OverflowError from a comparison or a float conversion
    call, message = ENTRY_POINTS[entry]
    with pytest.raises(DomainError) as err:
        call(value)
    assert str(err.value) == message + repr(value)
