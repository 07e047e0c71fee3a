"""Equilibria and cost-regime analysis for costly plurality voting.

A polity of expected size ``n`` chooses between two alternatives; a
share ``p`` of citizens votes unconditionally, the rest vote only when
the expected benefit of being pivotal covers the voting cost ``c``.
This package computes the closed-form pivot gains, solves for every
type-symmetric equilibrium, classifies costs into the five-regime
landscape (including the coin-toss window a designer must avoid), and
verifies all closed forms against brute-force and Monte Carlo oracles.
"""

from . import equilibria, errors, oracle, pivot, regime, special_fn
from .equilibria import *  # noqa: F403
from .errors import *  # noqa: F403
from .oracle import *  # noqa: F403
from .pivot import *  # noqa: F403
from .regime import *  # noqa: F403
from .special_fn import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of the names it exports
__all__ = [
    "__version__",
    *errors.__all__,
    *special_fn.__all__,
    *pivot.__all__,
    *oracle.__all__,
    *equilibria.__all__,
    *regime.__all__,
]
