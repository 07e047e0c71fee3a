"""Equilibria and cost-regime analysis for costly plurality voting.

A polity of expected size ``n`` chooses between two alternatives; a
share ``p`` of citizens votes unconditionally, the rest vote only when
the expected benefit of being pivotal covers the voting cost ``c``.
This package computes the closed-form pivot gains, solves for every
type-symmetric equilibrium, classifies costs into the five-regime
landscape (including the coin-toss window a designer must avoid), and
verifies all closed forms against brute-force and Monte Carlo oracles.
"""

from .equilibria import (
    Equilibrium,
    EquilibriumKind,
    Winner,
    all_swipe_exists,
    enumerate_equilibria,
    find_h_peak,
    no_queue_exists,
    solve_coin_toss,
    solve_partial_absenteeism,
    solve_partial_saturation,
)
from .errors import ConvergenceError, DomainError, TruncationLimitError, VoteCostError
from .oracle import (
    BruteForceGain,
    MonteCarloEstimate,
    OracleConfig,
    WinStats,
    pivot_gain_bruteforce,
    poisson_environment_pivot,
    simulate_election,
)
from .pivot import (
    ElectorateParams,
    StrategyPair,
    ThresholdSet,
    log_frontiers,
    r1_closed,
    r2_closed,
    thresholds,
)
from .regime import (
    RegimeReport,
    SweepSpec,
    SweepTable,
    classify,
    coin_toss_interval,
    recommend_cost,
    sweep_bounds,
)
from .special_fn import g, h, log_g, log_h

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "VoteCostError",
    "DomainError",
    "ConvergenceError",
    "TruncationLimitError",
    # special functions
    "g",
    "h",
    "log_g",
    "log_h",
    # pivot layer
    "ElectorateParams",
    "StrategyPair",
    "ThresholdSet",
    "r1_closed",
    "r2_closed",
    "thresholds",
    "log_frontiers",
    # oracles
    "OracleConfig",
    "BruteForceGain",
    "MonteCarloEstimate",
    "WinStats",
    "pivot_gain_bruteforce",
    "simulate_election",
    "poisson_environment_pivot",
    # equilibria
    "EquilibriumKind",
    "Winner",
    "Equilibrium",
    "solve_coin_toss",
    "find_h_peak",
    "solve_partial_absenteeism",
    "no_queue_exists",
    "solve_partial_saturation",
    "all_swipe_exists",
    "enumerate_equilibria",
    # regime layer
    "RegimeReport",
    "SweepSpec",
    "SweepTable",
    "classify",
    "coin_toss_interval",
    "recommend_cost",
    "sweep_bounds",
]
