"""The public API: each module's ``__all__`` is the one list of the names the package exports."""

import types

import pytest

import votecost
from votecost import equilibria, errors, oracle, pivot, regime, special_fn

MODULES = (errors, special_fn, pivot, oracle, equilibria, regime)

# the public contract: adding or dropping a name is a decision, made here
PUBLIC_NAMES = {
    "__version__",
    # errors
    "VoteCostError", "DomainError", "ConvergenceError", "TruncationLimitError",
    # special_fn
    "g", "h", "log_g", "log_h",
    # pivot
    "ElectorateParams", "StrategyPair", "ThresholdSet", "r1_closed", "r2_closed",
    "thresholds", "log_frontiers",
    # oracle
    "OracleConfig", "BruteForceGain", "MonteCarloEstimate", "WinStats",
    "pivot_gain_bruteforce", "simulate_election", "poisson_environment_pivot",
    # equilibria
    "EquilibriumKind", "Winner", "Equilibrium", "solve_coin_toss", "find_h_peak",
    "solve_partial_absenteeism", "no_queue_exists", "solve_partial_saturation",
    "all_swipe_exists", "enumerate_equilibria",
    # regime
    "RegimeReport", "SweepSpec", "SweepTable", "classify", "coin_toss_interval",
    "recommend_cost", "sweep_bounds",
}

# importable from their modules, but not exported
MODULE_ONLY = {
    equilibria: ("cost_side", "cost_sides"),
    pivot: ("turnout_means",),
    oracle: ("class_sizes",),
    regime: ("THRESHOLD_NAMES",),
    errors: ("finite_real",),
}


def test_no_repeats():
    assert len(votecost.__all__) == len(set(votecost.__all__))


def test_is_the_union_of_the_module_lists():
    module_names = [name for module in MODULES for name in module.__all__]
    # no name in two module lists
    assert len(module_names) == len(set(module_names))
    assert [name for name in votecost.__all__ if name != "__version__"] == module_names


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_its_modules_object(module):
    for name in module.__all__:
        assert getattr(votecost, name) is getattr(module, name), name


def test_names_are_the_contract():
    assert set(votecost.__all__) == PUBLIC_NAMES
    public_attrs = {name for name in dir(votecost) if not name.startswith("_")}
    submodules = {
        name for name in public_attrs if isinstance(getattr(votecost, name), types.ModuleType)
    }
    assert public_attrs - submodules == PUBLIC_NAMES - {"__version__"}


def test_star_import_binds_exactly_the_contract():
    namespace = {}
    exec("from votecost import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == PUBLIC_NAMES
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


@pytest.mark.parametrize("module", list(MODULE_ONLY), ids=lambda m: m.__name__)
def test_module_only_names_stay_importable(module):
    for name in MODULE_ONLY[module]:
        assert hasattr(module, name)
        assert name not in module.__all__
        assert name not in votecost.__all__
