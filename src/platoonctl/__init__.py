"""Threshold-based highway platooning: closed-form statistics, cost-optimal
threshold selection, and a seeded Monte Carlo simulator that cross-validates
every closed form.

The closed forms and the optimizers need only ``math``. The simulator's
functions are imported on first access, and numpy with them, so importing
the package does not load numpy.
"""

from .analytic import (
    MAX_RATE_THRESHOLD_PRODUCT,
    OptimalThreshold,
    PlatoonStatistics,
    ThresholdRegime,
    exact_fuel_increase,
    expected_fuel_increase_linearized,
    expected_fuel_saving_cruise,
    expected_platoon_headway,
    expected_platoon_size,
    expected_time_reduction,
    expected_total_cost,
    merge_probability,
    merge_time_cost_rate,
    numeric_optimal_threshold,
    optimal_threshold,
    platoon_size_pmf,
    platoon_statistics,
    total_cost_derivative,
)
from .domain import (
    ArrivalModel,
    CostParameters,
    EmpiricalSummary,
    PlatoonPolicy,
    RawCostConfig,
    SimulationConfig,
    StatEstimate,
    normalize_units,
)

__version__ = "0.1.0"

# Names of platoonctl.simulator, resolved by __getattr__ on first access.
_SIMULATOR_NAMES = frozenset({
    "SimulationRun",
    "run_from_interarrivals",
    "run_replications",
    "sample_interarrivals",
    "summarize",
})


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        value = getattr(simulator, name)
        globals()[name] = value  # later lookups skip __getattr__
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATOR_NAMES)
