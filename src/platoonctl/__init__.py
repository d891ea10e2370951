"""Threshold-based highway platooning: closed-form statistics, cost-optimal
threshold selection, and a seeded Monte Carlo simulator that cross-validates
every closed form."""

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
    truncation_cutoff,
)
from .domain import (
    ArrivalModel,
    CostParameters,
    PlatoonPolicy,
    RawCostConfig,
    normalize_units,
)
from .simulator import (
    EmpiricalSummary,
    SimulationConfig,
    SimulationRun,
    StatEstimate,
    compute_time_shifts,
    form_platoons,
    headway_from_uniform,
    platoon_leader_headways,
    run_from_interarrivals,
    run_replications,
    run_simulation,
    sample_interarrivals,
    summarize,
)

__version__ = "0.1.0"
