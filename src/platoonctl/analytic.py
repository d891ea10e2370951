"""Closed-form platoon statistics, the per-vehicle cost model, and
threshold optimization (closed form plus a golden-section cross-check).

All operations are pure functions of immutable inputs and are safe to call
concurrently. Scenarios with ``rate * threshold > 50`` are rejected: the
expected platoon size at that point exceeds e^50 and no downstream quantity
is physically meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .domain import (  # MAX_RATE_THRESHOLD_PRODUCT and _check_product are re-exported
    MAX_RATE_THRESHOLD_PRODUCT,
    ArrivalModel,
    CostParameters,
    PlatoonPolicy,
    _check_product,
    _integer,
    _non_negative,
    _positive,
)

if TYPE_CHECKING:
    import numpy as np


class ThresholdRegime(str, Enum):
    """Shape of the expected-cost curve as a function of the threshold."""

    INTERIOR_OPTIMUM = "interior_optimum"
    UNBOUNDED_DECREASING = "unbounded_decreasing"


@dataclass(frozen=True)
class PlatoonStatistics:
    """Expected platoon characteristics for one (arrival, policy) scenario."""

    merge_probability: float  # dimensionless, in [0, 1)
    expected_platoon_size: float  # vehicles, >= 1
    expected_platoon_headway: float  # seconds, >= mean interarrival gap
    expected_time_reduction: float  # seconds, >= 0


@dataclass(frozen=True)
class OptimalThreshold:
    """Result of cost-optimal threshold selection over [0, r_max]."""

    regime: ThresholdRegime
    threshold: float  # seconds
    cost_at_threshold: float  # currency per vehicle
    clamped: bool = False  # closed-form interior optimum exceeded r_max


@dataclass(frozen=True, eq=False)
class ThresholdCurves:
    """The closed forms and cost terms at one threshold (numbers) or at
    every threshold of a grid (one array per quantity)."""

    threshold: float | np.ndarray  # seconds
    merge_probability: float | np.ndarray
    expected_platoon_size: float | np.ndarray  # vehicles
    expected_platoon_headway: float | np.ndarray  # seconds
    expected_time_reduction: float | np.ndarray  # seconds
    expected_fuel_increase: float | np.ndarray  # liters, linearized
    expected_fuel_saving: float | np.ndarray  # liters
    expected_total_cost: float | np.ndarray  # currency per vehicle


def _threshold_arg(name: str, value, rule, arrival: ArrivalModel) -> float:
    """``value`` as a float threshold that obeys ``rule`` and the product limit."""
    threshold = rule(name, value)
    _check_product(arrival.rate, threshold)
    return threshold


# The closed forms below are written once, in terms of x = rate * threshold,
# and take either numbers or the numpy array of a sweep's thresholds.
# Numbers never touch numpy.


def _libm(fn, x):
    """``fn`` (``math.exp`` or ``math.expm1``) at ``x``, elementwise when ``x``
    is an array. numpy's own exp and expm1 differ from libm in the last bit at
    some arguments, so arrays go through ``math`` as well and every element
    equals the scalar result at that threshold."""
    if isinstance(x, (int, float)):
        return fn(x)
    import numpy as np  # x is an array, so numpy is already loaded

    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _merge_probability(x):
    return -_libm(math.expm1, -x)


def _platoon_size(x):
    return _libm(math.exp, x)


def _time_reduction(rate, threshold, x):
    value = _libm(math.expm1, x) / rate - threshold
    if isinstance(value, float):
        return max(0.0, value)
    value[~(value > 0.0)] = 0.0  # max(0.0, value) elementwise, on a fresh array
    return value


def _fuel_increase(params: CostParameters, time_reduction):
    return 2.0 * params.drag_fuel_coeff * params.cruise_speed**3 * time_reduction


def _fuel_saving(params: CostParameters, merge):
    return params.fuel_saving_fraction * params.fuel_per_meter * params.cruise_zone_len * merge


def _total_cost(params: CostParameters, time_reduction, merge):
    return merge_time_cost_rate(params) * time_reduction - params.drafting_value * merge


def platoon_size_pmf(arrival: ArrivalModel, policy: PlatoonPolicy, y: int) -> float:
    """Probability that a platoon contains exactly ``y`` vehicles.

    Platoon sizes are geometric: a platoon ends exactly when a gap exceeds
    the threshold, which happens with probability exp(-rate * threshold).
    """
    _check_product(arrival.rate, policy.threshold)
    _integer("y", y, 1)
    boundary_p = math.exp(-arrival.rate * policy.threshold)
    return boundary_p * (1.0 - boundary_p) ** (y - 1)


def _statistics(rate, threshold) -> PlatoonStatistics:
    """The four closed-form statistics at ``threshold``: a number, or an
    array of thresholds that gives one array per field. The product limit
    is checked first, on the largest threshold."""
    _check_product(rate, threshold if isinstance(threshold, (int, float)) else float(threshold.max()))
    x = rate * threshold
    size = _platoon_size(x)
    return PlatoonStatistics(
        merge_probability=_merge_probability(x),
        expected_platoon_size=size,
        expected_platoon_headway=size / rate,
        expected_time_reduction=_time_reduction(rate, threshold, x),
    )


def _curves(params: CostParameters, rate, threshold) -> ThresholdCurves:
    """The four statistics and the three cost terms at ``threshold``, a
    number or an array of thresholds."""
    stats = _statistics(rate, threshold)
    time_reduction, merge = stats.expected_time_reduction, stats.merge_probability
    return ThresholdCurves(
        threshold=threshold,
        **vars(stats),  # the four statistics, by field name
        expected_fuel_increase=_fuel_increase(params, time_reduction),
        expected_fuel_saving=_fuel_saving(params, merge),
        expected_total_cost=_total_cost(params, time_reduction, merge),
    )


def platoon_statistics(arrival: ArrivalModel, policy: PlatoonPolicy) -> PlatoonStatistics:
    """Bundle the four closed-form statistics for one scenario."""
    return _statistics(arrival.rate, policy.threshold)


def merge_probability(arrival: ArrivalModel, policy: PlatoonPolicy) -> float:
    """Probability that an arriving vehicle joins the platoon ahead:
    P(gap <= threshold) = 1 - exp(-rate * threshold)."""
    return platoon_statistics(arrival, policy).merge_probability


def expected_platoon_size(arrival: ArrivalModel, policy: PlatoonPolicy) -> float:
    """Mean number of vehicles per platoon: exp(rate * threshold)."""
    return platoon_statistics(arrival, policy).expected_platoon_size


def expected_platoon_headway(arrival: ArrivalModel, policy: PlatoonPolicy) -> float:
    """Mean leader-to-leader gap between consecutive platoons, seconds.

    Equals expected_platoon_size / rate (one platoon per expected_platoon_size
    arrivals, arrivals come one per 1/rate seconds on average).
    """
    return platoon_statistics(arrival, policy).expected_platoon_headway


def expected_time_reduction(arrival: ArrivalModel, policy: PlatoonPolicy) -> float:
    """Mean per-vehicle merging-zone traverse-time reduction, seconds.

    Closed form (expm1(rate * threshold) / rate) - threshold; zero at
    threshold 0 and non-negative everywhere since e^x - 1 >= x.
    """
    return platoon_statistics(arrival, policy).expected_time_reduction


def exact_fuel_increase(params: CostParameters, t_shift: float) -> float:
    """Extra drag fuel, liters, burned by one vehicle that recovers
    ``t_shift`` seconds inside the merging zone by driving faster.

    The vehicle covers the zone in (free-flow time - t_shift) seconds, so the
    shift must be strictly below the free-flow traverse time.
    """
    _non_negative("t_shift", t_shift)
    free_flow_time = params.merge_zone_len / params.cruise_speed
    if t_shift >= free_flow_time:
        raise ValueError(
            f"t_shift = {t_shift:g} s cannot be recovered inside the merging zone "
            f"(free-flow traverse time is {free_flow_time:g} s)"
        )
    # Written so that t_shift = 0 gives exactly 0.0.
    boosted_speed = params.cruise_speed * (free_flow_time / (free_flow_time - t_shift))
    return params.drag_fuel_coeff * params.merge_zone_len * (
        boosted_speed * boosted_speed - params.cruise_speed * params.cruise_speed
    )


def expected_fuel_increase_linearized(
    params: CostParameters, arrival: ArrivalModel, policy: PlatoonPolicy
) -> float:
    """First-order expected merging fuel increase, liters:
    2 * drag_fuel_coeff * cruise_speed^3 * expected_time_reduction."""
    return _curves(params, arrival.rate, policy.threshold).expected_fuel_increase


def expected_fuel_saving_cruise(
    params: CostParameters, arrival: ArrivalModel, policy: PlatoonPolicy
) -> float:
    """Expected drafting fuel saving over the cruising zone, liters:
    fuel_saving_fraction * fuel_per_meter * cruise_zone_len * P(merge)."""
    return _curves(params, arrival.rate, policy.threshold).expected_fuel_saving


def merge_time_cost_rate(params: CostParameters) -> float:
    """Net cost per second of catch-up time: the marginal drag-fuel cost
    2 * drag_fuel_coeff * fuel_price * cruise_speed^3 minus the value of the
    time saved. Its sign decides the optimization regime."""
    return 2.0 * params.drag_fuel_coeff * params.fuel_price * params.cruise_speed**3 - params.value_of_time


def expected_total_cost(
    params: CostParameters, arrival: ArrivalModel, policy: PlatoonPolicy
) -> float:
    """Expected incremental cost of platooning per vehicle, currency.

    merge_time_cost_rate * expected_time_reduction minus the monetized cruise
    fuel saving. Exactly 0 at threshold 0 (nothing merges, nothing changes).
    """
    return _curves(params, arrival.rate, policy.threshold).expected_total_cost


def total_cost_derivative(params: CostParameters, arrival: ArrivalModel, r: float) -> float:
    """Derivative of expected_total_cost with respect to the threshold,
    currency per vehicle per second, evaluated at threshold ``r``."""
    _threshold_arg("r", r, _non_negative, arrival)
    rate = arrival.rate
    net_rate = merge_time_cost_rate(params)
    growth = math.exp(rate * r)
    return (net_rate * (growth * growth - growth) - params.drafting_value * rate) / growth


def optimal_threshold(
    params: CostParameters, arrival: ArrivalModel, r_max: float
) -> OptimalThreshold:
    """Cost-minimizing threshold over [0, r_max].

    When merge_time_cost_rate <= 0 the cost only falls as the threshold
    grows, so the best admissible choice is r_max (regime
    ``unbounded_decreasing``). Otherwise the unique stationary point

        (1/rate) * ln(1/2 + 1/2 * sqrt(4 * drafting_value * rate / net_rate + 1))

    is returned, clamped to r_max (``clamped`` flags that case).
    """
    r_max = _threshold_arg("r_max", r_max, _positive, arrival)

    net_rate = merge_time_cost_rate(params)
    if net_rate <= 0.0:
        regime = ThresholdRegime.UNBOUNDED_DECREASING
        best = r_max
        clamped = False
    else:
        regime = ThresholdRegime.INTERIOR_OPTIMUM
        root = math.sqrt(4.0 * params.drafting_value * arrival.rate / net_rate + 1.0)
        stationary = math.log(0.5 + 0.5 * root) / arrival.rate
        clamped = stationary > r_max
        best = min(stationary, r_max)

    cost = expected_total_cost(params, arrival, PlatoonPolicy(threshold=best))
    return OptimalThreshold(regime=regime, threshold=best, cost_at_threshold=cost, clamped=clamped)


# Golden-section search stops once its bracket is this narrow, seconds.
GOLDEN_TOL = 1e-3


def numeric_optimal_threshold(params: CostParameters, arrival: ArrivalModel, r_max: float) -> float:
    """Golden-section minimizer of expected_total_cost over [0, r_max],
    refined until the bracket is narrower than ``GOLDEN_TOL`` seconds, or
    until a step no longer narrows it: with a huge ``r_max`` and a
    near-flat cost the bracket can stall wider than ``GOLDEN_TOL``.

    The cost derivative changes sign at most once on [0, r_max], so the cost
    is unimodal there and golden-section search is valid; it serves as the
    independent cross-check for :func:`optimal_threshold`.
    """
    r_max = _threshold_arg("r_max", r_max, _positive, arrival)

    def cost(r: float) -> float:
        return expected_total_cost(params, arrival, PlatoonPolicy(threshold=r))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, r_max
    left = hi - inv_phi * (hi - lo)
    right = lo + inv_phi * (hi - lo)
    f_left = cost(left)
    f_right = cost(right)
    width = math.inf
    while GOLDEN_TOL < hi - lo < width:
        width = hi - lo
        if f_left < f_right:
            hi, right, f_right = right, left, f_left
            left = hi - inv_phi * (hi - lo)
            f_left = cost(left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + inv_phi * (hi - lo)
            f_right = cost(right)
    return 0.5 * (lo + hi)
