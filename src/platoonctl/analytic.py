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


# The closed forms below are written once, in terms of x = rate * threshold,
# and take either numbers or the numpy array of a sweep's thresholds.
# Numbers never touch numpy.


def _expm1(x):
    """e^x - 1, from which every closed form comes, at ``x``, elementwise
    when ``x`` is a 1-D float64 array. numpy's expm1 differs from libm in
    the last bit at some arguments, so arrays go through ``math.expm1`` as
    well and every element equals the scalar result at that threshold.
    ``map`` reads the array's doubles through a ``memoryview``, one float
    at a time: no list of the grid is built."""
    if isinstance(x, (int, float)):
        return math.expm1(x)
    import numpy as np  # x is an array, so numpy is already loaded

    return np.fromiter(map(math.expm1, memoryview(x)), dtype=float, count=x.size)


# (expm1(x) - x)/x = x/2! + x^2/3! + x^3/4! + ...; the coefficients 1/18!
# down to 1/2! of the sum over x, in Horner's order. At x < 1 the subtraction
# would cancel digits of expm1(x) (all of them as x -> 0), so the series is
# taken there; the terms it leaves out add up to less than 2^-54 of it.
_EXCESS_SERIES_BELOW = 1.0
_EXCESS_SERIES = tuple(1 / math.factorial(k) for k in range(18, 1, -1))


def _excess_series(x):
    """(expm1(x) - x)/x at ``x`` (a number or an array) by Horner's rule."""
    acc = _EXCESS_SERIES[0]
    for coefficient in _EXCESS_SERIES[1:]:
        acc = acc * x + coefficient
    return acc * x


def _time_reduction(threshold, x, growth):
    """threshold * (g - x)/x with g = ``growth`` = expm1(x), which equals
    g/rate - threshold without that form's cancellation at small x. Each
    step is one rounded float operation, for a number and for each element."""
    if isinstance(x, (int, float)):
        return threshold * (_excess_series(x) if x < _EXCESS_SERIES_BELOW else (growth - x) / x)
    import numpy as np  # x is an array, so numpy is already loaded

    ratio = np.empty_like(x)
    small = x < _EXCESS_SERIES_BELOW
    ratio[small] = _excess_series(x[small])
    large = x[~small]
    ratio[~small] = (growth[~small] - large) / large
    return threshold * ratio


def _statistics(rate, threshold) -> PlatoonStatistics:
    """The four closed-form statistics at ``threshold``: a number, whose
    product limit is checked first, or an array of thresholds that gives
    one array per field, whose largest threshold ``_curves`` has checked.
    All four come from one g = expm1(x) per threshold: size g + 1, merge
    g / size."""
    if isinstance(threshold, (int, float)):
        _check_product(rate, threshold)
    x = rate * threshold
    growth = _expm1(x)
    size = growth + 1.0
    return PlatoonStatistics(
        merge_probability=growth / size,
        expected_platoon_size=size,
        expected_platoon_headway=size / rate,
        expected_time_reduction=_time_reduction(threshold, x, growth),
    )


def _curves(params: CostParameters, rate, threshold) -> ThresholdCurves:
    """The four statistics and the three cost terms at ``threshold``, a
    number or an array of thresholds.

    At the largest threshold the product limit must hold and every cost
    term must be finite, or a ``ValueError`` says which does not (for the
    cost terms, the first that overflows the float range there). Both
    then hold at every smaller threshold: the product grows with the
    threshold, and each cost term is made of finite coefficients times
    the time reduction and the merge probability, which grow with it too.
    So an array is checked once, first, as the number of its largest
    threshold."""
    if not isinstance(threshold, (int, float)):
        _curves(params, rate, float(threshold.max()))
    stats = _statistics(rate, threshold)
    time_reduction, merge = stats.expected_time_reduction, stats.merge_probability
    terms = dict(
        expected_fuel_increase=2.0 * params.drag_fuel_coeff * params.cruise_speed**3 * time_reduction,
        expected_fuel_saving=params.fuel_saving_fraction * params.fuel_per_meter * params.cruise_zone_len * merge,
        expected_total_cost=merge_time_cost_rate(params) * time_reduction - params.drafting_value * merge,
    )
    for name, value in terms.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"cost term {name} overflows the float range at threshold {threshold!r} s, got {value}")
    return ThresholdCurves(threshold=threshold, **vars(stats), **terms)  # the statistics and terms, by field name


def platoon_statistics(arrival: ArrivalModel, policy: PlatoonPolicy) -> PlatoonStatistics:
    """Bundle the four closed-form statistics for one scenario."""
    return _statistics(arrival.rate, policy.threshold)


def platoon_size_pmf(arrival: ArrivalModel, policy: PlatoonPolicy, y: int) -> float:
    """Probability that a platoon contains exactly ``y`` vehicles.

    Platoon sizes are geometric: a platoon ends exactly when a gap exceeds
    the threshold, which happens with probability e^-x = 1/size, so the
    PMF is merge^(y - 1) / size, both from the one g = expm1(x).
    """
    stats = platoon_statistics(arrival, policy)
    _integer("y", y, 1)
    return stats.merge_probability ** (y - 1) / stats.expected_platoon_size


def merge_probability(arrival: ArrivalModel, policy: PlatoonPolicy) -> float:
    """Probability that an arriving vehicle joins the platoon ahead:
    P(gap <= threshold) = 1 - e^-x, taken as g / (g + 1) with
    g = expm1(x), x = rate * threshold."""
    return platoon_statistics(arrival, policy).merge_probability


def expected_platoon_size(arrival: ArrivalModel, policy: PlatoonPolicy) -> float:
    """Mean number of vehicles per platoon: e^x = expm1(x) + 1."""
    return platoon_statistics(arrival, policy).expected_platoon_size


def expected_platoon_headway(arrival: ArrivalModel, policy: PlatoonPolicy) -> float:
    """Mean leader-to-leader gap between consecutive platoons, seconds.

    Equals expected_platoon_size / rate (one platoon per expected_platoon_size
    arrivals, arrivals come one per 1/rate seconds on average).
    """
    return platoon_statistics(arrival, policy).expected_platoon_headway


def expected_time_reduction(arrival: ArrivalModel, policy: PlatoonPolicy) -> float:
    """Mean per-vehicle merging-zone traverse-time reduction, seconds.

    Closed form (expm1(rate * threshold) / rate) - threshold, computed as
    threshold * (expm1(x) - x) / x with x = rate * threshold, and below
    x = 1 from that ratio's Taylor series, which keeps full precision at
    small x where the closed form cancels. Zero at threshold 0 and
    non-negative everywhere, since every term of the series is.
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
    currency per vehicle per second, evaluated at threshold ``r``:
    net_rate * g - drafting_value * rate / (g + 1) with g = expm1(rate * r)."""
    rate = arrival.rate
    _check_product(rate, _non_negative("r", r))
    growth = math.expm1(rate * r)
    return merge_time_cost_rate(params) * growth - params.drafting_value * rate / (growth + 1.0)


def optimal_threshold(
    params: CostParameters, arrival: ArrivalModel, r_max: float
) -> OptimalThreshold:
    """Cost-minimizing threshold over [0, r_max].

    When merge_time_cost_rate <= 0 the cost only falls as the threshold
    grows, so the best admissible choice is r_max (regime
    ``unbounded_decreasing``). Otherwise the unique stationary point

        (1/rate) * ln(1/2 + 1/2 * sqrt(4 * c + 1)),  c = drafting_value * rate / net_rate,

    is returned, clamped to r_max (``clamped`` flags that case), as
    (1/rate) * log1p(g) with g = 2c / (1 + sqrt(1 + 4c)), the root of
    g * (g + 1) = c: no digits cancel when c is small.

    ``r_max`` must be > 0, obey the product limit and leave every cost term
    finite, which then holds at every threshold below it (see ``_curves``);
    else ``ValueError``, before any cost is evaluated.
    """
    r_max = _positive("r_max", r_max)
    _curves(params, arrival.rate, r_max)

    net_rate = merge_time_cost_rate(params)
    if net_rate <= 0.0:
        regime = ThresholdRegime.UNBOUNDED_DECREASING
        best = r_max
        clamped = False
    else:
        regime = ThresholdRegime.INTERIOR_OPTIMUM
        c = params.drafting_value * arrival.rate / net_rate
        stationary = math.log1p(2.0 * c / (1.0 + math.sqrt(1.0 + 4.0 * c))) / arrival.rate
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
    independent cross-check for :func:`optimal_threshold`, and admits
    ``r_max`` as it does, before the search.
    """
    r_max = _positive("r_max", r_max)
    _curves(params, arrival.rate, r_max)

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
