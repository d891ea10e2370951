import dataclasses
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from platoonctl import (
    ArrivalModel,
    PlatoonPolicy,
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
from platoonctl import analytic


def with_cruise_km(params, km):
    return dataclasses.replace(params, cruise_zone_len=km * 1000.0)


# Ulp budgets of the closed forms built on g = expm1(x), which libm gives
# within about 1 ulp: size = g + 1 rounds once more, merge = g / size twice,
# and merge^(y - 1) / size carries merge's error y - 1 times plus size's and
# two more roundings. The worst seen over 300,000 log-uniform x in
# [1e-9, 50] was 1.25 ulp (size) and 2.29 ulp (merge).
SIZE_ULPS = 1.5
MERGE_ULPS = 2.5


def pmf_ulps(y):
    return MERGE_ULPS * (y - 1) + SIZE_ULPS + 1


def ulps_off(got, reference):
    """|got - reference| in units of the last place of ``reference``, a
    50-digit Decimal."""
    return abs(Decimal(got) - reference) / Decimal(math.ulp(float(reference)))


def decimal_pmf(x, y):
    """e^-x * (1 - e^-x)^(y - 1) to 50 digits at the exact double ``x``."""
    with localcontext() as ctx:
        ctx.prec = 50
        boundary = (-Decimal(x)).exp()
        return boundary * (1 - boundary) ** (y - 1)


class TestPlatoonSizePmf:
    def test_zero_threshold_means_all_singletons(self):
        arrival = ArrivalModel(rate=0.02)
        policy = PlatoonPolicy(threshold=0.0)
        assert platoon_size_pmf(arrival, policy, 1) == 1.0
        assert platoon_size_pmf(arrival, policy, 2) == 0.0
        assert platoon_size_pmf(arrival, policy, 7) == 0.0

    def test_negative_zero_threshold_gives_positive_zeros(self):
        policy = PlatoonPolicy(threshold=-0.0)
        arrival = ArrivalModel(rate=0.02)
        for value in (merge_probability(arrival, policy), platoon_size_pmf(arrival, policy, 2)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_nominal_values(self, nominal_arrival, nominal_policy):
        # rate * threshold = 1 here, so the singleton probability is 1/e.
        assert platoon_size_pmf(nominal_arrival, nominal_policy, 1) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )
        assert platoon_size_pmf(nominal_arrival, nominal_policy, 2) == pytest.approx(
            math.exp(-1.0) * (1.0 - math.exp(-1.0)), rel=1e-14
        )

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_sizes_below_one(self, nominal_arrival, nominal_policy, bad):
        with pytest.raises(ValueError, match="y must be"):
            platoon_size_pmf(nominal_arrival, nominal_policy, bad)

    def test_rejects_non_integer_size(self, nominal_arrival, nominal_policy):
        with pytest.raises(ValueError, match="y must be"):
            platoon_size_pmf(nominal_arrival, nominal_policy, 1.5)

    @pytest.mark.parametrize("x", [1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("y", [2, 5])
    def test_keeps_full_precision_at_small_x(self, x, y):
        # 1 - e^-x cancels as x -> 0; merge^(y - 1) / size from expm1(x) does not.
        got = platoon_size_pmf(ArrivalModel(rate=1.0), PlatoonPolicy(threshold=x), y)
        assert ulps_off(got, decimal_pmf(x, y)) <= pmf_ulps(y)

    @pytest.mark.parametrize("rate,threshold", [(0.02, 50.0), (0.01, 10.0), (0.05, 100.0), (0.1, 3.0)])
    def test_truncated_sum_matches_geometric_tail(self, rate, threshold):
        arrival = ArrivalModel(rate=rate)
        policy = PlatoonPolicy(threshold=threshold)
        # The smallest y_max whose geometric tail q^y_max is at most 1e-12.
        q = merge_probability(arrival, policy)
        y_max = math.ceil(math.log(1e-12) / math.log(q))
        tail = q**y_max
        assert tail <= 1e-12
        partial = sum(platoon_size_pmf(arrival, policy, y) for y in range(1, y_max + 1))
        assert partial == pytest.approx(1.0 - tail, abs=1e-10)


class TestExpectedStatistics:
    def test_size_is_one_without_merging(self):
        assert expected_platoon_size(ArrivalModel(rate=0.02), PlatoonPolicy(threshold=0.0)) == 1.0

    def test_size_nominal(self, nominal_arrival, nominal_policy):
        assert expected_platoon_size(nominal_arrival, nominal_policy) == pytest.approx(
            math.e, rel=1e-14
        )

    @pytest.mark.parametrize("rate,threshold", [(0.02, 50.0), (0.05, 20.0), (0.01, 80.0)])
    def test_size_equals_pmf_series_mean(self, rate, threshold):
        arrival = ArrivalModel(rate=rate)
        policy = PlatoonPolicy(threshold=threshold)
        y_max = math.ceil(math.log(1e-12) / math.log(merge_probability(arrival, policy)))
        series = sum(y * platoon_size_pmf(arrival, policy, y) for y in range(1, y_max + 1))
        assert series == pytest.approx(expected_platoon_size(arrival, policy), rel=1e-9)

    def test_headway_reduces_to_mean_gap_without_merging(self):
        arrival = ArrivalModel(rate=0.02)
        assert expected_platoon_headway(arrival, PlatoonPolicy(threshold=0.0)) == pytest.approx(50.0)

    def test_headway_nominal(self, nominal_arrival, nominal_policy):
        assert expected_platoon_headway(nominal_arrival, nominal_policy) == pytest.approx(
            math.e / 0.02, rel=1e-14
        )

    @pytest.mark.parametrize("rate", [0.01, 0.02, 0.05, 0.2])
    @pytest.mark.parametrize("threshold", [0.0, 1.0, 10.0, 50.0, 100.0])
    def test_headway_is_size_over_rate_exactly(self, rate, threshold):
        arrival = ArrivalModel(rate=rate)
        policy = PlatoonPolicy(threshold=threshold)
        assert expected_platoon_headway(arrival, policy) == (
            expected_platoon_size(arrival, policy) / rate
        )

    def test_time_reduction_zero_without_merging(self):
        assert expected_time_reduction(ArrivalModel(rate=0.02), PlatoonPolicy(threshold=0.0)) == 0.0

    def test_time_reduction_nominal(self, nominal_arrival, nominal_policy):
        assert expected_time_reduction(nominal_arrival, nominal_policy) == pytest.approx(
            50.0 * math.e - 100.0, rel=1e-14
        )

    @pytest.mark.parametrize("threshold", [1e-9, 1e-6, 1e-3, 0.025, 25.0])
    def test_time_reduction_keeps_full_precision_at_small_x(self, threshold):
        # Exact rational reference: (e^x - 1 - x) / rate = threshold * sum over
        # k >= 2 of x^(k-1) / k!, at x = rate * threshold of the two doubles.
        rate = 0.02
        x = Fraction(rate) * Fraction(threshold)
        exact, term, k = Fraction(0), Fraction(threshold), 1
        while term > exact * Fraction(1, 10**40):
            k += 1
            term = term * x / k
            exact += term
        got = expected_time_reduction(ArrivalModel(rate=rate), PlatoonPolicy(threshold=threshold))
        assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    def test_time_reduction_small_threshold_is_quadratic(self):
        # Second-order behavior: about rate * threshold^2 / 2 for small products.
        arrival = ArrivalModel(rate=0.02)
        value = expected_time_reduction(arrival, PlatoonPolicy(threshold=1.0))
        assert value == pytest.approx(0.02 * 1.0**2 / 2.0, rel=0.01)

    def test_merge_probability_values(self, nominal_arrival, nominal_policy):
        assert merge_probability(nominal_arrival, PlatoonPolicy(threshold=0.0)) == 0.0
        assert merge_probability(nominal_arrival, nominal_policy) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-14
        )

    def test_merge_probability_approaches_one_in_rate(self):
        policy = PlatoonPolicy(threshold=5.0)
        values = [merge_probability(ArrivalModel(rate=r), policy) for r in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0 - 1e-10

    def test_statistics_bundle_is_consistent(self, nominal_arrival, nominal_policy):
        stats = platoon_statistics(nominal_arrival, nominal_policy)
        assert stats.merge_probability == merge_probability(nominal_arrival, nominal_policy)
        assert stats.expected_platoon_size == expected_platoon_size(nominal_arrival, nominal_policy)
        assert stats.expected_platoon_headway == expected_platoon_headway(
            nominal_arrival, nominal_policy
        )
        assert stats.expected_time_reduction == expected_time_reduction(
            nominal_arrival, nominal_policy
        )

    @given(
        rate=st.floats(min_value=0.005, max_value=0.2),
        r1=st.floats(min_value=0.0, max_value=100.0),
        delta=st.floats(min_value=0.05, max_value=50.0),
    )
    def test_statistics_strictly_increase_with_threshold(self, rate, r1, delta):
        assume(rate * (r1 + delta) <= 25.0)
        arrival = ArrivalModel(rate=rate)
        lo = PlatoonPolicy(threshold=r1)
        hi = PlatoonPolicy(threshold=r1 + delta)
        assert expected_platoon_size(arrival, hi) > expected_platoon_size(arrival, lo)
        assert expected_platoon_headway(arrival, hi) > expected_platoon_headway(arrival, lo)
        assert expected_time_reduction(arrival, hi) > expected_time_reduction(arrival, lo)
        assert merge_probability(arrival, hi) > merge_probability(arrival, lo)

    @given(
        rate=st.floats(min_value=1e-3, max_value=1.0),
        threshold=st.floats(min_value=0.0, max_value=1000.0),
    )
    def test_time_reduction_never_negative(self, rate, threshold):
        assume(rate * threshold <= 50.0)
        assert expected_time_reduction(ArrivalModel(rate=rate), PlatoonPolicy(threshold=threshold)) >= 0.0

    @given(
        rate=st.floats(min_value=1e-3, max_value=1.0),
        threshold=st.floats(min_value=0.0, max_value=1000.0),
    )
    def test_statistics_bundle_invariants(self, rate, threshold):
        # Above rate * threshold of about 38 the merge probability rounds to
        # exactly 1.0 in double precision, so the strict bound is only
        # testable below that.
        assume(rate * threshold <= 30.0)
        stats = platoon_statistics(ArrivalModel(rate=rate), PlatoonPolicy(threshold=threshold))
        assert 0.0 <= stats.merge_probability < 1.0
        assert stats.expected_platoon_size >= 1.0
        assert stats.expected_platoon_headway >= 1.0 / rate
        assert stats.expected_time_reduction >= 0.0

    def test_size_merge_and_pmf_within_their_ulp_budget(self):
        # About 2,000 x log-uniform in [1e-9, 50], each the exact double that
        # the closed forms see (rate 1), after the worst size and merge x seen.
        rng = random.Random(2019)
        xs = [37.13223492582455, 0.0077865225280965775]
        xs += [math.exp(rng.uniform(math.log(1e-9), math.log(50.0))) for _ in range(2000)]
        arrival = ArrivalModel(rate=1.0)
        for x in xs:
            policy = PlatoonPolicy(threshold=x)
            stats = platoon_statistics(arrival, policy)
            with localcontext() as ctx:
                ctx.prec = 50
                size = Decimal(x).exp()
                merge = 1 - 1 / size
            assert ulps_off(stats.expected_platoon_size, size) <= SIZE_ULPS, x
            assert ulps_off(stats.merge_probability, merge) <= MERGE_ULPS, x
            for y in (2, 5, 10):
                assert ulps_off(platoon_size_pmf(arrival, policy, y), decimal_pmf(x, y)) <= pmf_ulps(y), (x, y)

    def test_huge_threshold_product_rejected(self):
        arrival = ArrivalModel(rate=0.5)
        policy = PlatoonPolicy(threshold=200.0)  # product 100 > 50
        for op in (
            expected_platoon_size,
            expected_platoon_headway,
            expected_time_reduction,
            merge_probability,
        ):
            with pytest.raises(ValueError, match="rate \\* threshold"):
                op(arrival, policy)
        with pytest.raises(ValueError, match="rate \\* threshold"):
            platoon_size_pmf(arrival, policy, 1)


class TestFuelModel:
    def test_exact_increase_is_zero_without_shift(self, nominal_params):
        assert exact_fuel_increase(nominal_params, 0.0) == 0.0

    def test_exact_increase_close_to_linearized_for_small_shift(self, nominal_params):
        # Free-flow merging-zone traverse time pinned to 100 s.
        params = dataclasses.replace(
            nominal_params, merge_zone_len=100.0 * nominal_params.cruise_speed
        )
        exact = exact_fuel_increase(params, 1.0)
        linear = 2.0 * params.drag_fuel_coeff * params.cruise_speed**3 * 1.0
        assert exact == pytest.approx(linear, rel=0.02)
        assert exact > linear  # speeding up costs more than the first-order term

    def test_exact_increase_rejects_infeasible_shift(self, nominal_params):
        free_flow = nominal_params.merge_zone_len / nominal_params.cruise_speed
        with pytest.raises(ValueError, match="cannot be recovered"):
            exact_fuel_increase(nominal_params, free_flow)
        with pytest.raises(ValueError, match="cannot be recovered"):
            exact_fuel_increase(nominal_params, free_flow * 1.5)

    def test_exact_increase_rejects_negative_shift(self, nominal_params):
        with pytest.raises(ValueError, match="t_shift"):
            exact_fuel_increase(nominal_params, -0.1)

    def test_linearization_error_bound(self, nominal_params):
        # Relative deviation from the first-order term stays below
        # 3 * shift / free_flow_time for shifts up to a tenth of the zone.
        params = nominal_params
        free_flow = params.merge_zone_len / params.cruise_speed
        scale = 2.0 * params.drag_fuel_coeff * params.cruise_speed**3
        for t in np.linspace(1e-6, 0.1 * free_flow, 250):
            exact = exact_fuel_increase(params, float(t))
            linear = scale * t
            assert abs(exact - linear) / linear <= 3.0 * t / free_flow

    def test_expected_increase_linearized(self, nominal_params, nominal_arrival, nominal_policy):
        expected = (
            2.0
            * nominal_params.drag_fuel_coeff
            * nominal_params.cruise_speed**3
            * expected_time_reduction(nominal_arrival, nominal_policy)
        )
        got = expected_fuel_increase_linearized(nominal_params, nominal_arrival, nominal_policy)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got > 0.0

    def test_expected_increase_zero_without_merging(self, nominal_params, nominal_arrival):
        assert (
            expected_fuel_increase_linearized(
                nominal_params, nominal_arrival, PlatoonPolicy(threshold=0.0)
            )
            == 0.0
        )

    def test_expected_increase_linear_in_drag_coeff(
        self, nominal_params, nominal_arrival, nominal_policy
    ):
        doubled = dataclasses.replace(
            nominal_params, drag_fuel_coeff=2.0 * nominal_params.drag_fuel_coeff
        )
        assert expected_fuel_increase_linearized(
            doubled, nominal_arrival, nominal_policy
        ) == pytest.approx(
            2.0 * expected_fuel_increase_linearized(nominal_params, nominal_arrival, nominal_policy),
            rel=1e-14,
        )

    def test_cruise_saving_nominal(self, nominal_params, nominal_arrival, nominal_policy):
        expected = 0.1 * 4.1e-4 * 30000.0 * (1.0 - math.exp(-1.0))
        got = expected_fuel_saving_cruise(nominal_params, nominal_arrival, nominal_policy)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_cruise_saving_zero_cases(self, nominal_params, nominal_arrival, nominal_policy):
        assert (
            expected_fuel_saving_cruise(nominal_params, nominal_arrival, PlatoonPolicy(threshold=0.0))
            == 0.0
        )
        no_cruise = with_cruise_km(nominal_params, 0.0)
        assert expected_fuel_saving_cruise(no_cruise, nominal_arrival, nominal_policy) == 0.0


class TestTotalCost:
    def test_zero_at_zero_threshold(self, nominal_params, nominal_arrival):
        assert expected_total_cost(nominal_params, nominal_arrival, PlatoonPolicy(threshold=0.0)) == 0.0

    def test_curve_dips_then_rises_for_medium_cruise_zone(self, nominal_params, nominal_arrival):
        params = with_cruise_km(nominal_params, 30.0)
        grid = np.linspace(0.0, 200.0, 201)
        costs = [
            expected_total_cost(params, nominal_arrival, PlatoonPolicy(threshold=float(r)))
            for r in grid
        ]
        diffs = np.diff(costs)
        # strictly down, one turning point, then strictly up
        sign_changes = np.sum(np.diff(np.sign(diffs)) != 0)
        assert diffs[0] < 0.0
        assert diffs[-1] > 0.0
        assert sign_changes == 1
        argmin = float(grid[int(np.argmin(costs))])
        best = optimal_threshold(params, nominal_arrival, 500.0).threshold
        assert abs(argmin - best) <= 1.0  # within one grid step

    def test_negative_cost_at_optimum_for_long_cruise_zone(self, nominal_params, nominal_arrival):
        params = with_cruise_km(nominal_params, 80.0)
        result = optimal_threshold(params, nominal_arrival, 500.0)
        assert result.cost_at_threshold < 0.0

    def test_derivative_at_zero_threshold(self, nominal_params, nominal_arrival):
        drafting_value = (
            nominal_params.fuel_price
            * nominal_params.fuel_saving_fraction
            * nominal_params.fuel_per_meter
            * nominal_params.cruise_zone_len
        )
        got = total_cost_derivative(nominal_params, nominal_arrival, 0.0)
        assert got == -drafting_value * nominal_arrival.rate
        assert got < 0.0

    @pytest.mark.parametrize("r", [10.0, 50.0, 100.0])
    def test_derivative_matches_central_difference(self, nominal_params, nominal_arrival, r):
        step = 1e-4
        upper = expected_total_cost(nominal_params, nominal_arrival, PlatoonPolicy(threshold=r + step))
        lower = expected_total_cost(nominal_params, nominal_arrival, PlatoonPolicy(threshold=r - step))
        finite_difference = (upper - lower) / (2.0 * step)
        derivative = total_cost_derivative(nominal_params, nominal_arrival, r)
        assert derivative == pytest.approx(finite_difference, rel=1e-6)

    def test_derivative_positive_without_cruise_zone(self, nominal_params, nominal_arrival):
        params = with_cruise_km(nominal_params, 0.0)
        assert merge_time_cost_rate(params) > 0.0
        for r in (0.5, 5.0, 50.0, 200.0):
            assert total_cost_derivative(params, nominal_arrival, r) > 0.0

    def test_derivative_rejects_negative_threshold(self, nominal_params, nominal_arrival):
        with pytest.raises(ValueError, match="r must be"):
            total_cost_derivative(nominal_params, nominal_arrival, -1.0)


class TestOptimalThreshold:
    def test_interior_optimum_matches_grid_search(self, nominal_params, nominal_arrival):
        params = with_cruise_km(nominal_params, 30.0)
        result = optimal_threshold(params, nominal_arrival, 500.0)
        assert result.regime is ThresholdRegime.INTERIOR_OPTIMUM
        assert not result.clamped
        grid = np.arange(0.0, 500.0 + 1e-9, 0.01)
        costs = [
            expected_total_cost(params, nominal_arrival, PlatoonPolicy(threshold=float(r)))
            for r in grid
        ]
        grid_best = float(grid[int(np.argmin(costs))])
        assert abs(result.threshold - grid_best) <= 0.02

    def test_interior_optimum_is_stationary(self, nominal_params, nominal_arrival):
        for km in (5.0, 30.0, 80.0):
            params = with_cruise_km(nominal_params, km)
            result = optimal_threshold(params, nominal_arrival, 500.0)
            rate = nominal_arrival.rate
            net_rate = merge_time_cost_rate(params)
            drafting_value = (
                params.fuel_price
                * params.fuel_saving_fraction
                * params.fuel_per_meter
                * params.cruise_zone_len
            )
            growth = math.exp(rate * result.threshold)
            numerator = total_cost_derivative(params, nominal_arrival, result.threshold) * growth
            scale = net_rate * (growth * growth + growth) + drafting_value * rate
            assert abs(numerator) <= 1e-9 * scale

    def test_threshold_increases_with_cruise_zone(self, nominal_params, nominal_arrival):
        thresholds = [
            optimal_threshold(with_cruise_km(nominal_params, km), nominal_arrival, 500.0).threshold
            for km in (5.0, 30.0, 80.0)
        ]
        assert thresholds[0] < thresholds[1] < thresholds[2]

    def test_unbounded_regime_when_time_value_dominates(self, nominal_params, nominal_arrival):
        params = dataclasses.replace(nominal_params, value_of_time=100.0 / 3600.0)
        assert merge_time_cost_rate(params) <= 0.0
        result = optimal_threshold(params, nominal_arrival, 300.0)
        assert result.regime is ThresholdRegime.UNBOUNDED_DECREASING
        assert result.threshold == 300.0
        assert not result.clamped

    def test_clamps_interior_optimum_to_r_max(self, nominal_params, nominal_arrival):
        params = with_cruise_km(nominal_params, 30.0)
        free = optimal_threshold(params, nominal_arrival, 500.0)
        clamped = optimal_threshold(params, nominal_arrival, free.threshold / 2.0)
        assert clamped.regime is ThresholdRegime.INTERIOR_OPTIMUM
        assert clamped.clamped
        assert clamped.threshold == free.threshold / 2.0

    def test_no_cruise_zone_gives_zero_threshold(self, nominal_params, nominal_arrival):
        params = with_cruise_km(nominal_params, 0.0)
        result = optimal_threshold(params, nominal_arrival, 500.0)
        assert result.threshold == 0.0
        assert result.cost_at_threshold == 0.0

    def test_rejects_non_positive_r_max(self, nominal_params, nominal_arrival):
        with pytest.raises(ValueError, match="r_max"):
            optimal_threshold(nominal_params, nominal_arrival, 0.0)

    @pytest.mark.parametrize("rate", [1e-5, 1e-8, 1e-11])
    def test_keeps_full_precision_at_small_rates(self, nominal_params, rate):
        # ln(1/2 + 1/2 * sqrt(4c + 1)) cancels as c = drafting * rate / net -> 0;
        # log1p(2c / (1 + sqrt(1 + 4c))) does not.
        result = optimal_threshold(nominal_params, ArrivalModel(rate=rate), 49.0 / rate)
        assert not result.clamped
        with localcontext() as ctx:
            ctx.prec = 50
            c = Decimal(nominal_params.drafting_value) * Decimal(rate) / Decimal(merge_time_cost_rate(nominal_params))
            reference = (Decimal("0.5") + Decimal("0.5") * (4 * c + 1).sqrt()).ln() / Decimal(rate)
        assert ulps_off(result.threshold, reference) <= 4


class TestNumericOptimalThreshold:
    @pytest.mark.parametrize("km", [5.0, 30.0, 80.0])
    def test_agrees_with_closed_form(self, nominal_params, nominal_arrival, km):
        params = with_cruise_km(nominal_params, km)
        closed = optimal_threshold(params, nominal_arrival, 500.0).threshold
        numeric = numeric_optimal_threshold(params, nominal_arrival, 500.0)
        assert abs(closed - numeric) <= 2e-3

    def test_no_cruise_zone_converges_to_zero(self, nominal_params, nominal_arrival):
        params = with_cruise_km(nominal_params, 0.0)
        assert numeric_optimal_threshold(params, nominal_arrival, 100.0) <= 1e-3

    def test_unbounded_regime_converges_to_r_max(self, nominal_params, nominal_arrival):
        params = dataclasses.replace(nominal_params, value_of_time=100.0 / 3600.0)
        got = numeric_optimal_threshold(params, nominal_arrival, 300.0)
        assert got >= 300.0 - 1e-3

    def test_bracket_that_stops_narrowing_ends_the_search(self, nominal_params, monkeypatch):
        # A merge-time cost rate of 1000 ulps of the drag term puts the
        # optimum near 1.8e13 s, where floats are 2^-8 s apart: the bracket
        # stops narrowing 0.0039 s wide, above GOLDEN_TOL, so a loop stopped
        # by the tolerance alone would evaluate the cost forever.
        marginal = 2.0 * nominal_params.drag_fuel_coeff * nominal_params.fuel_price * nominal_params.cruise_speed**3
        params = dataclasses.replace(nominal_params, value_of_time=marginal - 1000 * math.ulp(marginal))
        arrival = ArrivalModel(rate=1e-13)
        r_max = 49.0 / arrival.rate
        evaluations = 0

        def counted(*args):
            nonlocal evaluations
            evaluations += 1
            assert evaluations < 10_000, "the golden-section search does not end"
            return expected_total_cost(*args)

        closed = optimal_threshold(params, arrival, r_max)
        assert closed.regime is ThresholdRegime.INTERIOR_OPTIMUM and not closed.clamped
        monkeypatch.setattr(analytic, "expected_total_cost", counted)
        numeric = numeric_optimal_threshold(params, arrival, r_max)
        assert numeric == pytest.approx(closed.threshold, rel=1e-6)
        assert math.ulp(numeric) > analytic.GOLDEN_TOL

    @pytest.mark.parametrize("km", [0.0, 5.0, 30.0, 80.0])
    def test_tolerance_below_the_float_spacing_ends(self, nominal_params, nominal_arrival, km, monkeypatch):
        # With GOLDEN_TOL below the floats' spacing near the optimum, no
        # bracket gets that narrow, so the search ends when a step stops
        # narrowing it; a loop without that stop would evaluate the cost forever.
        evaluations = 0

        def counted(*args):
            nonlocal evaluations
            evaluations += 1
            assert evaluations < 10_000, "the golden-section search does not end"
            return expected_total_cost(*args)

        params = with_cruise_km(nominal_params, km)
        closed = optimal_threshold(params, nominal_arrival, 500.0).threshold
        monkeypatch.setattr(analytic, "expected_total_cost", counted)
        monkeypatch.setattr(analytic, "GOLDEN_TOL", 1e-300)
        numeric = numeric_optimal_threshold(params, nominal_arrival, 500.0)
        assert abs(closed - numeric) <= 1e-6

    @pytest.mark.parametrize("tol", [1e-1, 1e-3, 1e-9])
    @pytest.mark.parametrize("km", [5.0, 30.0])
    def test_stop_on_no_progress_leaves_ordinary_tolerances_alone(
        self, nominal_params, nominal_arrival, km, tol, monkeypatch
    ):
        # The plain golden-section loop, stopped by the tolerance alone: where
        # the bracket still narrows, the result must not change by a bit, at
        # GOLDEN_TOL (1e-3) and at tolerances either side of it.
        monkeypatch.setattr(analytic, "GOLDEN_TOL", tol)
        params = with_cruise_km(nominal_params, km)

        def cost(r):
            return expected_total_cost(params, nominal_arrival, PlatoonPolicy(threshold=r))

        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 0.0, 500.0
        left, right = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        f_left, f_right = cost(left), cost(right)
        while hi - lo > tol:
            if f_left < f_right:
                hi, right, f_right = right, left, f_left
                left = hi - inv_phi * (hi - lo)
                f_left = cost(left)
            else:
                lo, left, f_left = left, right, f_right
                right = lo + inv_phi * (hi - lo)
                f_right = cost(right)
        got = numeric_optimal_threshold(params, nominal_arrival, 500.0)
        assert got.hex() == (0.5 * (lo + hi)).hex()


class TestThresholdCurves:
    @pytest.mark.parametrize("rate, r_max", [(0.02, 400.0), (0.125, 400.0), (0.02, 1e-16)])
    def test_every_element_equals_the_scalar_function(self, nominal_params, rate, r_max):
        arrival = ArrivalModel(rate=rate)
        grid = np.linspace(0.0, r_max, 1001)
        curves = analytic._curves(nominal_params, rate, grid)
        scalar = {
            "merge_probability": lambda p: merge_probability(arrival, p),
            "expected_platoon_size": lambda p: expected_platoon_size(arrival, p),
            "expected_platoon_headway": lambda p: expected_platoon_headway(arrival, p),
            "expected_time_reduction": lambda p: expected_time_reduction(arrival, p),
            "expected_fuel_increase": lambda p: expected_fuel_increase_linearized(nominal_params, arrival, p),
            "expected_fuel_saving": lambda p: expected_fuel_saving_cruise(nominal_params, arrival, p),
            "expected_total_cost": lambda p: expected_total_cost(nominal_params, arrival, p),
        }
        assert curves.threshold.tolist() == grid.tolist()
        for name, fn in scalar.items():
            want = [fn(PlatoonPolicy(threshold=r)).hex() for r in grid.tolist()]
            got = [value.hex() for value in getattr(curves, name).tolist()]
            assert got == want, name

    @pytest.mark.parametrize("rate", [0.02, 0.125])
    def test_libm_equals_the_scalar_calls_bit_for_bit(self, rate):
        # x up to 8 at rate 0.02 and up to 50 at rate 0.125; negated, strided
        # and reversed views read through the same buffer as the grid.
        x = rate * np.linspace(0.0, 400.0, 100_001)
        for values in (x, -x, x[::3], x[::-1]):
            want = np.array([math.expm1(v) for v in values.tolist()])
            assert analytic._expm1(values).view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("x", [0, 1, -0.0, 0.0, 5e-324, 1e-9, 0.02 * 2500.0, -50.0])
    def test_a_number_gives_the_libm_float(self, x):
        # Numbers take the scalar path: a plain float, never a numpy scalar,
        # with the sign of -0.0 and the subnormal kept.
        got = analytic._expm1(x)
        assert type(got) is float
        assert got.hex() == math.expm1(x).hex()
