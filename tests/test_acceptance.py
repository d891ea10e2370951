"""Acceptance suite: one test per numbered criterion, each printing a single
PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -v -s``).

Statistical notes. Time shifts are serially correlated inside a platoon, so
per-cell mean checks on the robustness grid (criterion 4) use standard
errors computed across 10 independent replications per cell (still 1e5
vehicles per cell), which keeps the 3-sigma band honestly calibrated. PMF
bins on that grid can have expected counts below 1, where a normal band
degenerates, so each bin is tested with an exact two-sided binomial test at
the 3-sigma significance level (alpha = 0.0027). All seeds are frozen, so
every check is deterministic.
"""

import dataclasses
import functools
import math
import random
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from platoonctl import (
    ArrivalModel,
    PlatoonPolicy,
    SimulationConfig,
    ThresholdRegime,
    exact_fuel_increase,
    expected_platoon_headway,
    expected_platoon_size,
    expected_time_reduction,
    expected_total_cost,
    merge_probability,
    merge_time_cost_rate,
    numeric_optimal_threshold,
    optimal_threshold,
    platoon_size_pmf,
    run_replications,
    total_cost_derivative,
)
from platoonctl.cli import main
from platoonctl.simulator import _replication_stats, _summary

from conftest import NOMINAL_RAW, pooled_reference, summary_mismatches

MAIN_SEED = 20260810
GRID_SEED = 7

BINOMIAL_ALPHA = 0.0027  # two-sided 3-sigma significance level


def conclude(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def nominal_scenario():
    return ArrivalModel(rate=0.02), PlatoonPolicy(threshold=50.0)


@pytest.fixture(scope="module")
def big_run(nominal_scenario):
    """Single 1e6-vehicle replication shared by criteria 1-3, with timing."""
    arrival, policy = nominal_scenario
    config = SimulationConfig(
        arrival=arrival, policy=policy, n_vehicles=1_000_000, n_replications=1, seed=MAIN_SEED
    )
    start = time.perf_counter()
    aggregate = run_replications(config)
    elapsed = time.perf_counter() - start
    return aggregate, elapsed


@pytest.fixture(scope="module")
def table_params():
    from platoonctl import RawCostConfig, normalize_units

    return normalize_units(RawCostConfig(**NOMINAL_RAW))


def test_criterion_1_platoon_size_pmf(big_run, nominal_scenario):
    arrival, policy = nominal_scenario
    aggregate, elapsed = big_run
    failures = []
    for y in range(1, 11):
        analytic = platoon_size_pmf(arrival, policy, y)
        gap = abs(aggregate.size_pmf[y] - analytic)
        if gap >= 0.005:
            failures.append(f"pmf({y}) deviates by {gap:.4g}")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f} s >= 10 s")
    conclude(
        1,
        f"size PMF within 0.005 absolute for y <= 10 at 1e6 vehicles ({elapsed:.2f} s)",
        failures,
    )


def test_criterion_2_platoon_headway(big_run, nominal_scenario):
    arrival, policy = nominal_scenario
    aggregate, _ = big_run
    analytic = expected_platoon_headway(arrival, policy)
    est = aggregate.leader_headway
    failures = []
    if abs(est.mean - analytic) / analytic >= 0.01:
        failures.append(f"relative error {abs(est.mean - analytic) / analytic:.4g} >= 1%")
    if abs(est.mean - analytic) > 3.0 * est.ci_half_width:
        failures.append("outside 3 CI half-widths")
    conclude(
        2,
        f"mean leader headway {est.mean:.3f} s vs closed form {analytic:.3f} s "
        "(1% and 3 CI half-widths)",
        failures,
    )


def test_criterion_3_time_reduction(big_run, nominal_scenario):
    arrival, policy = nominal_scenario
    aggregate, _ = big_run
    analytic = expected_time_reduction(arrival, policy)
    est = aggregate.time_shift
    failures = []
    if abs(est.mean - analytic) / analytic >= 0.01:
        failures.append(f"relative error {abs(est.mean - analytic) / analytic:.4g} >= 1%")
    if abs(est.mean - analytic) > 3.0 * est.ci_half_width:
        failures.append("outside 3 CI half-widths")
    conclude(
        3,
        f"mean time shift {est.mean:.3f} s vs closed form {analytic:.3f} s "
        "(1% and 3 CI half-widths)",
        failures,
    )


def test_criterion_4_grid_robustness():
    failures = []
    start = time.perf_counter()
    for rate in (0.01, 0.02, 0.05):
        for threshold in (0.0, 10.0, 50.0, 100.0):
            arrival = ArrivalModel(rate=rate)
            policy = PlatoonPolicy(threshold=threshold)
            config = SimulationConfig(
                arrival=arrival,
                policy=policy,
                n_vehicles=10_000,
                n_replications=10,
                seed=GRID_SEED,
            )
            center = [math.nan, math.nan]
            stats = [_replication_stats(config, rep, [threshold], [center])[0] for rep in range(config.n_replications)]
            per_rep = [_summary(record, center, 1.0 / rate) for record in stats]
            aggregate = _summary(functools.reduce(np.add, stats), center, 1.0 / rate)
            cell = f"(rate={rate}, threshold={threshold})"

            # Means: 3-sigma bands from the spread of replication means.
            checks = (
                ("size", expected_platoon_size(arrival, policy), [s.platoon_size.mean for s in per_rep]),
                ("headway", expected_platoon_headway(arrival, policy), [s.leader_headway.mean for s in per_rep]),
                ("shift", expected_time_reduction(arrival, policy), [s.time_shift.mean for s in per_rep]),
            )
            for name, analytic, means in checks:
                mean = float(np.mean(means))
                band = 3.0 * float(np.std(means, ddof=1)) / math.sqrt(len(means))
                if abs(mean - analytic) > band:
                    failures.append(f"{cell} {name}: |{mean:.4g} - {analytic:.4g}| > {band:.4g}")

            # PMF bins: exact binomial test at the 3-sigma level.
            n_platoons = aggregate.platoon_size.count
            for y in range(1, 11):
                analytic = platoon_size_pmf(arrival, policy, y)
                count = round(aggregate.size_pmf[y] * n_platoons)
                if analytic == 0.0:
                    if count != 0:
                        failures.append(f"{cell} pmf({y}): {count} platoons where none expected")
                    continue
                p_value = scipy_stats.binomtest(count, n_platoons, analytic).pvalue
                if p_value <= BINOMIAL_ALPHA:
                    failures.append(f"{cell} pmf({y}): binomial p-value {p_value:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s >= 60 s")
    conclude(
        4,
        "criteria 1-3 hold in 3-sigma form over rate x threshold grid "
        f"(12 cells x 1e5 vehicles, {elapsed:.1f} s)",
        failures,
    )


def test_criterion_5_exact_identities(table_params):
    failures = []
    scenarios = [(0.01, 10.0), (0.02, 50.0), (0.05, 100.0), (0.2, 30.0)]
    for rate, threshold in scenarios:
        arrival = ArrivalModel(rate=rate)
        policy = PlatoonPolicy(threshold=threshold)
        if expected_platoon_headway(arrival, policy) != expected_platoon_size(arrival, policy) / rate:
            failures.append(f"headway != size/rate at ({rate}, {threshold})")
        q = merge_probability(arrival, policy)
        y_max = math.ceil(math.log(1e-12) / math.log(q))  # the smallest with q^y_max <= 1e-12
        tail = q**y_max
        if tail > 1e-12:
            failures.append(f"tail {tail:.3g} above bound at ({rate}, {threshold})")
        partial = sum(platoon_size_pmf(arrival, policy, y) for y in range(1, y_max + 1))
        if abs(partial - (1.0 - tail)) > 1e-10:
            failures.append(f"partial sum off by {abs(partial - (1.0 - tail)):.3g}")
    for km in (0.0, 5.0, 30.0, 80.0):
        params = dataclasses.replace(table_params, cruise_zone_len=km * 1000.0)
        cost = expected_total_cost(params, ArrivalModel(rate=0.02), PlatoonPolicy(threshold=0.0))
        if cost != 0.0:
            failures.append(f"cost at zero threshold is {cost!r} for cruise zone {km} km")
    conclude(5, "exact identities: headway = size/rate, cost(0) = 0, PMF tail bound", failures)


def test_criterion_6_derivative_check(table_params):
    arrival = ArrivalModel(rate=0.02)
    step = 1e-4
    failures = []
    for r in (10.0, 50.0, 100.0):
        upper = expected_total_cost(table_params, arrival, PlatoonPolicy(threshold=r + step))
        lower = expected_total_cost(table_params, arrival, PlatoonPolicy(threshold=r - step))
        finite_difference = (upper - lower) / (2.0 * step)
        derivative = total_cost_derivative(table_params, arrival, r)
        rel = abs(derivative - finite_difference) / abs(finite_difference)
        if rel >= 1e-6:
            failures.append(f"relative error {rel:.3g} at r={r}")
    conclude(6, "cost derivative matches central differences within 1e-6 relative", failures)


def test_criterion_7_optimizer_equivalence(table_params):
    arrival = ArrivalModel(rate=0.02)
    failures = []
    thresholds = []
    for km in (5.0, 30.0, 80.0):
        params = dataclasses.replace(table_params, cruise_zone_len=km * 1000.0)
        closed = optimal_threshold(params, arrival, 500.0)
        numeric = numeric_optimal_threshold(params, arrival, 500.0)
        thresholds.append(closed.threshold)
        if closed.regime is not ThresholdRegime.INTERIOR_OPTIMUM:
            failures.append(f"{km} km: unexpected regime {closed.regime}")
        if abs(closed.threshold - numeric) > 2e-3:
            failures.append(f"{km} km: closed {closed.threshold:.6f} vs numeric {numeric:.6f}")
        growth = math.exp(arrival.rate * closed.threshold)
        numerator = total_cost_derivative(params, arrival, closed.threshold) * growth
        drafting_value = (
            params.fuel_price
            * params.fuel_saving_fraction
            * params.fuel_per_meter
            * params.cruise_zone_len
        )
        scale = merge_time_cost_rate(params) * (growth * growth + growth) + drafting_value * arrival.rate
        if abs(numerator) > 1e-9 * scale:
            failures.append(f"{km} km: derivative {numerator:.3g} not stationary")
    if not thresholds[0] < thresholds[1] < thresholds[2]:
        failures.append(f"thresholds not increasing in cruise distance: {thresholds}")
    conclude(
        7,
        "closed-form and golden-section optima agree within 2e-3 s and grow with "
        f"cruise distance ({', '.join(f'{t:.2f}' for t in thresholds)} s)",
        failures,
    )


def test_criterion_8_regime_split(table_params):
    arrival = ArrivalModel(rate=0.02)
    params = dataclasses.replace(table_params, value_of_time=100.0 / 3600.0)
    failures = []
    if merge_time_cost_rate(params) > 0.0:
        failures.append("constructed parameters do not satisfy the regime condition")
    result = optimal_threshold(params, arrival, 300.0)
    if result.regime is not ThresholdRegime.UNBOUNDED_DECREASING:
        failures.append(f"regime {result.regime} instead of unbounded_decreasing")
    if result.threshold != 300.0:
        failures.append(f"threshold {result.threshold} instead of r_max")
    costs = [
        expected_total_cost(params, arrival, PlatoonPolicy(threshold=float(r)))
        for r in np.linspace(0.0, 300.0, 301)
    ]
    if not np.all(np.diff(costs) <= 0.0):
        failures.append("cost curve is not non-increasing on [0, r_max]")
    conclude(8, "negative net time price gives unbounded_decreasing with falling cost curve", failures)


def test_criterion_9_monotonicity():
    rng = random.Random(987)
    failures = []
    for _ in range(300):
        rate = rng.uniform(0.005, 0.2)
        r1 = rng.uniform(0.0, 100.0)
        delta = rng.uniform(0.05, 50.0)
        if rate * (r1 + delta) > 25.0:
            continue
        arrival = ArrivalModel(rate=rate)
        lo = PlatoonPolicy(threshold=r1)
        hi = PlatoonPolicy(threshold=r1 + delta)
        pairs = (
            ("size", expected_platoon_size),
            ("headway", expected_platoon_headway),
            ("shift", expected_time_reduction),
            ("merge probability", merge_probability),
        )
        for name, op in pairs:
            if not op(arrival, hi) > op(arrival, lo):
                failures.append(f"{name} not strictly increasing at rate={rate:.4g}, r={r1:.4g}+{delta:.4g}")
    conclude(9, "all four statistics strictly increase with the threshold (randomized grid)", failures)


def test_criterion_10_determinism(tmp_path):
    failures = []

    # CLI: identical config + seed => byte-identical CSV.
    import json

    config = {
        "arrival": {"rate": 0.02},
        "policy": {"threshold": 50.0},
        "cost": dict(NOMINAL_RAW),
        "simulation": {"n_vehicles": 100_000, "n_replications": 2, "seed": 12345},
    }
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    code_a = main(["simulate", "--config", str(config_path), "--csv", str(csv_a)])
    code_b = main(["simulate", "--config", str(config_path), "--csv", str(csv_b)])
    if code_a != 0 or code_b != 0:
        failures.append(f"simulate exit codes {code_a}, {code_b}")
    if csv_a.read_bytes() != csv_b.read_bytes():
        failures.append("CSV output differs between identical invocations")

    # Aggregation is order-independent: about the centers replication 0
    # sets, compute the per-replication records in reverse and add them by
    # index; the result must equal
    # the library aggregate bit for bit. Against the pooled in-memory
    # reference, integer statistics are exact and float ones within 1e-12.
    sim = SimulationConfig(
        arrival=ArrivalModel(rate=0.02),
        policy=PlatoonPolicy(threshold=50.0),
        n_vehicles=20_000,
        n_replications=5,
        seed=MAIN_SEED,
    )
    aggregate = run_replications(sim)
    centers = [[math.nan, math.nan]]
    _replication_stats(sim, 0, [50.0], centers)
    collected = {rep: _replication_stats(sim, rep, [50.0], centers)[0] for rep in reversed(range(sim.n_replications))}
    merged = collected[0]
    for rep in range(1, sim.n_replications):
        merged = merged + collected[rep]
    if _summary(merged, centers[0], 1.0 / sim.arrival.rate) != aggregate:
        failures.append("aggregate depends on replication execution order")
    failures.extend(summary_mismatches(aggregate, pooled_reference(sim)))
    conclude(10, "byte-identical CSV output and order-independent aggregation", failures)


def test_criterion_11_linearization_bound(table_params):
    free_flow = table_params.merge_zone_len / table_params.cruise_speed
    scale = 2.0 * table_params.drag_fuel_coeff * table_params.cruise_speed**3
    failures = []
    for t in np.linspace(1e-6, 0.1 * free_flow, 500):
        exact = exact_fuel_increase(table_params, float(t))
        linear = scale * t
        bound = 3.0 * t / free_flow
        rel = abs(exact - linear) / linear
        if rel > bound:
            failures.append(f"relative deviation {rel:.3g} above {bound:.3g} at t={t:.3g}")
    conclude(11, "exact merge fuel within 3*t/free_flow_time of the first-order term", failures)
