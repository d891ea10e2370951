import math

import numpy as np
import pytest

from platoonctl import (
    ArrivalModel,
    EmpiricalSummary,
    PlatoonPolicy,
    RawCostConfig,
    StatEstimate,
    normalize_units,
    run_from_interarrivals,
    sample_interarrivals,
)
from platoonctl.domain import Z_95

# Nominal planning values used throughout the suite (mixed units).
NOMINAL_RAW = dict(
    value_of_time_per_h=25.8,
    fuel_price_per_l=0.868,
    drag_fuel_coeff=6.78e-7,
    fuel_per_100km=41.0,
    fuel_saving_fraction=0.1,
    cruise_speed_mph=55.0,
    merge_zone_km=2.5,
    cruise_zone_km=30.0,
    nominal_merge_time_s=100.0,
)


@pytest.fixture
def nominal_raw():
    return RawCostConfig(**NOMINAL_RAW)


@pytest.fixture
def nominal_params(nominal_raw):
    return normalize_units(nominal_raw)


@pytest.fixture
def nominal_arrival():
    return ArrivalModel(rate=0.02)


@pytest.fixture
def nominal_policy():
    return PlatoonPolicy(threshold=50.0)


def reference_estimate(values, statistic):
    """Mean and 95% half-width by numpy's ``mean`` and ``std(ddof=1)``,
    independent of the simulator's mergeable moments."""
    if values.size == 0:
        raise ValueError(f"no {statistic} samples to summarize")
    half_width = Z_95 * float(np.std(values, ddof=1)) / math.sqrt(values.size) if values.size >= 2 else 0.0
    return StatEstimate(mean=float(np.mean(values)), ci_half_width=half_width, count=int(values.size))


def run_samples(run):
    """The (sizes, headways, shifts) samples ``summarize`` takes from a run:
    the censored last platoon left out."""
    return run.platoon_sizes[:-1], run.leader_headways, run.time_shifts


def reference_summary(sizes, headways, shifts):
    """The ``EmpiricalSummary`` of raw samples, with the simulator's error
    messages, computed by the reference estimator; the PMF covers sizes
    1..10."""
    counts = np.bincount(sizes, minlength=11)
    return EmpiricalSummary(
        platoon_size=reference_estimate(sizes, "platoon-size (all platoons censored)"),
        leader_headway=reference_estimate(headways, "leader-headway (fewer than two platoons)"),
        time_shift=reference_estimate(shifts, "time-shift"),
        size_pmf={y: float(counts[y] / sizes.size) for y in range(1, 11)},
    )


def pooled_reference(config):
    """``run_replications`` as the in-memory reference computes it: every
    replication as a full ``SimulationRun`` and summarized on its own, raw
    samples concatenated in replication-index order for the aggregate.
    Returns (aggregate, per_replication)."""
    parts, per_replication = [], []
    for rep in range(config.n_replications):
        try:
            gaps = sample_interarrivals(config.seed, config.n_vehicles, config.arrival, replication=rep)
            run = run_from_interarrivals(gaps, config.policy)
            parts.append(run_samples(run))
            per_replication.append(reference_summary(*parts[-1]))
        except ValueError as exc:
            raise ValueError(f"replication {rep}: {exc}") from exc
    aggregate = reference_summary(*(np.concatenate([p[i] for p in parts]) for i in range(3)))
    return aggregate, per_replication


def summary_mismatches(summary, reference, rel=1e-12):
    """Where ``summary`` departs from ``reference``: counts, the PMF and the
    mean platoon size must be equal; float means and half-widths within
    ``rel``."""
    problems = []
    for name in ("platoon_size", "leader_headway", "time_shift"):
        got, want = getattr(summary, name), getattr(reference, name)
        if got.count != want.count:
            problems.append(f"{name} count {got.count} != {want.count}")
        for field in ("mean", "ci_half_width"):
            a, b = getattr(got, field), getattr(want, field)
            if not math.isclose(a, b, rel_tol=rel, abs_tol=0.0):
                problems.append(f"{name}.{field} {a!r} != {b!r}")
    if summary.platoon_size.mean != reference.platoon_size.mean:
        problems.append("mean platoon size is not exactly equal")
    if summary.size_pmf != reference.size_pmf:
        problems.append("size PMF is not exactly equal")
    return problems
