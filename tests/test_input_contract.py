"""The input contract of every public entry point that takes a number: a
bad value raises ValueError naming the argument, never TypeError or
OverflowError, and bools are not numbers."""

import dataclasses
import math
import re

import pytest

from platoonctl import (
    ArrivalModel,
    CostParameters,
    PlatoonPolicy,
    RawCostConfig,
    SimulationConfig,
    exact_fuel_increase,
    normalize_units,
    numeric_optimal_threshold,
    optimal_threshold,
    platoon_size_pmf,
    sample_interarrivals,
    total_cost_derivative,
    truncation_cutoff,
)
from platoonctl.analytic import threshold_curves
from platoonctl.cli import SweepSpec

from conftest import NOMINAL_RAW

ARRIVAL = ArrivalModel(rate=0.02)
POLICY = PlatoonPolicy(threshold=50.0)
PARAMS = normalize_units(RawCostConfig(**NOMINAL_RAW))
SIMULATION = dict(arrival=ARRIVAL, policy=POLICY, n_vehicles=1000, n_replications=1, seed=1)


# (entry point, argument name, call with the bad value as that argument)
FLOAT_ARGS = [
    ("ArrivalModel", "rate", lambda v: ArrivalModel(rate=v)),
    ("PlatoonPolicy", "threshold", lambda v: PlatoonPolicy(threshold=v)),
    *[
        ("CostParameters", f.name, lambda v, f=f: dataclasses.replace(PARAMS, **{f.name: v}))
        for f in dataclasses.fields(CostParameters)
    ],
    *[("RawCostConfig", name, lambda v, name=name: RawCostConfig(**{**NOMINAL_RAW, name: v})) for name in NOMINAL_RAW],
    ("SweepSpec", "r_min", lambda v: SweepSpec(r_min=v, r_max=100.0, n_points=5)),
    ("SweepSpec", "r_max", lambda v: SweepSpec(r_min=0.0, r_max=v, n_points=5)),
    ("optimal_threshold", "r_max", lambda v: optimal_threshold(PARAMS, ARRIVAL, r_max=v)),
    ("numeric_optimal_threshold", "r_max", lambda v: numeric_optimal_threshold(PARAMS, ARRIVAL, r_max=v)),
    ("total_cost_derivative", "r", lambda v: total_cost_derivative(PARAMS, ARRIVAL, r=v)),
    ("exact_fuel_increase", "t_shift", lambda v: exact_fuel_increase(PARAMS, t_shift=v)),
    ("truncation_cutoff", "tail_mass", lambda v: truncation_cutoff(ARRIVAL, POLICY, tail_mass=v)),
    ("threshold_curves", "thresholds", lambda v: threshold_curves(PARAMS, ARRIVAL, [0.0, v])),
]
# An int of more than 4300 digits also checks that no message formats it:
# str() refuses such ints.
BAD_FLOATS = {"beyond-float": 10**400, "4301-digits": -(10**4300), "bool": True, "str": "1", "nan": math.nan}

INTEGER_ARGS = [
    ("platoon_size_pmf", "y", lambda v: platoon_size_pmf(ARRIVAL, POLICY, y=v)),
    *[
        ("SimulationConfig", name, lambda v, name=name: SimulationConfig(**{**SIMULATION, name: v}))
        for name in ("n_vehicles", "n_replications", "seed")
    ],
    ("sample_interarrivals", "n", lambda v: sample_interarrivals(1, v, ARRIVAL)),
    ("sample_interarrivals", "seed", lambda v: sample_interarrivals(v, 10, ARRIVAL)),
    ("sample_interarrivals", "replication", lambda v: sample_interarrivals(1, 10, ARRIVAL, replication=v)),
    ("SweepSpec", "n_points", lambda v: SweepSpec(r_min=0.0, r_max=100.0, n_points=v)),
]
BAD_INTEGERS = {"bool": True, "str": "1", "float": 1.5, "beyond-float": 10**400, "4301-digits": -(10**4300)}


def _cases(args, bad_values):
    return [
        pytest.param(name, call, bad, id=f"{entry}.{name}-{label}")
        for entry, name, call in args
        for label, bad in bad_values.items()
    ]


@pytest.mark.parametrize(
    "name,call,bad", _cases(FLOAT_ARGS, BAD_FLOATS) + _cases(INTEGER_ARGS, BAD_INTEGERS)
)
def test_bad_number_raises_value_error_naming_the_argument(name, call, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be"):
        call(bad)
