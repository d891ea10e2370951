import dataclasses
import math
import re

import pytest
from hypothesis import given, strategies as st

from platoonctl import (
    ArrivalModel,
    CostParameters,
    PlatoonPolicy,
    RawCostConfig,
    normalize_units,
)
from platoonctl.domain import METERS_PER_MILE, SECONDS_PER_HOUR

from conftest import NOMINAL_RAW, OVERFLOWING_COSTS


class TestNormalizeUnits:
    def test_value_of_time_per_hour_to_per_second(self, nominal_params):
        assert nominal_params.value_of_time == pytest.approx(25.8 / 3600.0, rel=1e-15)

    def test_speed_mph_to_m_per_s(self, nominal_params):
        assert nominal_params.cruise_speed == pytest.approx(55.0 * 1609.344 / 3600.0, rel=1e-15)
        assert nominal_params.cruise_speed == pytest.approx(24.5872, rel=1e-12)

    def test_fuel_per_100km_to_per_meter(self, nominal_params):
        assert nominal_params.fuel_per_meter == pytest.approx(4.1e-4, rel=1e-15)

    def test_km_zones_to_meters(self, nominal_params):
        assert nominal_params.merge_zone_len == pytest.approx(2500.0, rel=1e-15)
        assert nominal_params.cruise_zone_len == pytest.approx(30000.0, rel=1e-15)

    def test_pass_through_fields(self, nominal_raw, nominal_params):
        assert nominal_params.fuel_price == nominal_raw.fuel_price_per_l
        assert nominal_params.drag_fuel_coeff == nominal_raw.drag_fuel_coeff
        assert nominal_params.fuel_saving_fraction == nominal_raw.fuel_saving_fraction
        assert nominal_params.nominal_merge_time == nominal_raw.nominal_merge_time_s

    @given(
        value_of_time=st.floats(min_value=1e-3, max_value=1e4),
        fuel_price=st.floats(min_value=1e-3, max_value=1e3),
        drag=st.floats(min_value=1e-12, max_value=1e-3),
        fuel=st.floats(min_value=1e-2, max_value=1e3),
        saving=st.floats(min_value=0.01, max_value=0.99),
        speed=st.floats(min_value=1.0, max_value=300.0),
        merge_km=st.floats(min_value=1e-2, max_value=1e3),
        cruise_km=st.floats(min_value=0.0, max_value=1e4),
        t0=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_round_trip_is_stable(
        self, value_of_time, fuel_price, drag, fuel, saving, speed, merge_km, cruise_km, t0
    ):
        raw = RawCostConfig(
            value_of_time_per_h=value_of_time,
            fuel_price_per_l=fuel_price,
            drag_fuel_coeff=drag,
            fuel_per_100km=fuel,
            fuel_saving_fraction=saving,
            cruise_speed_mph=speed,
            merge_zone_km=merge_km,
            cruise_zone_km=cruise_km,
            nominal_merge_time_s=t0,
        )
        params = normalize_units(raw)
        back = RawCostConfig(
            value_of_time_per_h=params.value_of_time * SECONDS_PER_HOUR,
            fuel_price_per_l=params.fuel_price,
            drag_fuel_coeff=params.drag_fuel_coeff,
            fuel_per_100km=params.fuel_per_meter * 100_000.0,
            fuel_saving_fraction=params.fuel_saving_fraction,
            cruise_speed_mph=params.cruise_speed * SECONDS_PER_HOUR / METERS_PER_MILE,
            merge_zone_km=params.merge_zone_len / 1000.0,
            cruise_zone_km=params.cruise_zone_len / 1000.0,
            nominal_merge_time_s=params.nominal_merge_time,
        )
        again = normalize_units(back)
        for field in dataclasses.fields(CostParameters):
            first = getattr(params, field.name)
            second = getattr(again, field.name)
            assert second == pytest.approx(first, rel=1e-12, abs=1e-300)


class TestValidation:
    def test_arrival_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate must be > 0"):
            ArrivalModel(rate=0.0)
        with pytest.raises(ValueError, match="rate must be > 0"):
            ArrivalModel(rate=-0.5)

    def test_arrival_rate_must_be_finite(self):
        with pytest.raises(ValueError, match="rate"):
            ArrivalModel(rate=math.inf)
        with pytest.raises(ValueError, match="rate"):
            ArrivalModel(rate=math.nan)

    def test_threshold_must_be_non_negative(self):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            PlatoonPolicy(threshold=-1.0)
        PlatoonPolicy(threshold=0.0)  # boundary allowed

    @pytest.mark.parametrize("value", [-0.0, 0.0, 0, 50, 50.0])
    def test_threshold_is_stored_without_a_negative_zero(self, value):
        # -0.0 passes the check and is stored as 0.0, so no closed form or
        # output holds -0; any other value keeps its value and type.
        threshold = PlatoonPolicy(threshold=value).threshold
        assert threshold == value and type(threshold) is type(value)
        assert math.copysign(1.0, threshold) == 1.0

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("value_of_time_per_h", -1.0),
            ("fuel_price_per_l", -0.1),
            ("drag_fuel_coeff", -1e-9),
            ("fuel_per_100km", -2.0),
            ("fuel_saving_fraction", 0.0),
            ("fuel_saving_fraction", 1.0),
            ("cruise_speed_mph", 0.0),
            ("merge_zone_km", 0.0),
            ("cruise_zone_km", -5.0),
            ("nominal_merge_time_s", -1.0),
            ("fuel_per_100km", math.inf),
            ("cruise_speed_mph", math.nan),
            # Valid in planning units, but overflow or underflow in SI units.
            ("merge_zone_km", 1e306),
            ("cruise_speed_mph", 5e-324),
        ],
    )
    def test_raw_config_rejects_bad_field_and_names_it(self, field, bad):
        kwargs = dict(NOMINAL_RAW)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=field):
            RawCostConfig(**kwargs)

    def test_cost_parameters_reject_bad_values(self, nominal_params):
        with pytest.raises(ValueError, match="cruise_speed"):
            dataclasses.replace(nominal_params, cruise_speed=-1.0)
        with pytest.raises(ValueError, match="fuel_saving_fraction"):
            dataclasses.replace(nominal_params, fuel_saving_fraction=1.5)
        with pytest.raises(ValueError, match="merge_zone_len"):
            dataclasses.replace(nominal_params, merge_zone_len=0.0)

    @pytest.mark.parametrize("case", sorted(OVERFLOWING_COSTS))
    def test_cost_term_beyond_the_float_range_is_rejected_naming_its_fields(self, case):
        # Every field is in range in planning and in SI units, so
        # RawCostConfig accepts them; a term built from them is not finite.
        overrides, term = OVERFLOWING_COSTS[case]
        raw = RawCostConfig(**{**NOMINAL_RAW, **overrides})
        with pytest.raises(ValueError, match=rf"^cost term {re.escape(term)}.* overflows the float range"):
            normalize_units(raw)

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ArrivalModel(rate="0.02")

    def test_types_are_immutable(self, nominal_params):
        arrival = ArrivalModel(rate=0.02)
        with pytest.raises(dataclasses.FrozenInstanceError):
            arrival.rate = 0.05
        with pytest.raises(dataclasses.FrozenInstanceError):
            nominal_params.fuel_price = 1.0
