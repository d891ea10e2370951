"""Domain types shared by the analytic engine, the simulator, and the CLI.

Everything downstream of this module works in SI-normalized units (seconds,
meters, liters, plain currency units). Mixed planning units (currency/hour,
miles/hour, L/100km, kilometers) enter only through ``RawCostConfig`` and are
converted exactly once by :func:`normalize_units`, so no formula ever sees a
mixed-unit value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SECONDS_PER_HOUR = 3600.0
METERS_PER_MILE = 1609.344
METERS_PER_KM = 1000.0
METERS_PER_100KM = 100_000.0


def _check_finite(name: str, value: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_positive(name: str, value: float) -> None:
    _check_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def _check_non_negative(name: str, value: float) -> None:
    _check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class ArrivalModel:
    """Poisson stream of vehicles entering the highway.

    Interarrival gaps are exponential with mean ``1 / rate``.
    """

    rate: float  # mean arrivals per second

    def __post_init__(self) -> None:
        _check_positive("rate", self.rate)

    @property
    def mean_headway(self) -> float:
        """Mean gap between consecutive arrivals, seconds."""
        return 1.0 / self.rate


@dataclass(frozen=True)
class PlatoonPolicy:
    """Threshold rule: an arriving vehicle joins the platoon ahead iff its
    entrance headway is less than or equal to ``threshold`` (inclusive)."""

    threshold: float  # seconds

    def __post_init__(self) -> None:
        _check_non_negative("threshold", self.threshold)


@dataclass(frozen=True)
class CostParameters:
    """Cost model inputs, SI-normalized.

    Units: ``value_of_time`` currency/s, ``fuel_price`` currency/L,
    ``drag_fuel_coeff`` L*s^2/m^3, ``fuel_per_meter`` L/m, ``cruise_speed``
    m/s, ``merge_zone_len`` and ``cruise_zone_len`` m, ``nominal_merge_time``
    s. ``fuel_saving_fraction`` is the share of cruise fuel a trailing
    vehicle saves inside a platoon, strictly between 0 and 1.

    ``nominal_merge_time`` is carried for exit-time reporting only; no
    statistic or cost term depends on it.
    """

    value_of_time: float
    fuel_price: float
    drag_fuel_coeff: float
    fuel_per_meter: float
    fuel_saving_fraction: float
    cruise_speed: float
    merge_zone_len: float
    cruise_zone_len: float
    nominal_merge_time: float = 0.0

    def __post_init__(self) -> None:
        _check_non_negative("value_of_time", self.value_of_time)
        _check_non_negative("fuel_price", self.fuel_price)
        _check_non_negative("drag_fuel_coeff", self.drag_fuel_coeff)
        _check_non_negative("fuel_per_meter", self.fuel_per_meter)
        _check_finite("fuel_saving_fraction", self.fuel_saving_fraction)
        if not 0.0 < self.fuel_saving_fraction < 1.0:
            raise ValueError(
                "fuel_saving_fraction must lie strictly between 0 and 1, "
                f"got {self.fuel_saving_fraction}"
            )
        _check_positive("cruise_speed", self.cruise_speed)
        _check_positive("merge_zone_len", self.merge_zone_len)
        _check_non_negative("cruise_zone_len", self.cruise_zone_len)
        _check_non_negative("nominal_merge_time", self.nominal_merge_time)

    @property
    def drafting_value(self) -> float:
        """Monetized drafting fuel saving of one merged vehicle over the
        cruising zone, currency:
        fuel_price * fuel_saving_fraction * fuel_per_meter * cruise_zone_len."""
        return self.fuel_price * self.fuel_saving_fraction * self.fuel_per_meter * self.cruise_zone_len


@dataclass(frozen=True)
class RawCostConfig:
    """Cost model inputs in the mixed units planning sources usually quote.

    Convert with :func:`normalize_units` before doing any math.
    """

    value_of_time_per_h: float  # currency / hour
    fuel_price_per_l: float  # currency / liter
    drag_fuel_coeff: float  # L * s^2 / m^3 (already SI)
    fuel_per_100km: float  # L / 100 km
    fuel_saving_fraction: float  # dimensionless, in (0, 1)
    cruise_speed_mph: float  # miles / hour
    merge_zone_km: float  # km
    cruise_zone_km: float  # km
    nominal_merge_time_s: float = 0.0  # seconds

    def __post_init__(self) -> None:
        # Conversion factors are positive, so the SI sign constraints can be
        # enforced directly on the raw values.
        _check_non_negative("value_of_time_per_h", self.value_of_time_per_h)
        _check_non_negative("fuel_price_per_l", self.fuel_price_per_l)
        _check_non_negative("drag_fuel_coeff", self.drag_fuel_coeff)
        _check_non_negative("fuel_per_100km", self.fuel_per_100km)
        _check_finite("fuel_saving_fraction", self.fuel_saving_fraction)
        if not 0.0 < self.fuel_saving_fraction < 1.0:
            raise ValueError(
                "fuel_saving_fraction must lie strictly between 0 and 1, "
                f"got {self.fuel_saving_fraction}"
            )
        _check_positive("cruise_speed_mph", self.cruise_speed_mph)
        _check_positive("merge_zone_km", self.merge_zone_km)
        _check_non_negative("cruise_zone_km", self.cruise_zone_km)
        _check_non_negative("nominal_merge_time_s", self.nominal_merge_time_s)


def normalize_units(raw: RawCostConfig) -> CostParameters:
    """Convert a mixed-unit cost config to SI-normalized ``CostParameters``.

    Exact factors: 1 hour = 3600 s, 1 mile = 1609.344 m, 1 km = 1000 m,
    and L/100km divides by 100000 to give L/m.
    """
    return CostParameters(
        value_of_time=raw.value_of_time_per_h / SECONDS_PER_HOUR,
        fuel_price=raw.fuel_price_per_l,
        drag_fuel_coeff=raw.drag_fuel_coeff,
        fuel_per_meter=raw.fuel_per_100km / METERS_PER_100KM,
        fuel_saving_fraction=raw.fuel_saving_fraction,
        cruise_speed=raw.cruise_speed_mph * METERS_PER_MILE / SECONDS_PER_HOUR,
        merge_zone_len=raw.merge_zone_km * METERS_PER_KM,
        cruise_zone_len=raw.cruise_zone_km * METERS_PER_KM,
        nominal_merge_time=raw.nominal_merge_time_s,
    )


def validate_scenario(arrival: ArrivalModel, policy: PlatoonPolicy) -> None:
    """Re-check the (arrival, policy) pair; raises ValueError on violation.

    Both types validate at construction, so this only matters for objects
    built through non-standard paths, but every consumer calls it anyway.
    """
    _check_positive("rate", arrival.rate)
    _check_non_negative("threshold", policy.threshold)
