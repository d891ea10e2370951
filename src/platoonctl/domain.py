"""Domain types shared by the analytic engine, the simulator, and the CLI.

This module and :mod:`.analytic` need only the standard library; numpy is
imported by the code that builds arrays (:mod:`.simulator`, the threshold
grid of ``sweep``), so the scalar commands start without it.

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

# Upper bound on rate * threshold accepted by every analytic operation and
# by SimulationConfig.
MAX_RATE_THRESHOLD_PRODUCT = 50.0

# Two-sided 95% normal quantile, used only by the singleton-frequency row,
# whose half-width follows from its known null probability, not from a sample
# variance.
Z_95 = 1.96

# Two-sided 95% quantiles t_0.975 of Student's t at 1..30 degrees of freedom.
_T_975 = (
    12.706204736175, 4.302652729749, 3.182446305284, 2.776445105198, 2.570581835636,
    2.446911851145, 2.364624251593, 2.306004135204, 2.262157162798, 2.228138851986,
    2.200985160092, 2.178812829667, 2.160368656463, 2.144786687918, 2.131449545560,
    2.119905299221, 2.109815577833, 2.100922040241, 2.093024054408, 2.085963447266,
    2.079613844728, 2.073873067904, 2.068657610419, 2.063898561628, 2.059538552753,
    2.055529438643, 2.051830516480, 2.048407141795, 2.045229642133, 2.042272456301,
)

MAX_SEED = 2**64 - 1

# The largest -ln(U) the simulator draws: U = 1 - rng.random() >= 2^-53.
MAX_UNIT_GAP = 53 * math.log(2)


def student_t_975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` >= 1 degrees of freedom:
    the factor of a two-sided 95% confidence half-width from ``df + 1``
    samples. Tabulated up to df = 30; beyond, the Cornish-Fisher expansion in
    1/df about the normal quantile (Abramowitz & Stegun 26.7.5), whose
    relative error is below 2e-8 from df = 30 on. ``df`` is checked with
    ``_integer``: a bool, a non-int or an int below 1 raises ``ValueError``."""
    if _integer("df", df, 1) <= len(_T_975):
        return _T_975[df - 1]
    z = 1.959963984540054  # the normal quantile, unrounded
    z2 = z * z
    terms = (
        (z2 + 1.0) / 4.0,
        ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0,
        (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0,
        ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0,
    )
    return z * (1.0 + sum(term / df ** (k + 1) for k, term in enumerate(terms)))


def _number(name: str, value) -> float:
    """``value`` as a float, or a ``ValueError`` naming ``name`` if it is a
    bool, not a number, NaN, infinite, or an int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        # Not formatted: str() refuses ints of more than 4300 digits.
        raise ValueError(f"{name} must be a finite number, got an integer beyond the float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value}")
    return number


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` if it is an int (not a bool) within the float range and at
    least ``minimum``, or a ``ValueError`` naming ``name``."""
    bound = "" if minimum is None else f" >= {minimum}"
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    _number(name, value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer{bound}, got {value}")
    return value


def _seed(value) -> int:
    """``value`` if it is an int in [0, 2^64), the seed range of every
    entry point, or a ``ValueError`` naming ``seed``."""
    seed = _integer("seed", value)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed}")
    return seed


def _check_product(rate: float, threshold: float) -> None:
    """Reject a (rate, threshold) outside the supported range: x = rate *
    threshold above 50, or an expected leader headway e^x / rate, the largest
    closed form, beyond the float range. Every closed form grows with the
    threshold, so the largest threshold of a grid stands for all of them."""
    # repr, not a rounded format: a 6-digit format prints a product such as
    # 50.00002 as the limit itself.
    product = rate * threshold
    if product > MAX_RATE_THRESHOLD_PRODUCT:
        raise ValueError(
            f"rate * threshold = {rate!r} * {threshold!r} = {product!r} exceeds "
            f"{MAX_RATE_THRESHOLD_PRODUCT:g}; the supported range is rate * threshold "
            f"<= {MAX_RATE_THRESHOLD_PRODUCT:g} (beyond it the expected platoon size "
            "would exceed e^50)"
        )
    # The headway as analytic computes it, from expm1.
    if not math.isfinite((math.expm1(product) + 1.0) / rate):
        raise ValueError(
            f"e^(rate * threshold) / rate, the expected leader headway, overflows the float range at rate = "
            f"{rate!r} and threshold = {threshold!r}; the supported range needs it finite"
        )


def _positive(name: str, value) -> float:
    number = _number(name, value)
    if number <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return number


def _non_negative(name: str, value) -> float:
    number = _number(name, value)
    if number < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return number


def _fraction(name: str, value) -> float:
    number = _number(name, value)
    if not 0.0 < number < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return number


# One row per cost field: its RawCostConfig name, its CostParameters name, the
# conversion from planning units to SI, and the rule the SI value obeys.
_COST_FIELDS = (
    ("value_of_time_per_h", "value_of_time", lambda v: v / SECONDS_PER_HOUR, _non_negative),
    ("fuel_price_per_l", "fuel_price", lambda v: v, _non_negative),
    ("drag_fuel_coeff", "drag_fuel_coeff", lambda v: v, _non_negative),
    ("fuel_per_100km", "fuel_per_meter", lambda v: v / METERS_PER_100KM, _non_negative),
    ("fuel_saving_fraction", "fuel_saving_fraction", lambda v: v, _fraction),
    ("cruise_speed_mph", "cruise_speed", lambda v: v * METERS_PER_MILE / SECONDS_PER_HOUR, _positive),
    ("merge_zone_km", "merge_zone_len", lambda v: v * METERS_PER_KM, _positive),
    ("cruise_zone_km", "cruise_zone_len", lambda v: v * METERS_PER_KM, _non_negative),
    ("nominal_merge_time_s", "nominal_merge_time", lambda v: v, _non_negative),
)


@dataclass(frozen=True)
class ArrivalModel:
    """Poisson stream of vehicles entering the highway.

    Interarrival gaps are exponential with mean ``1 / rate``.
    """

    rate: float  # mean arrivals per second

    def __post_init__(self) -> None:
        _positive("rate", self.rate)


@dataclass(frozen=True)
class PlatoonPolicy:
    """Threshold rule: an arriving vehicle joins the platoon ahead iff its
    entrance headway is less than or equal to ``threshold`` (inclusive)."""

    threshold: float  # seconds

    def __post_init__(self) -> None:
        _non_negative("threshold", self.threshold)
        # + 0 turns -0.0, which passes the check, into 0.0 and keeps every other value and its type.
        object.__setattr__(self, "threshold", self.threshold + 0)


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
        for _, name, _, rule in _COST_FIELDS:
            rule(name, getattr(self, name))
        # The coefficients analytic multiplies the statistics by, each in its
        # order of operations there: finite fields can still overflow them.
        try:
            speed_cubed = self.cruise_speed**3
        except OverflowError:  # float ** raises where * would give inf
            speed_cubed = math.inf
        drag = 2.0 * self.drag_fuel_coeff
        for term, value in (
            ("2 * drag_fuel_coeff * cruise_speed^3", drag * speed_cubed),
            (
                "merge_time_cost_rate = 2 * drag_fuel_coeff * fuel_price * cruise_speed^3 - value_of_time",
                drag * self.fuel_price * speed_cubed - self.value_of_time,
            ),
            (
                "fuel_saving_fraction * fuel_per_meter * cruise_zone_len",
                self.fuel_saving_fraction * self.fuel_per_meter * self.cruise_zone_len,
            ),
            (
                "drafting_value = fuel_price * fuel_saving_fraction * fuel_per_meter * cruise_zone_len",
                self.drafting_value,
            ),
        ):
            if not math.isfinite(value):
                raise ValueError(f"cost term {term} overflows the float range, got {value}")

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
        for name, _, convert, rule in _COST_FIELDS:
            value = rule(name, getattr(self, name))
            # The factors are positive, so this differs from the check above
            # only where the conversion overflows to inf or underflows to 0.
            rule(f"{name} in SI units", convert(value))


def normalize_units(raw: RawCostConfig) -> CostParameters:
    """Convert a mixed-unit cost config to SI-normalized ``CostParameters``.

    Exact factors: 1 hour = 3600 s, 1 mile = 1609.344 m, 1 km = 1000 m,
    and L/100km divides by 100000 to give L/m.
    """
    return CostParameters(**{si: convert(getattr(raw, name)) for name, si, convert, _ in _COST_FIELDS})


@dataclass(frozen=True)
class SimulationConfig:
    """One reproducible simulation campaign."""

    arrival: ArrivalModel
    policy: PlatoonPolicy
    n_vehicles: int
    n_replications: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        _check_product(self.arrival.rate, self.policy.threshold)  # before any work
        _integer("n_vehicles", self.n_vehicles, 2)
        _integer("n_replications", self.n_replications, 1)
        _seed(self.seed)
        # The horizon H bounds every arrival time, headway and shift, so a
        # platoon of m vehicles has S and S - q·m (q, one platoon's mean shift)
        # within m * H of 0. Every sum of squares or products of times in a
        # closed-platoon record, and each of the three terms of the mean
        # shift's residual, is then at most 2 * n_replications *
        # (n_vehicles * H)^2 in magnitude, and the terms' sum twice that.
        # The check bounds these sums in seconds. The simulator's, in units of
        # 1/rate, are up to rate^2 larger at rate > 1; in those units H is at
        # most n_vehicles * 53 ln 2, so they overflow only past ~1e76 vehicles.
        span = self.n_vehicles * (self.n_vehicles * MAX_UNIT_GAP / self.arrival.rate)  # n_vehicles * H
        if not math.isfinite(span * span * 4.0 * self.n_replications):
            raise ValueError(
                f"arrival.rate = {self.arrival.rate!r} is too small for n_vehicles = {self.n_vehicles} "
                f"and n_replications = {self.n_replications}: shift sums of up to n_vehicles^2 * "
                "53 ln 2 / rate seconds would overflow the float range in sums of their squares"
            )


@dataclass(frozen=True)
class StatEstimate:
    """A sample mean with its two-sided 95% confidence half-width, from
    ``count`` samples."""

    mean: float
    ci_half_width: float
    count: int


@dataclass(frozen=True)
class EmpiricalSummary:
    """Empirical platoon statistics for one run or a pooled campaign.

    ``size_pmf`` maps platoon size y (1..``simulator.PMF_CUTOFF``) to its
    empirical frequency; mass beyond the cutoff is simply absent, so values
    sum to at most 1.
    """

    platoon_size: StatEstimate
    leader_headway: StatEstimate
    time_shift: StatEstimate
    size_pmf: dict[int, float]
