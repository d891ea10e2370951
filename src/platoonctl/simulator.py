"""Seeded Monte Carlo realization of the arrival/merge process.

This is the empirical oracle for every closed form in :mod:`.analytic`: it
draws exponential interarrival gaps, applies the inclusive threshold rule,
and reports platoon sizes, leader-to-leader headways, and per-vehicle
catch-up time shifts with normal-approximation confidence intervals.

Vehicle 1 always leads, so every run starts at a regeneration point: each
closed platoon is an independent renewal cycle from the first vehicle on, and
no leading vehicles are discarded as warm-up.

Randomness contract: gaps come from numpy's PCG64 generator (period 2^128)
seeded with ``SeedSequence((seed, replication))``. The master seed plus the
replication index fully determines every draw, so runs reproduce
bit-for-bit, and replications own disjoint streams that could execute in any
order (or in parallel) without changing the aggregate. Aggregation merges
per-replication statistics in index order, which keeps it order-independent.

Every gap comes from ``_gap_chunks``, which draws a replication's stream in
chunks of ``CHUNK_VEHICLES``. ``run_replications`` folds each chunk into
mergeable statistics, so its memory is O(CHUNK_VEHICLES) whatever
``n_vehicles`` and ``n_replications`` are. ``sample_interarrivals`` joins the
chunks into one array, and ``run_from_interarrivals`` forms a whole run in
memory (O(n)) by a different algorithm: the small-n reference the streaming
kernel matches. ``summarize`` and the kernel share one estimator.

Each replication allocates its chunk buffers once: the gap buffer in
``_gap_chunks``, and the leader mask and the arrival times in the kernel.
Every chunk's steps write into them, so a chunk ``_gap_chunks`` yields is
valid only until the next one is drawn; a caller that keeps chunks copies
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (  # re-exported: the simulator's types live in domain, which needs no numpy
    MAX_SEED,
    MAX_UNIT_GAP,
    Z_95,
    ArrivalModel,
    EmpiricalSummary,
    PlatoonPolicy,
    SimulationConfig,
    StatEstimate,
    _integer,
)

# Vehicles drawn and folded per step of ``run_replications``; its working
# memory is a few arrays of this length, whatever the number of vehicles.
CHUNK_VEHICLES = 1 << 16

# Sizes 1..PMF_CUTOFF get their own entry in a summary's ``size_pmf``.
PMF_CUTOFF = 10


@dataclass(frozen=True)
class SimulationRun:
    """One realized arrival/merge trajectory.

    ``leader_indices`` are 1-based vehicle numbers (vehicle 1 always leads
    the first platoon); ``time_shifts[k-1]`` is vehicle k's catch-up shift
    and is exactly 0 at every leader.
    """

    interarrivals: np.ndarray
    platoon_sizes: np.ndarray
    leader_indices: np.ndarray
    leader_headways: np.ndarray
    time_shifts: np.ndarray

    def __post_init__(self) -> None:
        n = self.interarrivals.size
        if n == 0:
            raise ValueError("interarrivals must be non-empty")
        if int(self.platoon_sizes.sum()) != n:
            raise ValueError("platoon sizes must sum to the number of vehicles")
        if self.platoon_sizes.size != self.leader_indices.size:
            raise ValueError("one leader index per platoon required")
        if self.leader_indices[0] != 1 or np.any(np.diff(self.leader_indices) <= 0):
            raise ValueError("leader_indices must be strictly increasing and start at 1")
        if self.leader_headways.size != self.leader_indices.size - 1:
            raise ValueError("one leader headway per consecutive platoon pair required")
        if self.time_shifts.size != n:
            raise ValueError("one time shift per vehicle required")
        if np.any(self.time_shifts[self.leader_indices - 1] != 0.0):
            raise ValueError("time shifts must be exactly 0 at platoon leaders")


def _gap_chunks(seed: int, replication: int, n: int, rate: float):
    """Yield the ``n`` gaps of replication stream (seed, replication) in
    chunks of ``CHUNK_VEHICLES``. PCG64 draws split into chunks equal one
    long draw, so the chunk size never changes a gap. ``1 - rng.random``
    lies in (0, 1] by construction, so the transform needs no check.

    Every chunk is a view of one buffer, transformed in place (-ln(1 - U) /
    rate as ln(1 - U) / -rate, bit for bit): a chunk is valid only until the
    next one is drawn, and the caller may overwrite it."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, replication)))
    buffer = np.empty(min(CHUNK_VEHICLES, n))
    for start in range(0, n, CHUNK_VEHICLES):
        u = rng.random(out=buffer[: min(CHUNK_VEHICLES, n - start)])
        np.subtract(1.0, u, out=u)
        np.log(u, out=u)
        yield np.divide(u, -rate, out=u)


def sample_interarrivals(
    seed: int, n: int, arrival: ArrivalModel, replication: int = 0
) -> np.ndarray:
    """Draw ``n`` exponential interarrival gaps for one replication stream.

    Deterministic in (seed, replication); distinct replication indices give
    statistically independent streams from the same master seed. These are
    the gaps ``run_replications`` draws chunk by chunk, joined.
    """
    _integer("n", n, 1)
    _integer("seed", seed, 0)
    _integer("replication", replication, 0)
    if not math.isfinite(MAX_UNIT_GAP / arrival.rate):
        raise ValueError(
            f"rate = {arrival.rate!r} is too small: gaps of up to 53 ln 2 / rate seconds "
            "overflow the float range"
        )
    gaps = np.empty(n)
    start = 0
    for chunk in _gap_chunks(seed, replication, n, arrival.rate):
        gaps[start : start + chunk.size] = chunk
        start += chunk.size
    return gaps


def run_from_interarrivals(interarrivals, policy: PlatoonPolicy) -> SimulationRun:
    """Group vehicles into platoons under the inclusive threshold rule and
    assemble the full run record for a given gap sequence.

    Vehicle k (k >= 2) joins the current platoon iff its gap is <= threshold,
    otherwise it leads a new one. A leader's headway is the arrival-time
    difference to the next leader. A merging vehicle's shift follows the
    recursion shift[k] = gap[k] + shift[k-1] (0 at leaders): it closes its
    gap onto a predecessor that already moved forward.
    """
    gaps = np.asarray(interarrivals, dtype=float)
    if gaps.ndim != 1 or gaps.size == 0:
        raise ValueError("interarrivals must be a non-empty 1-d sequence")
    if not (gaps.min() >= 0.0 and gaps.max() < math.inf):  # NaN fails the first test
        raise ValueError("interarrivals must be finite and >= 0")
    merged = gaps <= policy.threshold
    merged[0] = False  # vehicle 1 opens the first platoon; nothing ahead to join
    leaders = np.flatnonzero(~merged)
    sizes = np.diff(np.append(leaders, gaps.size))
    # The recursion unrolled: the running sum of merged gaps minus its value
    # at the vehicle's platoon leader.
    running = np.cumsum(np.where(merged, gaps, 0.0))
    return SimulationRun(
        interarrivals=gaps,
        platoon_sizes=sizes.astype(np.int64),
        leader_indices=(leaders + 1).astype(np.int64),
        leader_headways=np.diff(np.cumsum(gaps)[leaders]),
        time_shifts=running - np.repeat(running[leaders], sizes),
    )


def summarize(run: SimulationRun) -> EmpiricalSummary:
    """Empirical means, 95% CI half-widths, and the size PMF for one run.

    The final platoon is right-censored (no gap > threshold ever terminated
    it) and is dropped from the size sample.
    """
    stats = _ReplicationStats.of(run.platoon_sizes[:-1], run.leader_headways.copy(), run.time_shifts.copy())
    return stats.summary()


@dataclass(frozen=True)
class _Moments:
    """Count, mean and sum of squared deviations (M2) of a float sample,
    mergeable pairwise (Chan, Golub & LeVeque 1979)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray) -> _Moments:
        """The moments of ``values``, which it overwrites with their
        deviations from the mean."""
        if values.size == 0:
            return cls()
        mean = float(np.mean(values))
        deviations = np.subtract(values, mean, out=values)
        return cls(int(values.size), mean, float(np.dot(deviations, deviations)))

    def merge(self, other: _Moments) -> _Moments:
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        count = self.count + other.count
        delta = other.mean - self.mean
        return _Moments(
            count,
            self.mean + delta * (other.count / count),
            self.m2 + other.m2 + delta * delta * (self.count * other.count / count),
        )

    def estimate(self, statistic: str) -> StatEstimate:
        if self.count == 0:
            raise ValueError(f"no {statistic} samples to summarize")
        half_width = 0.0
        if self.count >= 2:
            half_width = Z_95 * math.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)
        return StatEstimate(mean=self.mean, ci_half_width=half_width, count=self.count)


@dataclass(frozen=True, eq=False)
class _ReplicationStats:
    """Mergeable sufficient statistics of one replication or of several.

    Closed platoon sizes are kept as exact integers: their count, sum, sum of
    squares and a histogram whose last bin holds every size above
    ``PMF_CUTOFF``.
    """

    size_count: int
    size_sum: int
    size_sum_sq: int
    size_hist: np.ndarray
    headway: _Moments
    shift: _Moments

    @classmethod
    def of(cls, sizes: np.ndarray, headways: np.ndarray, shifts: np.ndarray):
        """The statistics of closed platoon ``sizes`` (int64), leader
        ``headways`` and vehicle ``shifts``; any of them may be empty.
        ``headways`` and ``shifts`` are overwritten."""
        # Only the first size may exceed the vehicles these arrays cover (in
        # the kernel it can span any number of chunks), so the squares of the
        # rest sum within int64.
        sum_sq = int(sizes[0]) ** 2 + int(np.dot(sizes[1:], sizes[1:])) if sizes.size else 0
        return cls(
            int(sizes.size),
            int(sizes.sum()),
            sum_sq,
            np.bincount(np.minimum(sizes, PMF_CUTOFF + 1), minlength=PMF_CUTOFF + 2),
            _Moments.of(headways),
            _Moments.of(shifts),
        )

    def merge(self, other: _ReplicationStats) -> _ReplicationStats:
        return _ReplicationStats(
            self.size_count + other.size_count,
            self.size_sum + other.size_sum,
            self.size_sum_sq + other.size_sum_sq,
            self.size_hist + other.size_hist,
            self.headway.merge(other.headway),
            self.shift.merge(other.shift),
        )

    def summary(self) -> EmpiricalSummary:
        n = self.size_count
        sizes = _Moments()
        if n:
            # Integer numerators, so the mean and M2 are each rounded once.
            sizes = _Moments(n, self.size_sum / n, (n * self.size_sum_sq - self.size_sum**2) / n)
        return EmpiricalSummary(
            platoon_size=sizes.estimate("platoon-size (all platoons censored)"),
            leader_headway=self.headway.estimate("leader-headway (fewer than two platoons)"),
            time_shift=self.shift.estimate("time-shift"),
            size_pmf={y: float(self.size_hist[y] / n) for y in range(1, PMF_CUTOFF + 1)},
        )


def _replication_stats(config: SimulationConfig, replication: int) -> _ReplicationStats:
    """Fold one replication's gaps, chunk by chunk, into its sufficient
    statistics; memory is O(CHUNK_VEHICLES) whatever n is.

    Across chunk boundaries the kernel carries the open (not yet closed)
    platoon: its size and the time since its leader arrived, which is also
    the shift of its last vehicle. Times inside a chunk count from the last
    vehicle of the previous chunk, so the open platoon's leader sits at
    ``-since_leader``. The leader mask and the arrival times (which become
    the shifts, then the shifts' deviations) are written into two buffers
    allocated once per replication.
    """
    threshold = config.policy.threshold
    stats = None
    open_size = 0  # 0 only before the first chunk: vehicle 1 always leads
    since_leader = 0.0
    width = min(CHUNK_VEHICLES, config.n_vehicles)
    leads_buffer = np.empty(width, dtype=bool)
    arrivals_buffer = np.empty(width)
    for gaps in _gap_chunks(config.seed, replication, config.n_vehicles, config.arrival.rate):
        size = gaps.size
        leads = np.greater(gaps, threshold, out=leads_buffer[:size])  # the inverse of the merge mask
        if not open_size:
            leads[0] = True
        leaders = np.flatnonzero(leads)
        arrivals = np.cumsum(gaps, out=arrivals_buffer[:size])
        leader_times = arrivals[leaders]
        if open_size:
            leaders = np.concatenate(([-open_size], leaders))
            leader_times = np.concatenate(([-since_leader], leader_times))

        # Each vehicle's shift is its arrival minus its platoon leader's;
        # members counts each platoon's vehicles that fall in this chunk:
        # the closed sizes, less the open platoon's earlier vehicles, and the
        # last platoon's vehicles up to the chunk's end.
        sizes = np.diff(leaders)
        members = np.append(sizes, size - leaders[-1])
        members[0] -= open_size
        shifts = np.subtract(arrivals, np.repeat(leader_times, members), out=arrivals)
        open_size = size - int(leaders[-1])
        since_leader = float(shifts[-1])
        chunk = _ReplicationStats.of(sizes, np.diff(leader_times), shifts)
        stats = chunk if stats is None else stats.merge(chunk)
    return stats


def run_replications(config: SimulationConfig) -> tuple[EmpiricalSummary, list[EmpiricalSummary]]:
    """Run every replication of ``config`` in one streaming pass each.

    Returns (aggregate, per_replication). The aggregate merges the
    per-replication statistics in replication-index order, so it does not
    depend on the order replications execute in. Estimators equal
    :func:`summarize` on the full in-memory runs (pooled across
    replications), up to float rounding.
    """
    total: _ReplicationStats | None = None
    per_replication: list[EmpiricalSummary] = []
    for rep in range(config.n_replications):
        try:
            stats = _replication_stats(config, rep)
            per_replication.append(stats.summary())
        except ValueError as exc:
            raise ValueError(f"replication {rep}: {exc}") from exc
        total = stats if total is None else total.merge(stats)
    return total.summary(), per_replication
