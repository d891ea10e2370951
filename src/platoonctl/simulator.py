"""Seeded Monte Carlo realization of the arrival/merge process.

This is the empirical oracle for every closed form in :mod:`.analytic`: it
draws exponential interarrival gaps, applies the inclusive threshold rule,
and estimates the mean platoon size, leader-to-leader headway, and per-vehicle
catch-up time shift with Student-t confidence intervals.

Vehicle 1 always leads, so every run starts at a regeneration point: each
closed platoon is an independent renewal cycle of (size, leader headway, shift
sum) from the first vehicle on, and no leading vehicles are discarded as
warm-up. Every statistic is estimated from these cycles alone (regenerative
simulation, Crane & Iglehart 1975); each run's last platoon, which no gap
closed, is censored.

Randomness contract: gaps come from numpy's PCG64 generator (period 2^128)
seeded with ``SeedSequence((seed, replication))``. The master seed plus the
replication index fully determines every draw, so runs reproduce
bit-for-bit, and replications own disjoint streams that could execute in any
order (or in parallel) without changing the pooled summary, which merges
their statistics in index order.

Every gap comes from ``_gap_chunks``, which draws a replication's stream in
chunks of ``CHUNK_VEHICLES``. ``run_replications`` folds each chunk, by one
segmented sum, into mergeable statistics, so its memory is O(CHUNK_VEHICLES)
whatever ``n_vehicles`` and ``n_replications`` are; it is the one-threshold
case of ``_summaries``, which draws each chunk once and folds it at every
threshold of a grid (common random numbers). ``sample_interarrivals`` joins
the chunks into one array, and ``run_from_interarrivals`` forms a whole run
in memory (O(n)) by a different algorithm: the small-n reference the
streaming kernel matches. ``summarize`` and the kernel share one estimator.

Each replication allocates its chunk buffers once, and every chunk's steps
write into them, so a chunk ``_gap_chunks`` yields is valid only until the
next one is drawn; a caller that keeps chunks copies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (  # re-exported: the simulator's types live in domain, which needs no numpy
    MAX_SEED,
    MAX_UNIT_GAP,
    ArrivalModel,
    EmpiricalSummary,
    PlatoonPolicy,
    SimulationConfig,
    StatEstimate,
    _float_array,
    _integer,
    _seed,
    student_t_975,
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
    _seed(seed)
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
    gap onto a predecessor that already moved forward. An int or float
    ndarray is checked as a whole; any other sequence element by element,
    like every other number.
    """
    malformed = "interarrivals must be a non-empty 1-d sequence"
    gaps = _float_array("interarrivals", interarrivals, malformed)
    if gaps.ndim != 1 or gaps.size == 0:
        raise ValueError(malformed)
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
    it), so it is left out of every statistic.
    """
    shift_sums = np.add.reduceat(run.time_shifts, run.leader_indices - 1)
    return _Cycles.of(run.platoon_sizes[:-1].copy(), run.leader_headways.copy(), shift_sums[:-1]).summary()


@dataclass(frozen=True, eq=False, slots=True)
class _Cycles:
    """Mergeable statistics of closed platoons, each an i.i.d. renewal cycle
    of (size m, leader headway h, shift sum S).

    It holds the cycle count, the exact integer size sum, a size histogram
    whose last bin holds every size above ``PMF_CUTOFF``, the means of
    (m, h, S) and the co-moments (sums of products of deviations) mm, hh, SS
    and mS, merged pairwise (Chan, Golub & LeVeque 1979).
    """

    count: int
    size_sum: int
    size_hist: np.ndarray
    mean: tuple[float, float, float]
    comoment: tuple[float, float, float, float]

    @classmethod
    def of(cls, sizes: np.ndarray, headways: np.ndarray, shift_sums: np.ndarray) -> _Cycles:
        """The statistics of closed platoons' ``sizes`` (int64), leader
        ``headways`` and ``shift_sums``, any number of them; it overwrites all three."""
        count, size_sum = sizes.size, int(sizes.sum())
        if not count:
            return cls(0, 0, np.zeros(PMF_CUTOFF + 2, dtype=np.int64), (0.0,) * 3, (0.0,) * 4)
        mean = (size_sum / count, float(headways.mean()), float(shift_sums.mean()))
        h, s = np.subtract(headways, mean[1], out=headways), np.subtract(shift_sums, mean[2], out=shift_sums)
        hh = float(np.dot(h, h))
        m = np.subtract(sizes, mean[0], out=headways)  # over h, which hh has read
        hist = np.bincount(np.minimum(sizes, PMF_CUTOFF + 1, out=sizes), minlength=PMF_CUTOFF + 2)
        return cls(count, size_sum, hist, mean, (float(np.dot(m, m)), hh, float(np.dot(s, s)), float(np.dot(m, s))))

    def merge(self, other: _Cycles) -> _Cycles:
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        count = self.count + other.count
        dm, dh, ds = delta = [b - a for a, b in zip(self.mean, other.mean)]
        weight = self.count * other.count / count
        products = (dm * dm, dh * dh, ds * ds, dm * ds)
        return _Cycles(
            count,
            self.size_sum + other.size_sum,
            self.size_hist + other.size_hist,
            tuple(a + d * (other.count / count) for a, d in zip(self.mean, delta)),
            tuple(a + b + p * weight for a, b, p in zip(self.comoment, other.comoment, products)),
        )

    def summary(self) -> EmpiricalSummary:
        """The mean size and headway, and the mean shift as the ratio
        ΣS/Σm, each with a Student-t half-width at count - 1 degrees of
        freedom. The ratio's is the delta-method one,
        sd(S - ratio·m) / (sqrt(count)·mean size) (Asmussen & Glynn 2007,
        ch. IV.4), its residuals' sum of squares read from the co-moments."""
        n = self.count
        if n < 2:
            raise ValueError(
                "fewer than two platoon-size (each run's last platoon is censored) samples to summarize; "
                "a confidence interval needs at least two"
            )
        size = self.size_sum / n  # exact integers, so rounded once
        shift = self.mean[2] / size
        mm, hh, ss, ms = self.comoment
        # When S is exactly proportional to m the residuals are all 0, and the
        # rounding of this difference can take it below 0.
        residual = max(0.0, ss - 2.0 * shift * ms + shift * shift * mm)
        scale = student_t_975(n - 1) / math.sqrt(n)

        def estimate(mean: float, m2: float) -> StatEstimate:
            return StatEstimate(mean=float(mean), ci_half_width=scale * math.sqrt(m2 / (n - 1)), count=n)

        return EmpiricalSummary(
            platoon_size=estimate(size, mm),
            leader_headway=estimate(self.mean[1], hh),
            time_shift=estimate(shift, residual / (size * size)),
            size_pmf={y: float(self.size_hist[y] / n) for y in range(1, PMF_CUTOFF + 1)},
        )


def _replication_stats(config: SimulationConfig, replication: int, thresholds) -> list[_Cycles]:
    """Fold one replication's gaps, chunk by chunk, into the statistics of
    its closed platoons under each of ``thresholds`` (``config.policy`` is
    not read); memory is O(CHUNK_VEHICLES + thresholds) whatever n is.

    Each chunk is drawn once and summed once into arrival times, counted
    from the previous chunk's last vehicle, which every threshold then
    folds. A platoon's shift sum is its arrivals' sum less its size times
    its leader's arrival: one ``np.add.reduceat`` from the leaders gives
    every platoon's, exactly 0 for a singleton. Across chunk boundaries each
    threshold carries its open (not yet closed) platoon: its size, the time
    since its leader arrived (also the shift of its last vehicle) and its
    partial shift sum.
    """
    length = min(CHUNK_VEHICLES, config.n_vehicles)
    leads_buffer, arrivals_buffer = np.empty(length, dtype=bool), np.empty(length)
    # Per platoon of a chunk, its vehicles there, leader time and shift sum:
    # slot 0 holds the one open at the chunk's start, slot k (of k leaders) at its end.
    counts, (times, sums, scratch) = np.empty(length + 1, dtype=np.int64), np.empty((3, length + 1))
    # (statistics, open size, since_leader, open_sum) per threshold; the open
    # size is 0 only before the first chunk: vehicle 1 always leads.
    states = [(_Cycles.of(counts[:0], times[:0], sums[:0]), 0, 0.0, 0.0)] * len(thresholds)
    for gaps in _gap_chunks(config.seed, replication, config.n_vehicles, config.arrival.rate):
        size = gaps.size
        arrivals = np.cumsum(gaps, out=arrivals_buffer[:size])
        for index, threshold in enumerate(thresholds):
            stats, open_size, since_leader, open_sum = states[index]
            leads = np.greater(gaps, threshold, out=leads_buffer[:size])  # the inverse of the merge mask
            if not open_size:
                leads[0] = True
            leaders = np.flatnonzero(leads)
            k = leaders.size
            counts[:k], counts[k] = leaders, size
            counts[1 : k + 1] -= leaders
            times[0] = -since_leader
            np.take(arrivals, leaders, out=times[1 : k + 1], mode="clip")  # "clip" writes unbuffered
            sums[0] = arrivals[: counts[0]].sum() + open_sum
            np.add.reduceat(arrivals, leaders, out=sums[1 : k + 1])
            sums[: k + 1] -= np.multiply(counts[: k + 1], times[: k + 1], out=scratch[: k + 1])
            counts[0] += open_size
            closed = 0 if open_size else 1  # slot 0 is empty in the first chunk
            headways = np.subtract(times[closed + 1 : k + 1], times[closed:k], out=scratch[closed:k])
            stats = stats.merge(_Cycles.of(counts[closed:k], headways, sums[closed:k]))
            states[index] = (stats, int(counts[k]), float(arrivals[-1] - times[k]), float(sums[k]))
    return [stats for stats, *_ in states]


def _summaries(config: SimulationConfig, thresholds):
    """Yield the pooled summary of ``config``'s replications at each
    threshold, in order, each replication drawn once for all. Replications
    merge in index order, so no summary depends on the order they run in; a
    pool of fewer than two closed platoons, too few for a CI, raises ``ValueError``."""
    pools = _replication_stats(config, 0, thresholds)
    for rep in range(1, config.n_replications):
        pools = [pool.merge(stats) for pool, stats in zip(pools, _replication_stats(config, rep, thresholds))]
    yield from (pool.summary() for pool in pools)


def run_replications(config: SimulationConfig) -> EmpiricalSummary:
    """Summarize every replication of ``config`` as one pool: ``_summaries``
    at the config's one threshold. It equals :func:`summarize` on the full
    in-memory runs pooled across replications, up to float rounding."""
    return next(_summaries(config, (config.policy.threshold,)))
