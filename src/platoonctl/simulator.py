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
bit-for-bit, and replications own disjoint streams: given the centers that a
pool's first closed platoons set, they could execute in any order (or in
parallel) without changing the pooled records, added in index order.

Every gap comes from ``_gap_chunks``, which draws a replication's stream in
chunks of ``CHUNK_VEHICLES``. ``run_replications`` folds each chunk, by one
segmented sum, into a record of sums of its closed platoons, so its memory is
O(CHUNK_VEHICLES) whatever ``n_vehicles`` and ``n_replications`` are; it is
the one-threshold case of ``_pooled_stats``, which draws each chunk once and
folds it into one record row per threshold of a grid (common random
numbers). ``sample_interarrivals`` joins the chunks into one array, and
``run_from_interarrivals`` forms a whole run in memory (O(n)) by a different
algorithm: the small-n reference the streaming kernel matches. One
estimator, ``_estimates``, reads every record.

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

# A record of closed platoons, each a renewal cycle of (size m, leader
# headway h, shift sum S), is one float64 row of sums, so records merge by
# addition: the count, Σ(m - 1), Σ(m - 1)², Σv, Σv², Σw, Σw², Σmw, then a
# size histogram whose last bin holds every size above PMF_CUTOFF. Sizes
# enter as m - 1, 0 for a singleton, in exact integer sums. v = h - c and
# w = S - q·m are taken about a center (c, q) that every record of a pool
# shares, the first closed platoon's headway and shift per vehicle, so the
# variances do not cancel where the samples are few and close together.
_RECORD_WIDTH = 8 + PMF_CUTOFF + 2


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
    sizes, headways = run.platoon_sizes[:-1], run.leader_headways
    shift_sums = np.add.reduceat(run.time_shifts, run.leader_indices - 1)[:-1]
    center = np.array([headways[0], shift_sums[0] / sizes[0]]) if sizes.size else np.zeros(2)
    record = np.zeros(_RECORD_WIDTH)
    cycles = (sizes - 1.0, headways - center[0], shift_sums - center[1] * sizes)
    _add_cycles(record, cycles, np.minimum(sizes, PMF_CUTOFF + 1))
    return _summary(record, center)


def _add_cycles(record: np.ndarray, cycles, bins: np.ndarray) -> None:
    """Add to the ``record`` row the sums of closed platoons whose m - 1,
    centered headways v and centered shift sums w are the three arrays of
    ``cycles``, and whose sizes' histogram bins, each size m clipped at
    ``PMF_CUTOFF + 1``, are the ints ``bins``."""
    totals = [part.sum() for part in cycles]
    record[0] += bins.size
    record[1:7:2] += totals
    record[2:7:2] += [np.dot(part, part) for part in cycles]
    record[7] += np.dot(cycles[0], cycles[2]) + totals[2]  # Σmw = Σ(m - 1)w + Σw
    record[8:] += np.bincount(bins, minlength=PMF_CUTOFF + 2)


def _estimates(records: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The mean size, mean headway and mean shift of each row of
    ``records``, about its column of ``centers``, each followed by its
    Student-t half-width at count - 1 degrees of freedom, as the six rows of
    one array. The mean shift is the ratio ΣS/Σm, and its half-width the
    delta-method one, sd(S - ratio·m) / (sqrt(count)·mean size) (Asmussen &
    Glynn 2007, ch. IV.4). A row of fewer than two cycles, too few for a CI,
    raises ``ValueError``."""
    n, e, ee, v, vv, w, ww, mw = records[:, :8].T  # e is m - 1
    if n.min() < 2:
        raise ValueError(
            "fewer than two platoon-size (each run's last platoon is censored) samples to summarize; "
            "a confidence interval needs at least two"
        )
    sizes = e + n  # Σm: exact integers, so the mean size is rounded once
    drift = w / sizes  # the ratio less q, as S - ratio·m = w - drift·m
    means = np.array([sizes / n, centers[0] + v / n, centers[1] + drift])
    residual = ww - 2.0 * drift * mw + drift * drift * (ee + 2.0 * e + n)  # Σ(S - ratio·m)²
    # The sums of squared deviations. Where the deviations are all 0 (S
    # exactly proportional to m, say), rounding can take one below 0.
    m2 = np.maximum([ee - e * e / n, vv - v * v / n, residual / (means[0] * means[0])], 0.0)
    scale = np.array([student_t_975(int(count) - 1) for count in n]) / np.sqrt(n)
    return np.stack([means, scale * np.sqrt(m2 / (n - 1))], axis=1).reshape(6, -1)


def _summary(record: np.ndarray, center: np.ndarray) -> EmpiricalSummary:
    """The ``EmpiricalSummary`` of one record row about ``center``, its PMF
    read from the size histogram."""
    n = int(record[0])
    means_and_widths = _estimates(record[None], center[:, None]).reshape(3, 2).tolist()
    return EmpiricalSummary(
        *(StatEstimate(mean=mean, ci_half_width=width, count=n) for mean, width in means_and_widths),
        size_pmf={y: float(record[8 + y] / record[0]) for y in range(1, PMF_CUTOFF + 1)},
    )


def _replication_stats(config: SimulationConfig, replication: int, thresholds, centers: np.ndarray) -> np.ndarray:
    """Fold one replication's gaps, chunk by chunk, into the record of its
    closed platoons under each of ``thresholds``, row by row of one array
    (``config.policy`` is not read); memory is O(CHUNK_VEHICLES +
    thresholds) whatever n is. Row i is about column i of the (2,
    thresholds) ``centers``; a column still NaN takes the first platoon
    this replication closes at that threshold.

    Each chunk is drawn once and summed once into arrival times, counted
    from the previous chunk's last vehicle, which every threshold then
    folds. A platoon's shift sum is its arrivals' sum less its size times
    its leader's arrival: one ``np.add.reduceat`` from the leaders gives
    every platoon's, exactly 0 for a singleton. Across chunk boundaries each
    threshold carries its open (not yet closed) platoon: its size, the time
    since its leader arrived (also the shift of its last vehicle) and its
    partial shift sum.
    """
    length, points = min(CHUNK_VEHICLES, config.n_vehicles), len(thresholds)
    leads_buffer, arrivals_buffer = np.empty(length, dtype=bool), np.empty(length)
    # Per platoon of a chunk, its vehicles there, and as columns of
    # ``cycles`` its leader's time (then m - 1), a scratch value (then v) and
    # its shift sum S (then w): slot 0 holds the one open at the chunk's
    # start, slot k (of k leaders) at its end.
    counts, cycles = np.empty(length + 1, dtype=np.int64), np.empty((3, length + 1))
    times, scratch, sums = cycles
    records = np.zeros((points, _RECORD_WIDTH))
    # Per threshold, the open platoon's size, time since its leader and shift
    # sum; the size is 0 only before the first chunk: vehicle 1 always leads.
    open_sizes, since_leader, open_sums = np.zeros(points, dtype=np.int64), np.zeros(points), np.zeros(points)
    for gaps in _gap_chunks(config.seed, replication, config.n_vehicles, config.arrival.rate):
        size = gaps.size
        arrivals = np.cumsum(gaps, out=arrivals_buffer[:size])
        for index, threshold in enumerate(thresholds):
            open_size = open_sizes[index]
            leads = np.greater(gaps, threshold, out=leads_buffer[:size])  # the inverse of the merge mask
            if not open_size:
                leads[0] = True
            leaders = np.flatnonzero(leads)
            k = leaders.size
            counts[:k], counts[k] = leaders, size
            counts[1 : k + 1] -= leaders
            times[0] = -since_leader[index]
            np.take(arrivals, leaders, out=times[1 : k + 1], mode="clip")  # "clip" writes unbuffered
            sums[0] = arrivals[: counts[0]].sum() + open_sums[index]
            np.add.reduceat(arrivals, leaders, out=sums[1 : k + 1])
            sums[: k + 1] -= np.multiply(counts[: k + 1], times[: k + 1], out=scratch[: k + 1])
            counts[0] += open_size
            closed = 0 if open_size else 1  # slot 0 is empty in the first chunk
            np.subtract(times[closed + 1 : k + 1], times[closed:k], out=scratch[closed:k])
            if k > closed and math.isnan(centers[0, index]):
                centers[:, index] = scratch[closed], sums[closed] / counts[closed]
            scratch[closed:k] -= centers[0, index]
            # Over the times h has read; times[k] stays.
            sums[closed:k] -= np.multiply(counts[closed:k], centers[1, index], out=times[closed:k])
            np.subtract(counts[closed:k], 1, out=times[closed:k])
            bins = np.minimum(counts[closed:k], PMF_CUTOFF + 1, out=counts[closed:k])  # over m, which m - 1 has read
            _add_cycles(records[index], cycles[:, closed:k], bins)
            open_sizes[index], since_leader[index], open_sums[index] = counts[k], arrivals[-1] - times[k], sums[k]
    return records


def _pooled_stats(config: SimulationConfig, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """The record of ``config``'s replications at each threshold, row by
    row, each replication drawn once for all, and the centers it is about:
    at each threshold, the first closed platoon of the lowest-indexed
    replication that closes one. Replications' records add in index order,
    so, given the centers, no record depends on the order they run in."""
    centers = np.full((2, len(thresholds)), np.nan)
    pool = _replication_stats(config, 0, thresholds, centers)
    for rep in range(1, config.n_replications):
        pool += _replication_stats(config, rep, thresholds, centers)
    return pool, centers


def run_replications(config: SimulationConfig) -> EmpiricalSummary:
    """Summarize every replication of ``config`` as one pool: the record of
    ``_pooled_stats`` at the config's one threshold. It equals
    :func:`summarize` on the full in-memory runs pooled across replications,
    up to float rounding. A pool of fewer than two closed platoons, too few
    for a CI, raises ``ValueError``."""
    pool, centers = _pooled_stats(config, (config.policy.threshold,))
    return _summary(pool[0], centers[:, 0])
