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
chunks of ``CHUNK_VEHICLES``, as ln(1 - U): the gaps in units of 1/rate,
negated. The process depends on rate and threshold only through x =
rate·threshold, so ``run_replications`` folds each chunk in those units,
with no divide per vehicle, by one segmented sum, into a record of sums of
its closed platoons, scaled to seconds once per replication. Its memory is
O(CHUNK_VEHICLES) whatever ``n_vehicles`` and ``n_replications`` are; it is
the one-threshold case of ``_pooled_stats``, which draws each chunk once and
folds it into one record row per threshold of a grid (common random
numbers). ``sample_interarrivals`` divides each chunk by -rate into one
array of gaps in seconds, and ``run_from_interarrivals`` forms a whole run
in memory (O(n)) by a different algorithm, in seconds: the small-n
reference the streaming kernel matches. One estimator, ``_estimates``,
reads every record.

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
# memory is a few arrays of this length, about 49 bytes per vehicle (1.7 MiB),
# whatever the number of vehicles. Halving it again adds per-chunk calls
# that a sweep of many thresholds pays at every point.
CHUNK_VEHICLES = 1 << 15

# Sizes 1..PMF_CUTOFF get their own entry in a summary's ``size_pmf``.
PMF_CUTOFF = 10

# A record of closed platoons, each a renewal cycle of (size m, leader
# headway h, shift sum S), is one float64 row of sums, so records merge by
# addition: the count, Σ(m - 1), Σ(m - 1)², Σv, Σv², Σw, Σw², Σmw, then a
# size histogram whose last bin holds every size above PMF_CUTOFF. Sizes
# enter as m - 1, 0 for a singleton, in exact integer sums. v = h - c and
# w = S - q·m are taken about a center (c, q) that every record of a pool
# shares, the first closed platoon's headway and shift per vehicle, so the
# variances do not cancel where the samples are few and close together. The
# kernel keeps these sums in units of 1/rate and scales them to seconds once
# per replication; the centers are in seconds.
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


def _gap_chunks(seed: int, replication: int, n: int):
    """Yield ln(1 - U) for the ``n`` uniforms U of replication stream (seed,
    replication), in chunks of ``CHUNK_VEHICLES``: the gaps in units of
    1/rate, negated (a gap of -ln(1 - U) / rate seconds is ln(1 - U) / -rate).
    PCG64 draws split into chunks equal one long draw, so the chunk size
    never changes a gap. ``1 - rng.random`` lies in (0, 1] by construction,
    so the transform needs no check.

    Every chunk is a view of one buffer, transformed in place: a chunk is
    valid only until the next one is drawn, and the caller may overwrite
    it."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, replication)))
    buffer = np.empty(min(CHUNK_VEHICLES, n))
    for start in range(0, n, CHUNK_VEHICLES):
        u = rng.random(out=buffer[: min(CHUNK_VEHICLES, n - start)])
        np.subtract(1.0, u, out=u)
        yield np.log(u, out=u)


def sample_interarrivals(
    seed: int, n: int, arrival: ArrivalModel, replication: int = 0
) -> np.ndarray:
    """Draw ``n`` exponential interarrival gaps for one replication stream.

    Deterministic in (seed, replication); distinct replication indices give
    statistically independent streams from the same master seed. These are
    the chunks ``run_replications`` draws, each divided by -rate, joined.
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
    for chunk in _gap_chunks(seed, replication, n):
        np.divide(chunk, -arrival.rate, out=gaps[start : start + chunk.size])
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
    """Add to the ``record`` row, by one vector add, the sums of closed
    platoons whose m - 1, centered headways v and centered shift sums w are
    the three rows of ``cycles``, and whose sizes' histogram bins, each size
    m clipped at ``PMF_CUTOFF + 1``, are the ints ``bins``."""
    e, v, w = cycles
    row = np.empty(_RECORD_WIDTH)
    np.add.reduce(cycles, axis=1, out=row[1:7:2])
    row[0], row[2], row[4], row[6] = bins.size, np.dot(e, e), np.dot(v, v), np.dot(w, w)
    row[7] = np.dot(e, w) + row[5]  # Σmw = Σ(m - 1)w + Σw
    row[8:] = np.bincount(bins, minlength=PMF_CUTOFF + 2)
    record += row


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
    thresholds) ``centers``, in seconds; a column still NaN takes the first
    platoon this replication closes at that threshold.

    The fold runs in units of 1/rate, on the chunks of ``_gap_chunks``, so
    no gap is divided: a vehicle leads iff ln(1 - U) < -rate·threshold, and
    times count down from 0. The record is scaled to seconds once, before
    it is returned; the fold is about the unit-time center that one
    multiplication derives from ``centers``, also in the replication that
    sets them, so that, given the centers, no record depends on which
    replication set them.

    Each chunk is drawn once and summed once into arrival times, counted
    from the previous chunk's last vehicle, which every threshold then
    folds. A platoon's shift sum is its arrivals' sum less its size times
    its leader's arrival: one ``np.add.reduceat`` from the leaders gives
    every platoon's, exactly 0 for a singleton. A second subtraction
    centers it: size times (leader's arrival plus center) in one would round
    every leader of a binade by the same amount, a bias of 7.6e-13 in the
    mean shift at 1e6 vehicles. Across chunk boundaries each threshold
    carries its open (not yet closed) platoon, in Python scalars: its size,
    its leader's time and its partial shift sum.
    """
    rate = config.arrival.rate
    scale = -1.0 / rate  # seconds per unit of the fold's (negated) time
    length, points = min(CHUNK_VEHICLES, config.n_vehicles), len(thresholds)
    leads_buffer, arrivals_buffer = np.empty(length, dtype=bool), np.empty(length)
    # Per platoon of a chunk, its vehicles there, and as columns of
    # ``cycles`` its leader's time (then m - 1), its headway (then v) and
    # its shift sum (then w): slot 0 holds the one open at the chunk's
    # start, slot k (of k leaders) at its end.
    counts, cycles = np.empty(length + 1, dtype=np.int64), np.empty((3, length + 1))
    times, headways, sums = cycles
    records = np.zeros((points, _RECORD_WIDTH))
    limits = [-(rate * threshold) for threshold in thresholds]
    headway_centers, shift_centers = (centers * -rate).tolist()
    # Per threshold, the open platoon's size, its leader's time counted from
    # the chunk's start and its partial shift sum; the size is 0 only before
    # the first chunk: vehicle 1 always leads.
    open_sizes, leader_times, open_sums = [0] * points, [0.0] * points, [0.0] * points
    for gaps in _gap_chunks(config.seed, replication, config.n_vehicles):
        size = gaps.size
        arrivals = np.cumsum(gaps, out=arrivals_buffer[:size])
        last = arrivals.item(-1)
        for index, limit in enumerate(limits):
            open_size, leader_time = open_sizes[index], leader_times[index]
            leads = np.less(gaps, limit, out=leads_buffer[:size])
            if not open_size:
                leads[0] = True
            leaders = leads.nonzero()[0]
            k = leaders.size
            head = leaders.item(0) if k else size  # the open platoon's vehicles in this chunk
            open_sum = open_sums[index] + (float(np.add.reduce(arrivals[:head])) - head * leader_time)
            counts[:k], counts[k] = leaders, size
            counts[1 : k + 1] -= leaders
            arrivals.take(leaders, out=times[1 : k + 1], mode="clip")  # "clip" writes unbuffered
            np.add.reduceat(arrivals, leaders, out=sums[1 : k + 1])
            sums[1 : k + 1] -= np.multiply(counts[1 : k + 1], times[1 : k + 1], out=headways[1 : k + 1])
            counts[0], times[0], sums[0] = open_size + head, leader_time, open_sum
            closed = 0 if open_size else 1  # slot 0 is empty in the first chunk
            if k > closed:
                if math.isnan(headway_centers[index]):  # the pool's first closed platoon sets its center
                    center_h = (times.item(closed + 1) - times.item(closed)) * scale
                    center_q = sums.item(closed) / counts.item(closed) * scale
                    centers[:, index] = center_h, center_q
                    headway_centers[index], shift_centers[index] = center_h * -rate, center_q * -rate
                np.subtract(times[closed + 1 : k + 1], times[closed:k], out=headways[closed:k])
                headways[closed:k] -= headway_centers[index]
                # Over the leaders' times, which the headways have read; times[k] stays.
                sums[closed:k] -= np.multiply(counts[closed:k], shift_centers[index], out=times[closed:k])
                np.subtract(counts[closed:k], 1, out=times[closed:k])
                bins = np.minimum(counts[closed:k], PMF_CUTOFF + 1, out=counts[closed:k])  # over m, which m - 1 has read
                _add_cycles(records[index], cycles[:, closed:k], bins)
            open_sizes[index], leader_times[index], open_sums[index] = counts.item(k), times.item(k) - last, sums.item(k)
    records[:, 3:8] *= scale  # Σv, Σw and Σmw to seconds, and Σv², Σw² halfway
    records[:, 4:7:2] *= scale
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
