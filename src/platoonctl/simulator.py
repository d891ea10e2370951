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
pool's first closed platoons set, they can execute in any order, and in
parallel, without changing the pooled records, added in index order.
``_pooled_stats`` does so in one loop on W processes, one per usable CPU at
most: once replication 0's first chunks have set every center, W - 1 forked
workers (none if W is 1) fold the other replications, round robin, and pipe
their records back to the parent, which adds replications 1, 2, ... in index
order, folding every W-th itself. No output byte depends on W. A worker
exits between chunks once its parent is gone. The pool's cleanup kills and
reaps every worker on every path; a worker's exit status is read only where
its pipe ends before a record it owed.

Every gap comes from ``_gap_chunks``, which draws a replication's stream in
chunks of ``CHUNK_VEHICLES``, as ln(1 - U): the gaps in units of 1/rate,
negated. The process depends on rate and threshold only through x =
rate·threshold, so ``run_replications`` folds each chunk in those units,
with no divide per vehicle, by one segmented sum, into a record of sums of
its closed platoons, also in units of 1/rate; seconds enter only where the
estimator multiplies its headway and shift rows by 1/rate. Its memory is
O(CHUNK_VEHICLES) per process whatever ``n_vehicles`` and
``n_replications`` are; it is the one-threshold case of ``_pooled_stats``,
which draws each chunk once and folds it into one record row per threshold
of a grid (common random numbers). ``sample_interarrivals`` divides each chunk by -rate into one
array of gaps in seconds, and ``run_from_interarrivals`` forms a whole run
in memory (O(n)), whose ``SimulationRun`` derives its leaders, headways and
shifts by a different algorithm, in seconds: the small-n reference the
streaming kernel matches. One encoder, ``_add_cycles``,
writes every record from raw closed cycles, and one estimator,
``_estimates``, reads it.

Each replication allocates its chunk buffers once, and every chunk's steps
write into them, so a chunk ``_gap_chunks`` yields is valid only until the
next one is drawn; a caller that keeps chunks copies them.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

from .domain import (  # re-exported: the simulator's types live in domain, which needs no numpy
    MAX_SEED,
    MAX_UNIT_GAP,
    ArrivalModel,
    EmpiricalSummary,
    PlatoonPolicy,
    SimulationConfig,
    StatEstimate,
    _integer,
    _number,
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
# variances do not cancel where the samples are few and close together.
# ``_add_cycles`` alone encodes a cycle and picks the center, in units of
# 1/rate in the kernel and of seconds in ``summarize``.
_RECORD_WIDTH = 8 + PMF_CUTOFF + 2


@dataclass(frozen=True, eq=False)
class SimulationRun:
    """One realized arrival/merge trajectory, given by its two inputs: the
    ``interarrivals``, vehicle k's gap to vehicle k - 1 in seconds at index
    k - 1, and the ``platoon_sizes`` in arrival order. The gaps must be a
    non-empty 1-d array of real numbers, each finite and >= 0, with a sum H
    such that 4 * (n * H)^2, n the number of vehicles, is finite: the bound
    ``SimulationConfig`` puts on the sums of squares a summary takes. The
    sizes must be a non-empty 1-d array of integers that cast safely to
    ``np.intp`` (so not uint64, which ``np.repeat`` cannot take), each >= 1,
    that sum to the number of vehicles. Anything else raises ``ValueError``
    naming the field. Runs compare and hash by identity.

    The other fields are derived once, in ``__post_init__``:
    ``leader_indices`` are the 1-based vehicle numbers of the platoon
    leaders (vehicle 1 leads the first platoon), ``leader_headways`` the
    arrival-time differences of consecutive leaders, and
    ``time_shifts[k-1]`` vehicle k's catch-up shift, which follows the
    recursion shift[k] = gap[k] + shift[k-1] in a platoon and is exactly 0
    at every leader: a merging vehicle closes its gap onto a predecessor that
    already moved forward.
    """

    interarrivals: np.ndarray
    platoon_sizes: np.ndarray
    leader_indices: np.ndarray = field(init=False)
    leader_headways: np.ndarray = field(init=False)
    time_shifts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        gaps, sizes = self.interarrivals, self.platoon_sizes
        if not (isinstance(gaps, np.ndarray) and gaps.dtype.kind in "fiu" and gaps.ndim == 1 and gaps.size):
            raise ValueError("interarrivals must be a non-empty 1-d array of real numbers")
        with np.errstate(all="ignore"):  # a NaN or overflowed sum fails the check below
            arrivals = np.cumsum(gaps, dtype=float)
        span = gaps.size * arrivals.item(-1)  # n * H
        if not (gaps.min() >= 0 and span * span * 4.0 < math.inf):  # NaN fails both tests
            raise ValueError("interarrivals must be finite and >= 0, and so must their sum and 4 * (n * sum)^2, "
                             "n the number of vehicles")
        if not (isinstance(sizes, np.ndarray) and sizes.dtype.kind in "iu" and np.can_cast(sizes.dtype, np.intp)
                and sizes.ndim == 1 and sizes.size):
            raise ValueError("platoon_sizes must be a non-empty 1-d array of integers that fit np.intp")
        if not (sizes.min() >= 1 and sizes.sum(dtype=float) == gaps.size):  # a float sum cannot wrap
            raise ValueError("platoon_sizes must each be >= 1 and sum to the number of vehicles")
        leaders = np.cumsum(sizes, dtype=np.intp) - sizes
        # The shift recursion unrolled: the running sum of merged gaps minus
        # its value at the vehicle's platoon leader.
        merged_gaps = gaps.astype(float)  # a copy
        merged_gaps[leaders] = 0.0
        running = np.cumsum(merged_gaps)
        object.__setattr__(self, "leader_indices", leaders + 1)
        object.__setattr__(self, "leader_headways", np.diff(arrivals[leaders]))
        object.__setattr__(self, "time_shifts", running - np.repeat(running[leaders], sizes))


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


def _float_array(name: str, values):
    """``values`` as a float ndarray: an int or float ndarray converted as a
    whole, any other iterable element by element with ``_number``. A
    ``ValueError`` naming ``name`` if ``values`` is not iterable; the shape
    and range are the caller's to check."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return np.asarray(values, dtype=float)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    try:
        elements = list(values)
    except TypeError:
        raise ValueError(f"{name} must be a non-empty 1-d sequence") from None
    return np.array([_number(name, value) for value in elements], dtype=float)


def run_from_interarrivals(interarrivals, policy: PlatoonPolicy) -> SimulationRun:
    """The ``SimulationRun`` of a gap sequence under the inclusive threshold
    rule: vehicle 1 leads, and vehicle k (k >= 2) joins the current platoon
    iff its gap is <= threshold, otherwise it leads a new one. Only the
    platoon sizes are formed here; the run checks the gaps' shape and range
    and derives its leaders, headways and shifts. An int or float ndarray is
    converted as a whole; any other sequence element by element, like every
    other number.
    """
    gaps = _float_array("interarrivals", interarrivals)
    leads = gaps > policy.threshold
    leads.flat[:1] = True  # vehicle 1; ``flat`` lets a gap array of any shape reach the run's checks
    return SimulationRun(gaps, np.diff(np.append(np.flatnonzero(leads), gaps.size)))


def summarize(run: SimulationRun) -> EmpiricalSummary:
    """Empirical means, 95% CI half-widths, and the size PMF for one run.

    The final platoon is right-censored (no gap > threshold ever terminated
    it), so it is left out of every statistic.
    """
    sizes = run.platoon_sizes[:-1].copy()  # the encoder writes its bins over it
    shift_sums = np.add.reduceat(run.time_shifts, run.leader_indices - 1)[:-1]
    cycles = np.array([shift_sums, run.leader_headways, shift_sums])  # row 0 is scratch
    center, record = [math.nan, math.nan], np.zeros(_RECORD_WIDTH)
    if sizes.size:
        _add_cycles(record, center, sizes, cycles)
    return _summary(record, center, 1.0)


# In place on purpose: per-call temporaries give the same bytes but ran 7-13% slower (x = 0.1, and a sweep).
def _add_cycles(record: np.ndarray, center, sizes: np.ndarray, cycles: np.ndarray) -> None:
    """Add to the ``record`` row, by one vector add, the sums of closed
    cycles of sizes m (the ints ``sizes``), headways h and shift sums S
    (rows 1 and 2 of ``cycles``; row 0 is scratch), about the pool's [c, q]
    ``center``, which takes the first cycle's headway and shift per vehicle
    while still NaN. m - 1, v = h - c, w = S - q·m, then their squares and
    products overwrite ``cycles``, and the bins, each m clipped at
    ``PMF_CUTOFF + 1``, ``sizes``: nothing per cycle is allocated. Every sum is
    numpy's pairwise ``np.add.reduce``: a BLAS dot splits a long vector
    across threads, so its sums would follow their count."""
    e, v, w = cycles
    if math.isnan(center[0]):  # the pool's first closed platoon sets its center
        center[:] = v.item(0), w.item(0) / sizes.item(0)
    v -= center[0]
    w -= np.multiply(sizes, center[1], out=e)
    np.subtract(sizes, 1, out=e)
    bins = np.minimum(sizes, PMF_CUTOFF + 1, out=sizes)  # over m, which m - 1 has read
    row = np.empty(_RECORD_WIDTH)
    np.add.reduce(cycles, axis=1, out=row[1:7:2])
    row[0], row[4] = bins.size, np.add.reduce(np.square(v, out=v))
    row[7] = np.add.reduce(np.multiply(e, w, out=v)) + row[5]  # Σmw = Σ(m - 1)w + Σw
    row[2], row[6] = np.add.reduce(np.square(e, out=e)), np.add.reduce(np.square(w, out=w))
    row[8:] = np.bincount(bins, minlength=PMF_CUTOFF + 2)
    record += row


def _estimates(records: np.ndarray, centers: np.ndarray, unit: float) -> np.ndarray:
    """The mean size, mean headway and mean shift of each row of
    ``records``, about its column of ``centers``, each followed by its
    Student-t half-width at count - 1 degrees of freedom, as the six rows of
    one array. The mean shift is the ratio ΣS/Σm, and its half-width the
    delta-method one, sd(S - ratio·m) / (sqrt(count)·mean size) (Asmussen &
    Glynn 2007, ch. IV.4). Times are in units of ``unit`` seconds, so the
    headway and shift rows are multiplied by it. A row of fewer than two
    cycles, too few for a CI, raises ``ValueError``."""
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
    estimates = np.stack([means, scale * np.sqrt(m2 / (n - 1))], axis=1).reshape(6, -1)
    estimates[2:] *= unit
    return estimates


def _summary(record: np.ndarray, center, unit: float) -> EmpiricalSummary:
    """The ``EmpiricalSummary`` of one record row about ``center`` (c, q), in
    units of ``unit`` seconds, its PMF read from the size histogram."""
    n = int(record[0])
    means_and_widths = _estimates(record[None], np.reshape(center, (2, 1)), unit).reshape(3, 2).tolist()
    return EmpiricalSummary(
        *(StatEstimate(mean=mean, ci_half_width=width, count=n) for mean, width in means_and_widths),
        size_pmf={y: float(record[8 + y] / record[0]) for y in range(1, PMF_CUTOFF + 1)},
    )


def _chunk_folds(config: SimulationConfig, replication: int, thresholds, centers: list):
    """Fold one replication's gaps, chunk by chunk, into the record of its
    closed platoons under each of ``thresholds``, row by row of one array
    (``config.policy`` is not read); memory is O(CHUNK_VEHICLES +
    thresholds) whatever n is. The fold only forms raw cycles (size,
    headway, shift sum); ``_add_cycles`` encodes them into row i about the
    [c, q] list ``centers[i]``, and sets it while it is still NaN.

    Records and centers are in units of 1/rate: the fold runs on the chunks
    of ``_gap_chunks``, so no gap is divided. A vehicle leads iff
    ln(1 - U) < -rate·threshold, and times count down from 0, so a headway
    is the earlier leader's time less the later one's.

    Each chunk is drawn once and summed once into arrival times, counted
    from the previous chunk's last vehicle, which every threshold then
    folds. A platoon's shift sum is its size times its leader's arrival
    less its arrivals' sum: one ``np.add.reduceat`` from the leaders gives
    every platoon's, exactly 0 for a singleton. The encoder centers it in a
    second subtraction: size times (leader's arrival plus center) would round
    every leader of a binade by the same amount, a bias of 7.6e-13 in the
    mean shift at 1e6 vehicles. Across chunk boundaries each threshold
    carries its open (not yet closed) platoon, in Python scalars: its size,
    its leader's time and its partial shift sum.

    A generator, so a caller can pause the fold between chunks: after each
    chunk it yields the records array, the same one every time, which holds
    the replication's whole record once the last chunk is folded.
    """
    length, points = min(CHUNK_VEHICLES, config.n_vehicles), len(thresholds)
    leads_buffer, arrivals_buffer = np.empty(length, dtype=bool), np.empty(length)
    # Per platoon of a chunk, its vehicles there, and as columns of
    # ``cycles`` its leader's time (then the encoder's scratch), its
    # headway and its shift sum: slot 0 holds the one open at the chunk's
    # start, slot k (of k leaders) at its end. Every chunk reuses them.
    counts, cycles = np.empty(length + 1, dtype=np.int64), np.empty((3, length + 1))
    times, headways, sums = cycles
    records = np.zeros((points, _RECORD_WIDTH))
    limits = [-(config.arrival.rate * threshold) for threshold in thresholds]
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
            open_sum = open_sums[index] + (head * leader_time - float(np.add.reduce(arrivals[:head])))
            counts[:k], counts[k] = leaders, size
            counts[1 : k + 1] -= leaders
            arrivals.take(leaders, out=times[1 : k + 1], mode="clip")  # "clip" writes unbuffered
            np.add.reduceat(arrivals, leaders, out=sums[1 : k + 1])
            leader_sums = np.multiply(counts[1 : k + 1], times[1 : k + 1], out=headways[1 : k + 1])
            np.subtract(leader_sums, sums[1 : k + 1], out=sums[1 : k + 1])
            counts[0], times[0], sums[0] = open_size + head, leader_time, open_sum
            closed = 0 if open_size else 1  # slot 0 is empty in the first chunk
            if k > closed:
                np.subtract(times[closed:k], times[closed + 1 : k + 1], out=headways[closed:k])
                # The leaders' times, which the headways have read, are the encoder's scratch; slot k stays.
                _add_cycles(records[index], centers[index], counts[closed:k], cycles[:, closed:k])
            open_sizes[index], leader_times[index], open_sums[index] = counts.item(k), times.item(k) - last, sums.item(k)
        yield records


def _replication_stats(config: SimulationConfig, replication: int, thresholds, centers: list) -> np.ndarray:
    """The record of one replication under each of ``thresholds``, about
    ``centers``: ``_chunk_folds`` run to its end."""
    for records in _chunk_folds(config, replication, thresholds, centers):
        pass
    return records


# A pool forks only if a replication costs at least as much as
# MIN_FORK_CHUNKS full chunks of one threshold at x = 8, the cheapest fold
# measured. Measured with numpy loaded, 2 cores, as the minimum of 15 runs:
# a fork round trip (fork, a 160-byte record through a pipe, exit, waitpid)
# took 1.5 ms (median 2.2); a replication of 8 chunks took, per chunk, 0.29
# ms for 1 threshold at x = 8, 0.58 for 8 and 3.0 for 64 (0.70, 3.5 and 25
# at x = 1). So at x = 8 a chunk costs its draw, about 6 folds of one
# threshold (0.25 ms against 0.043), plus one fold per threshold, and a
# replication of n vehicles and k thresholds about n * (6 + k) folds of one
# vehicle. At the cutoff, n * (6 + k) = 8 * 7 * CHUNK_VEHICLES, a replication
# at x = 8 took 2.3-2.5 ms for k = 1, 2, 8 and 64 (n = 262,144, 229,376,
# 131,072 and 26,215); one chunk of 8 thresholds, which counting only
# vehicle-thresholds would fork, took 0.67 ms, less than the round trip.
MIN_FORK_CHUNKS = 8

# The exit status of a worker that ran out of memory; the parent raises
# MemoryError for it. Any other failure raises ChildProcessError.
_WORKER_OUT_OF_MEMORY = 3


def _process_count(config: SimulationConfig, centers: list) -> int:
    """How many processes fold ``config``'s replications: one per usable
    CPU (``sched_getaffinity``, so ``taskset`` caps it), at most one per
    replication, and only one if a replication costs less than
    ``MIN_FORK_CHUNKS`` full chunks of one threshold (its ``n_vehicles``
    cost a draw of about 6 folds plus one fold per threshold, one per
    center), if one of ``centers`` is still unset, if the platform cannot
    fork, or if another Python thread is alive, which a fork would not
    copy."""
    cost = config.n_vehicles * (6 + len(centers))  # in one-threshold folds of one vehicle, the draw as 6
    if config.n_replications == 1 or cost < MIN_FORK_CHUNKS * CHUNK_VEHICLES * (6 + 1) or _unset(centers):
        return 1
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return min(config.n_replications, len(os.sched_getaffinity(0)))


def _unset(centers: list) -> bool:
    """Whether a threshold's [c, q] center is still NaN."""
    return any(math.isnan(center[0]) for center in centers)


def _pooled_stats(config: SimulationConfig, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """The record of ``config``'s replications at each threshold, row by
    row, each replication drawn once for all, and the (2, thresholds) array
    of the centers it is about: the first closed platoon of the lowest
    replication that closes one, which ``_add_cycles`` picks.

    Replication 0 is folded chunk by chunk until every center is set. Then
    W = ``_process_count`` processes share the centers: W - 1 forked
    workers, none if W is 1. Worker w folds replications r ≡ w (mod W) and
    writes each record to its pipe; this process finishes replication 0 and
    adds replications 1, 2, ... in index order, folding r ≡ 0 (mod W) itself
    and reading the others. So it holds one record of its own and one it
    reads, a worker is read as soon as its record is due, and, since every
    record is the one this process would fold and the sums run in index
    order, no output byte depends on W.

    A worker's exit status counts only while it owes a record: where its
    pipe ends before a record is whole, ``_receive`` reaps it and raises
    MemoryError if it ran out of memory, else ChildProcessError naming the
    replication it owed. Every other worker is reaped once, in cleanup, on
    every path, KeyboardInterrupt too: it is killed, since it owes nothing
    more or the pool has failed, and waited for.
    """
    centers = [[math.nan, math.nan] for _ in thresholds]
    folds = _chunk_folds(config, 0, thresholds, centers)
    for pool in folds:
        if not _unset(centers):
            break
    processes, parent = _process_count(config, centers), os.getpid()
    workers = []  # [pid, reader] per worker; pid is None once reaped
    try:
        for worker in range(1, processes):
            read_end, write_end = os.pipe()
            workers.append([None, open(read_end, "rb")])
            try:
                pid = os.fork()
                if pid == 0:
                    replications = range(worker, config.n_replications, processes)
                    _work(config, thresholds, centers, replications, write_end, workers, parent)
                workers[-1][0] = pid
            finally:
                os.close(write_end)
        for _ in folds:  # the rest of replication 0
            pass
        record = np.empty_like(pool)
        for rep in range(1, config.n_replications):
            owner = rep % processes  # 0 for this process, w for worker w
            pool += _receive(workers[owner - 1], rep, record) if owner else _replication_stats(config, rep, thresholds, centers)
    finally:
        for channel in workers:
            pid, reader = channel
            reader.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return pool, np.array(centers).T


def _work(config: SimulationConfig, thresholds, centers: list, replications, write_end: int, workers: list, parent: int) -> None:
    """A forked worker: fold each of ``replications`` about ``centers`` and
    write its record to the pipe ``write_end``, once the read ends it
    inherited, those of ``workers`` (its own too), are closed. Between
    chunks it exits if its parent, pid ``parent``, is gone: a signal that
    kills the parent without an exception runs no cleanup there. It never
    returns: every path ends in ``os._exit``, so the caller's stack does not
    run on in the worker and the stdio buffers it inherited are not
    flushed."""
    status = 1
    try:
        for _, reader in workers:
            reader.close()
        for rep in replications:
            for records in _chunk_folds(config, rep, thresholds, centers):
                if os.getppid() != parent:
                    return  # to os._exit(1): no one reads the record
            view = memoryview(records).cast("B")
            while view:
                view = view[os.write(write_end, view):]
        status = 0
    except MemoryError:
        status = _WORKER_OUT_OF_MEMORY
    finally:
        os._exit(status)


def _receive(channel: list, rep: int, record: np.ndarray) -> np.ndarray:
    """Replication ``rep``'s record, read from the [pid, reader] ``channel``
    of its worker into ``record`` by one buffered ``readinto``, which ends
    short only where the pipe does. Then the worker, which still owed this
    record, is reaped, and its failure raised: MemoryError if it ran out of
    memory, else ChildProcessError."""
    if channel[1].readinto(record) == record.nbytes:
        return record
    _, status = os.waitpid(channel[0], 0)
    channel[0] = None
    code = os.waitstatus_to_exitcode(status)
    if code == _WORKER_OUT_OF_MEMORY:
        raise MemoryError(f"the worker process of replication {rep} ran out of memory")
    failure = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    raise ChildProcessError(f"the worker process of replication {rep} {failure}")


def run_replications(config: SimulationConfig) -> EmpiricalSummary:
    """Summarize every replication of ``config`` as one pool: the record of
    ``_pooled_stats`` at the config's one threshold. It equals
    :func:`summarize` on the full in-memory runs pooled across replications,
    up to float rounding. A pool of fewer than two closed platoons, too few
    for a CI, raises ``ValueError``."""
    pool, centers = _pooled_stats(config, (config.policy.threshold,))
    return _summary(pool[0], centers[:, 0], 1.0 / config.arrival.rate)
