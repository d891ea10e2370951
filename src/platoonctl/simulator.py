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
``_pooled_stats`` does so on up to one process per usable CPU: once
replication 0's first chunks have set every center, forked workers fold the
other replications, round robin, and pipe their records back to the parent,
which adds them in index order. No output byte depends on the CPU count.

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
in memory (O(n)) by a different algorithm, in seconds: the small-n
reference the streaming kernel matches. One encoder, ``_add_cycles``,
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


def _float_array(name: str, values, malformed: str):
    """``values`` as a float ndarray: an int or float ndarray converted as a
    whole, any other iterable element by element with ``_number``. A
    ``ValueError`` with ``malformed`` if ``values`` is not iterable; the
    caller checks the shape and range."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return np.asarray(values, dtype=float)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    try:
        elements = list(values)
    except TypeError:
        raise ValueError(malformed) from None
    return np.array([_number(name, value) for value in elements], dtype=float)


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


# A pool forks only if each replication holds at least this many chunks.
# Measured with numpy loaded, 2 cores: a fork round trip (fork, a 160-byte
# record through a pipe, exit, waitpid) took 1.9 ms, and a chunk of one
# threshold 0.32 ms at x = 8, 0.43 at x = 3, 0.73 at x = 1 and 0.99 at
# x = 0.1. A worker's share, one replication or more, then repays its fork
# even at the cheapest chunks measured.
MIN_FORK_CHUNKS = 8

# The exit status of a worker that ran out of memory; the parent raises
# MemoryError for it. Any other failure raises ChildProcessError.
_WORKER_OUT_OF_MEMORY = 3


def _process_count(config: SimulationConfig) -> int:
    """How many processes fold ``config``'s replications: one per usable
    CPU (``sched_getaffinity``, so ``taskset`` caps it), at most one per
    replication, and only one if a replication is shorter than
    ``MIN_FORK_CHUNKS`` chunks, if the platform cannot fork, or if another
    Python thread is alive, which a fork would not copy."""
    chunks = -(-config.n_vehicles // CHUNK_VEHICLES)
    if config.n_replications == 1 or chunks < MIN_FORK_CHUNKS:
        return 1
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return min(config.n_replications, len(os.sched_getaffinity(0)))


def _pooled_stats(config: SimulationConfig, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """The record of ``config``'s replications at each threshold, row by
    row, each replication drawn once for all, and the (2, thresholds) array
    of the centers it is about: the first closed platoon of the lowest
    replication that closes one, which ``_add_cycles`` picks. Replications'
    records add in index order, so, given the centers, no record depends on
    the order they run in, or on the process that folds them.

    Replication 0 is folded chunk by chunk. On ``_process_count`` processes,
    once every threshold's center is set, the rest of the pool goes to
    ``_add_forked``; otherwise replication 0 is folded to its end and every
    other replication follows in this process, in index order."""
    centers = [[math.nan, math.nan] for _ in thresholds]
    processes = _process_count(config)
    folds = _chunk_folds(config, 0, thresholds, centers)
    for pool in folds:
        if processes > 1 and not any(math.isnan(center[0]) for center in centers):
            _add_forked(pool, folds, config, thresholds, centers, processes)
            break
    else:
        for rep in range(1, config.n_replications):
            pool += _replication_stats(config, rep, thresholds, centers)
    return pool, np.array(centers).T


def _add_forked(pool: np.ndarray, folds, config: SimulationConfig, thresholds, centers: list, processes: int) -> None:
    """Finish replication 0's paused ``folds`` into ``pool``, its records
    array, and add replications 1, 2, ... to it in index order, on
    ``processes`` processes that share the set ``centers``.

    Worker w of 1..processes - 1, a fork of this process, folds replications
    r ≡ w (mod processes) and writes each record to its pipe; this process
    folds the rest. After each of its own records it reads, in index order,
    the workers' records that come before it, then adds its own, so it holds
    one record of its own and one it reads. Each record is the one this
    process would fold itself, and the sums run in the same order, so no
    output byte depends on the number of processes.

    A worker that runs out of memory raises MemoryError here; any other
    failure of a worker (a non-zero status, or a signal) raises
    ChildProcessError naming the replication it owed. On any exception,
    KeyboardInterrupt too, every worker not yet reaped is killed and reaped.
    """
    workers = []  # [pid, reader] per worker; pid is None once reaped
    try:
        for worker in range(1, processes):
            read_end, write_end = os.pipe()
            workers.append([None, open(read_end, "rb", buffering=0)])
            try:
                pid = os.fork()
                if pid == 0:
                    replications = range(worker, config.n_replications, processes)
                    _work(config, thresholds, centers, replications, write_end, workers)
                workers[-1][0] = pid
            finally:
                os.close(write_end)
        for _ in folds:  # the rest of replication 0
            pass
        record, added = np.empty_like(pool), 1
        for own in range(processes, config.n_replications + processes, processes):
            mine = _replication_stats(config, own, thresholds, centers) if own < config.n_replications else None
            for rep in range(added, min(own, config.n_replications)):
                pool += _receive(workers[rep % processes - 1], rep, record)
            if mine is not None:
                pool += mine
            added = own + 1
        for worker, channel in enumerate(workers, 1):
            _, status = os.waitpid(channel[0], 0)
            channel[0] = None
            if status:
                raise _worker_failure(status, range(worker, config.n_replications, processes)[-1])
    finally:
        for channel in workers:
            pid, reader = channel
            reader.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _work(config: SimulationConfig, thresholds, centers: list, replications, write_end: int, workers: list) -> None:
    """A forked worker: fold each of ``replications`` about ``centers`` and
    write its record to the pipe ``write_end``, once the read ends it
    inherited, those of ``workers`` (its own too), are closed. It never
    returns: every path ends in ``os._exit``, so the caller's stack does not
    run on in the worker and the stdio buffers it inherited are not
    flushed."""
    status = 1
    try:
        for _, reader in workers:
            reader.close()
        for rep in replications:
            view = memoryview(_replication_stats(config, rep, thresholds, centers)).cast("B")
            while view:
                view = view[os.write(write_end, view):]
        status = 0
    except MemoryError:
        status = _WORKER_OUT_OF_MEMORY
    finally:
        os._exit(status)


def _receive(channel: list, rep: int, record: np.ndarray) -> np.ndarray:
    """Replication ``rep``'s record, read from the [pid, reader] ``channel``
    of its worker into ``record``; if the pipe ends first, the worker is
    reaped and its failure raised."""
    view = memoryview(record).cast("B")
    while view:
        count = channel[1].readinto(view)
        if not count:
            _, status = os.waitpid(channel[0], 0)
            channel[0] = None
            raise _worker_failure(status, rep)
        view = view[count:]
    return record


def _worker_failure(status: int, rep: int) -> Exception:
    """The exception for the wait ``status`` of the worker that owed
    replication ``rep``."""
    code = os.waitstatus_to_exitcode(status)
    if code == _WORKER_OUT_OF_MEMORY:
        return MemoryError(f"the worker process of replication {rep} ran out of memory")
    if code < 0:
        return ChildProcessError(f"the worker process of replication {rep} was killed by signal {-code}")
    return ChildProcessError(f"the worker process of replication {rep} exited with status {code}")


def run_replications(config: SimulationConfig) -> EmpiricalSummary:
    """Summarize every replication of ``config`` as one pool: the record of
    ``_pooled_stats`` at the config's one threshold. It equals
    :func:`summarize` on the full in-memory runs pooled across replications,
    up to float rounding. A pool of fewer than two closed platoons, too few
    for a CI, raises ``ValueError``."""
    pool, centers = _pooled_stats(config, (config.policy.threshold,))
    return _summary(pool[0], centers[:, 0], 1.0 / config.arrival.rate)
