import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from platoonctl import (
    ArrivalModel,
    PlatoonPolicy,
    SimulationConfig,
    SimulationRun,
    expected_platoon_headway,
    expected_platoon_size,
    expected_time_reduction,
    run_from_interarrivals,
    run_replications,
    sample_interarrivals,
    summarize,
)
from platoonctl import simulator
from platoonctl.domain import MAX_UNIT_GAP
from platoonctl.simulator import CHUNK_VEHICLES, _gap_chunks, _Moments, _replication_stats

from conftest import pooled_reference, reference_estimate, reference_summary, run_samples, summary_mismatches

SEED = 20260810

# Gaps and thresholds on a 1 ms grid keep strict comparisons meaningful in
# float arithmetic while still exercising arbitrary platoon structure.
gap_lists = st.lists(
    st.integers(min_value=1, max_value=1_000_000).map(lambda m: m / 1000.0),
    min_size=1,
    max_size=200,
)
thresholds = st.integers(min_value=0, max_value=1_000_000).map(lambda m: m / 1000.0)


class TestSampleInterarrivals:
    def test_deterministic_for_fixed_seed(self):
        arrival = ArrivalModel(rate=0.02)
        first = sample_interarrivals(SEED, 1000, arrival)
        second = sample_interarrivals(SEED, 1000, arrival)
        assert np.array_equal(first, second)

    def test_replications_are_distinct_streams(self):
        arrival = ArrivalModel(rate=0.02)
        rep0 = sample_interarrivals(SEED, 1000, arrival, replication=0)
        rep1 = sample_interarrivals(SEED, 1000, arrival, replication=1)
        assert not np.array_equal(rep0, rep1)

    def test_sample_mean_near_mean_gap(self):
        # Standard error of the mean is (1/rate)/sqrt(n).
        arrival = ArrivalModel(rate=0.02)
        n = 1_000_000
        gaps = sample_interarrivals(SEED, n, arrival)
        standard_error = 50.0 / math.sqrt(n)
        assert abs(float(gaps.mean()) - 50.0) <= 3.0 * standard_error
        assert float(gaps.min()) >= 0.0

    def test_rejects_bad_arguments(self):
        arrival = ArrivalModel(rate=0.02)
        with pytest.raises(ValueError, match="n must be"):
            sample_interarrivals(SEED, 0, arrival)
        with pytest.raises(ValueError, match="seed"):
            sample_interarrivals(-1, 10, arrival)
        with pytest.raises(ValueError, match="replication"):
            sample_interarrivals(SEED, 10, arrival, replication=-2)

    def test_rate_whose_gaps_overflow_is_rejected_before_drawing(self, monkeypatch):
        def never(*args):
            raise AssertionError("drew gaps before checking the rate")

        monkeypatch.setattr(simulator, "_gap_chunks", never)
        with pytest.raises(ValueError, match="rate = 1e-310 is too small"):
            sample_interarrivals(1, 3, ArrivalModel(rate=1e-310))

    def test_rate_near_the_overflow_limit_is_accepted(self):
        rate = MAX_UNIT_GAP / sys.float_info.max * 2
        gaps = sample_interarrivals(1, 3, ArrivalModel(rate=rate))
        assert np.isfinite(gaps).all()


# The rate at which MAX_UNIT_GAP / rate is twice the largest float: the
# largest gap a rate above half of it can draw is finite.
LIMIT_RATE = MAX_UNIT_GAP / sys.float_info.max


class TestGapTransform:
    """The draw path's inverse-CDF transform, gap = -ln(1 - U) / rate, at
    chosen uniforms U in [0, 1), the range of numpy's ``random``."""

    @staticmethod
    def _gaps(monkeypatch, uniforms, rate):
        class Fixed:
            def random(self, out):
                out[:] = uniforms[: out.size]
                return out

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Fixed())
        return sample_interarrivals(1, len(uniforms), ArrivalModel(rate=rate))

    def test_u_zero_gives_zero_gap(self, monkeypatch):
        assert self._gaps(monkeypatch, [0.0], rate=0.02).tolist() == [0.0]

    @pytest.mark.parametrize("rate", [1.0, 0.02, 0.125, 1e-300])
    def test_known_value(self, monkeypatch, rate):
        # U = 1 - e^-1 gives -ln(1 - U) = 1, the mean gap times the rate.
        gaps = self._gaps(monkeypatch, [-math.expm1(-1.0)], rate=rate)
        assert gaps[0] == pytest.approx(1.0 / rate, rel=1e-12)

    def test_gaps_increase_with_u(self, monkeypatch):
        uniforms = [0.0, 2.0**-53, 0.1, 0.5, 0.9, 1.0 - 2.0**-53]
        gaps = self._gaps(monkeypatch, uniforms, rate=1.0)
        assert np.all(np.diff(gaps) > 0)

    @pytest.mark.parametrize("rate", [1.0, 0.02, 1e-300, 2 * LIMIT_RATE])
    def test_largest_uniform_gives_the_largest_gap(self, monkeypatch, rate):
        # U = 1 - 2^-53, the largest double below 1, draws MAX_UNIT_GAP / rate,
        # the bound sample_interarrivals checks the rate against.
        gaps = self._gaps(monkeypatch, [1.0 - 2.0**-53], rate=rate)
        assert math.isfinite(gaps[0])
        assert gaps[0] == pytest.approx(MAX_UNIT_GAP / rate, rel=1e-15)

    @pytest.mark.parametrize("rate", [1e-310, 5e-324, LIMIT_RATE / 2])
    def test_rate_whose_gaps_overflow_is_rejected(self, monkeypatch, rate):
        def never(*args):
            raise AssertionError("drew gaps before checking the rate")

        monkeypatch.setattr(simulator, "_gap_chunks", never)
        with pytest.raises(ValueError, match=rf"^rate = {re.escape(repr(rate))} is too small"):
            sample_interarrivals(1, 3, ArrivalModel(rate=rate))


class TestFormation:
    def test_tie_gap_merges(self):
        run = run_from_interarrivals([5.0, 4.0, 4.0], PlatoonPolicy(threshold=4.0))
        assert run.platoon_sizes.tolist() == [3]
        assert run.leader_indices.tolist() == [1]

    def test_zero_threshold_gives_singletons(self):
        gaps = sample_interarrivals(SEED, 500, ArrivalModel(rate=0.1))
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=0.0))
        assert run.platoon_sizes.tolist() == [1] * 500
        assert run.leader_indices.tolist() == list(range(1, 501))

    def test_first_vehicle_always_leads(self):
        # A small first gap must not merge vehicle 1 backwards in time.
        run = run_from_interarrivals([0.5, 9.0], PlatoonPolicy(threshold=4.0))
        assert run.platoon_sizes.tolist() == [1, 1]
        assert run.leader_indices.tolist() == [1, 2]

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_from_interarrivals([], PlatoonPolicy(threshold=4.0))

    @pytest.mark.parametrize(
        "bad", [[[1.0, 2.0]], [1.0, -0.5], [1.0, math.nan], [math.inf, 1.0], [-math.inf]]
    )
    def test_rejects_malformed_gaps(self, bad):
        with pytest.raises(ValueError, match="interarrivals must be"):
            run_from_interarrivals(bad, PlatoonPolicy(threshold=4.0))

    @given(gaps=gap_lists, threshold=thresholds)
    def test_sizes_conserve_vehicles(self, gaps, threshold):
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=threshold))
        assert int(run.platoon_sizes.sum()) == len(gaps)
        assert run.leader_indices[0] == 1
        assert np.all(np.diff(run.leader_indices) > 0)
        assert np.all(run.platoon_sizes >= 1)


class TestTimeShifts:
    def test_all_gaps_above_threshold_means_no_shift(self):
        run = run_from_interarrivals([10.0, 20.0, 30.0], PlatoonPolicy(threshold=5.0))
        assert run.time_shifts.tolist() == [0.0, 0.0, 0.0]

    @given(gaps=gap_lists, threshold=thresholds)
    def test_shift_recursion_invariants(self, gaps, threshold):
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=threshold))
        shifts = run.time_shifts
        is_leader = np.zeros(len(gaps), dtype=bool)
        is_leader[run.leader_indices - 1] = True
        assert np.all(shifts[is_leader] == 0.0)
        assert np.all(shifts[~is_leader] > 0.0)
        # matches the per-vehicle recursion
        expected = [0.0]
        for k in range(1, len(gaps)):
            expected.append(gaps[k] + expected[k - 1] if gaps[k] <= threshold else 0.0)
        assert shifts == pytest.approx(expected, rel=1e-12, abs=1e-9)


class TestLeaderHeadways:
    def test_single_platoon_gives_empty(self):
        assert run_from_interarrivals([5.0, 1.0, 1.0], PlatoonPolicy(threshold=4.0)).leader_headways.size == 0

    @given(gaps=gap_lists, threshold=thresholds)
    def test_every_headway_exceeds_threshold(self, gaps, threshold):
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=threshold))
        assert np.all(run.leader_headways > threshold)
        # Each headway is the sum of the gaps after one leader up to and
        # including the next.
        bounds = run.leader_indices - 1
        expected = [sum(gaps[a + 1 : b + 1]) for a, b in zip(bounds[:-1], bounds[1:])]
        assert run.leader_headways == pytest.approx(expected, rel=1e-12)


class TestRunAssembly:
    def test_run_matches_component_operations(self):
        # Worked by hand: platoons {1,2,3}, {4,5,6}, {7}.
        gaps = [5.0, 3.0, 1.0, 8.0, 2.0, 2.0, 9.0]
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=4.0))
        assert run.platoon_sizes.tolist() == [3, 3, 1]
        assert run.leader_indices.tolist() == [1, 4, 7]
        assert run.leader_headways.tolist() == [12.0, 13.0]
        assert run.time_shifts.tolist() == [0.0, 3.0, 4.0, 0.0, 2.0, 4.0, 0.0]
        assert run.interarrivals.tolist() == gaps

    # A valid record of gaps [5, 3, 9] at threshold 4, and one field replaced
    # per case to break each invariant SimulationRun checks.
    VALID_RUN = dict(
        interarrivals=np.array([5.0, 3.0, 9.0]),
        platoon_sizes=np.array([2, 1]),
        leader_indices=np.array([1, 3]),
        leader_headways=np.array([12.0]),
        time_shifts=np.array([0.0, 3.0, 0.0]),
    )

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("interarrivals", np.empty(0), "non-empty"),
            ("platoon_sizes", np.array([3, 1]), "sum"),
            ("platoon_sizes", np.array([1, 1, 1]), "one leader index per platoon"),
            ("leader_indices", np.array([2, 3]), "start at 1"),
            ("leader_indices", np.array([1, 1]), "strictly increasing"),
            ("leader_headways", np.empty(0), "one leader headway"),
            ("time_shifts", np.zeros(2), "one time shift per vehicle"),
            ("time_shifts", np.array([0.0, 3.0, 1.0]), "exactly 0 at platoon leaders"),
        ],
    )
    def test_run_validation_rejects_inconsistent_fields(self, field, value, message):
        SimulationRun(**self.VALID_RUN)  # the unbroken record is accepted
        with pytest.raises(ValueError, match=message):
            SimulationRun(**{**self.VALID_RUN, field: value})

    def test_seeded_run_is_reproducible(self):
        arrival = ArrivalModel(rate=0.02)
        policy = PlatoonPolicy(threshold=50.0)
        one = run_from_interarrivals(sample_interarrivals(SEED, 10_000, arrival), policy)
        two = run_from_interarrivals(sample_interarrivals(SEED, 10_000, arrival), policy)
        assert np.array_equal(one.interarrivals, two.interarrivals)
        assert np.array_equal(one.platoon_sizes, two.platoon_sizes)
        assert np.array_equal(one.time_shifts, two.time_shifts)

    def test_large_run_tracks_closed_forms(self):
        # Empirical means against the geometric-size closed forms at
        # rate * threshold = 1; tolerance 1% relative.
        arrival = ArrivalModel(rate=0.02)
        policy = PlatoonPolicy(threshold=50.0)
        run = run_from_interarrivals(sample_interarrivals(SEED, 1_000_000, arrival), policy)
        summary = summarize(run)
        assert summary.platoon_size.mean == pytest.approx(math.e, rel=0.01)
        assert summary.leader_headway.mean == pytest.approx(50.0 * math.e, rel=0.01)
        assert summary.time_shift.mean == pytest.approx(50.0 * math.e - 100.0, rel=0.01)
        assert np.all(run.leader_headways > policy.threshold)


class TestSummarize:
    def test_final_platoon_censored_from_size_sample(self):
        run = run_from_interarrivals([5.0, 3.0, 1.0, 8.0, 2.0, 2.0, 9.0], PlatoonPolicy(threshold=4.0))
        summary = summarize(run)
        # censored size sample is [3, 3]
        assert summary.platoon_size.mean == 3.0
        assert summary.platoon_size.count == 2
        assert summary.size_pmf[3] == 1.0
        assert sum(summary.size_pmf.values()) <= 1.0

    def test_constant_sample_has_zero_half_width(self):
        run = run_from_interarrivals([10.0, 20.0, 30.0, 40.0], PlatoonPolicy(threshold=5.0))
        summary = summarize(run)
        assert summary.platoon_size.ci_half_width == 0.0  # sizes all 1
        assert summary.time_shift.mean == 0.0
        assert summary.time_shift.ci_half_width == 0.0

    def test_single_platoon_is_an_error(self):
        run = run_from_interarrivals([5.0, 3.0, 2.0], PlatoonPolicy(threshold=4.0))
        with pytest.raises(ValueError, match="platoon-size|leader-headway"):
            summarize(run)

    def test_pmf_tail_beyond_cutoff_excluded(self):
        run = run_from_interarrivals([5.0] + [1.0] * 11 + [9.0, 1.0, 9.0], PlatoonPolicy(threshold=4.0))
        # sizes [12, 2, 1], censored sample [12, 2]
        summary = summarize(run)
        assert set(summary.size_pmf) == set(range(1, 11))
        assert summary.size_pmf[2] == 0.5
        assert sum(summary.size_pmf.values()) == 0.5  # the size-12 platoon is tail mass

    @pytest.mark.parametrize("x", [0.1, 1.0, 3.0])
    def test_matches_the_reference_estimator(self, x):
        # summarize() shares the kernel's mergeable estimator; the reference
        # is numpy's mean and std(ddof=1) on the same samples. At x = 0.1
        # most platoons are singletons; at x = 3 many exceed the PMF cutoff.
        gaps = sample_interarrivals(SEED, 5_000, ArrivalModel(rate=0.02))
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=x / 0.02))
        assert summary_mismatches(summarize(run), reference_summary(*run_samples(run))) == []

    def test_leaves_the_run_unmodified(self):
        # The estimator computes deviations in its input's memory, so
        # summarize must hand it copies.
        gaps = sample_interarrivals(SEED, 5000, ArrivalModel(rate=0.02))
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=50.0))
        before = {name: getattr(run, name).copy() for name in run.__dataclass_fields__}
        summarize(run)
        for name, array in before.items():
            assert np.array_equal(getattr(run, name), array), name


class TestMoments:
    def test_deviations_in_place_equal_a_copy(self):
        values = np.random.default_rng(SEED).exponential(30.0, size=10_001)
        copy = values.copy()
        mean = float(np.mean(copy))
        deviations = copy - mean
        moments = _Moments.of(values)
        assert (moments.count, moments.mean, moments.m2) == (10_001, mean, float(np.dot(deviations, deviations)))
        assert np.array_equal(values, deviations)  # the input now holds the deviations

    def test_one_sample_is_too_few(self):
        # One sample has no variance estimate, so no confidence interval: the
        # estimator and the reference refuse it alike, not with half-width 0.
        message = r"^fewer than two x samples to summarize; a confidence interval needs at least two$"
        with pytest.raises(ValueError, match=message):
            _Moments.of(np.array([5.0])).estimate("x")
        with pytest.raises(ValueError, match=message):
            reference_estimate(np.array([5.0]), "x")
        assert _Moments.of(np.array([5.0, 7.0])).estimate("x").count == 2


class TestRunReplications:
    def _config(self, **overrides):
        defaults = dict(
            arrival=ArrivalModel(rate=0.02),
            policy=PlatoonPolicy(threshold=50.0),
            n_vehicles=20_000,
            n_replications=4,
            seed=SEED,
        )
        defaults.update(overrides)
        return SimulationConfig(**defaults)

    def test_single_replication_equals_plain_summary(self):
        # The streaming kernel against summarize() on the full in-memory run
        # and against the reference estimator: integer statistics exactly,
        # float ones to rel 1e-12.
        config = self._config(n_replications=1)
        aggregate = run_replications(config)
        run = run_from_interarrivals(sample_interarrivals(config.seed, config.n_vehicles, config.arrival), config.policy)
        assert summary_mismatches(aggregate, summarize(run)) == []
        assert summary_mismatches(aggregate, reference_summary(*run_samples(run))) == []

    def test_aggregate_is_deterministic(self):
        config = self._config()
        first = run_replications(config)
        second = run_replications(config)
        assert first == second

    def test_aggregate_independent_of_execution_order(self):
        # Replication streams derive from (seed, index) alone, so computing
        # the per-replication statistics in reverse and merging them by index
        # must reproduce the library aggregate bit for bit.
        config = self._config()
        aggregate = run_replications(config)
        stats = {rep: _replication_stats(config, rep) for rep in reversed(range(config.n_replications))}
        merged = stats[0]
        for rep in range(1, config.n_replications):
            merged = merged.merge(stats[rep])
        assert merged.summary() == aggregate
        assert summary_mismatches(aggregate, pooled_reference(config)) == []

    def test_split_replications_consistent_with_single_run(self):
        # 10 x 100k pooled should agree with 1 x 1M within overlapping CIs.
        split = run_replications(self._config(n_vehicles=100_000, n_replications=10, seed=11))
        single = run_replications(self._config(n_vehicles=1_000_000, n_replications=1, seed=22))
        for name in ("platoon_size", "leader_headway", "time_shift"):
            a = getattr(split, name)
            b = getattr(single, name)
            assert abs(a.mean - b.mean) <= a.ci_half_width + b.ci_half_width

    def test_all_censored_pool_fails_naming_the_statistic(self):
        # At the largest supported rate * threshold (50) a gap ends a platoon
        # with probability e^-50, so 100 vehicles form one platoon, which has
        # no closed size sample, in every replication.
        config = self._config(policy=PlatoonPolicy(threshold=2500.0), n_vehicles=100, n_replications=2)
        censored = r"^fewer than two platoon-size \(each run's last platoon is censored\) samples"
        with pytest.raises(ValueError, match=censored):
            run_replications(config)

    def test_pool_with_closed_platoons_is_summarized(self):
        # At x = 8 the mean platoon holds e^8 ~ 3,000 vehicles: of three
        # replications of 2,000 vehicles, the last closes no platoon on its
        # own, and the pool still holds the other two's closed platoons.
        config = self._config(
            arrival=ArrivalModel(rate=1.0), policy=PlatoonPolicy(threshold=8.0), n_vehicles=2000, n_replications=3,
            seed=1,
        )
        assert [_replication_stats(config, rep).size_count for rep in range(3)] == [1, 1, 0]
        summary = run_replications(config)
        assert (summary.platoon_size.count, summary.leader_headway.count, summary.time_shift.count) == (2, 2, 6000)
        assert summary_mismatches(summary, pooled_reference(config)) == []

    def test_one_closed_platoon_fails_naming_the_statistic(self):
        # At x = 8 the 3,000 vehicles of seed 1 close a single platoon.
        config = self._config(
            arrival=ArrivalModel(rate=1.0), policy=PlatoonPolicy(threshold=8.0), n_vehicles=3000, n_replications=1,
            seed=1,
        )
        assert _replication_stats(config, 0).size_count == 1
        with pytest.raises(ValueError, match=r"^fewer than two platoon-size "):
            run_replications(config)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_vehicles"):
            self._config(n_vehicles=1)
        with pytest.raises(ValueError, match="n_replications"):
            self._config(n_replications=0)
        with pytest.raises(ValueError, match="seed"):
            self._config(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            self._config(seed=2**64)
        with pytest.raises(ValueError, match="supported range is rate \\* threshold <= 50"):
            self._config(policy=PlatoonPolicy(threshold=2500.0001))

    def test_rejects_times_beyond_the_float_range(self):
        # The bound n * reps * H^2 < float max, with the horizon
        # H = n * 53 ln 2 / rate, at 1% either side of its limit rate.
        n, reps = 20_000, 4
        limit = n * MAX_UNIT_GAP * math.sqrt(n * reps / sys.float_info.max)
        singletons = PlatoonPolicy(threshold=0.0)
        with pytest.raises(ValueError, match=r"^arrival\.rate = \S+ is too small for n_vehicles = 20000 "):
            self._config(arrival=ArrivalModel(rate=0.99 * limit), policy=singletons)
        config = self._config(arrival=ArrivalModel(rate=1.01 * limit), policy=singletons)
        aggregate = run_replications(config)
        for name in ("platoon_size", "leader_headway", "time_shift"):
            estimate = getattr(aggregate, name)
            assert math.isfinite(estimate.mean) and math.isfinite(estimate.ci_half_width)

    @pytest.mark.parametrize(
        "n,reps", [(10**300, 1), (2, 10**306), (10**200, 10**200)], ids=["n", "replications", "both"]
    )
    def test_horizon_check_takes_any_size_in_float_range(self, n, reps):
        with pytest.raises(ValueError, match="too small for n_vehicles"):
            self._config(n_vehicles=n, n_replications=reps)


C = CHUNK_VEHICLES


class TestStreamingKernel:
    """``run_replications`` folds gaps chunk by chunk; it must agree with the
    in-memory reference wherever a chunk boundary falls."""

    def _config(self, **overrides):
        defaults = dict(
            arrival=ArrivalModel(rate=0.02),
            policy=PlatoonPolicy(threshold=50.0),
            n_vehicles=C,
            n_replications=1,
            seed=SEED,
        )
        defaults.update(overrides)
        return SimulationConfig(**defaults)

    def test_chunks_equal_one_shot_draw(self):
        # The randomness contract, written out: one PCG64 draw of n uniforms
        # from SeedSequence((seed, replication)), mapped by -ln(1 - v) / rate.
        arrival = ArrivalModel(rate=0.02)
        n = 3 * C + 7
        # Chunks share one buffer, so each is copied before the next is drawn.
        chunks = [chunk.copy() for chunk in _gap_chunks(SEED, 3, n, arrival.rate)]
        assert [c.size for c in chunks] == [C, C, C, 7]
        v = np.random.default_rng(np.random.SeedSequence((SEED, 3))).random(n)
        one_shot = -np.log(1.0 - v) / arrival.rate
        assert np.array_equal(np.concatenate(chunks), one_shot)
        assert np.array_equal(sample_interarrivals(SEED, n, arrival, replication=3), one_shot)

    def test_chunks_are_not_validated_again(self, monkeypatch):
        # The per-chunk work runs no argument check: the number of checks is
        # the same at one chunk and at five.
        calls = {}
        for name in ("_integer",):
            check = getattr(simulator, name)

            def counted(*args, _name=name, _check=check):
                calls[_name] = calls.get(_name, 0) + 1
                return _check(*args)

            monkeypatch.setattr(simulator, name, counted)
        counts = []
        for n in (C, 5 * C):
            calls.clear()
            config = self._config(n_vehicles=n)
            run_replications(config)
            counts.append(dict(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("n", [2, C - 1, C, C + 1, 3 * C + 7])
    def test_matches_reference_at_chunk_boundaries(self, n):
        # Two vehicles close at most one platoon, too few samples for a
        # confidence interval, so n = 2 pools eight replications (three
        # closed platoons at this seed).
        config = self._config(n_vehicles=n, n_replications=8 if n == 2 else 1)
        summary = run_replications(config)
        assert summary_mismatches(summary, pooled_reference(config)) == []

    def test_platoon_spanning_several_chunks(self):
        # rate * threshold = 12: the mean platoon holds e^12 ~ 163k vehicles.
        config = self._config(policy=PlatoonPolicy(threshold=600.0), n_vehicles=1_000_000)
        run = run_from_interarrivals(sample_interarrivals(config.seed, config.n_vehicles, config.arrival), config.policy)
        assert int(run.platoon_sizes[:-1].max()) > 2 * C
        summary = run_replications(config)
        assert summary_mismatches(summary, reference_summary(*run_samples(run))) == []

    def test_replications_of_several_chunks(self):
        config = self._config(n_vehicles=3 * C + 7, n_replications=2)
        summary = run_replications(config)
        assert summary.time_shift.count == 2 * (3 * C + 7)
        assert summary_mismatches(summary, pooled_reference(config)) == []

    def test_several_replications(self):
        config = self._config(n_vehicles=C + 1, n_replications=4)
        summary = run_replications(config)
        assert summary.time_shift.count == 4 * (C + 1)
        assert summary_mismatches(summary, pooled_reference(config)) == []

    @settings(max_examples=60, deadline=None)
    @given(
        chunk=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=2, max_value=80),
        x=st.integers(min_value=0, max_value=40).map(lambda k: k / 10.0),
        reps=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_tiny_chunks_match_reference(self, chunk, n, x, reps, seed):
        # Chunks of a few vehicles put a boundary inside almost every platoon.
        config = self._config(
            policy=PlatoonPolicy(threshold=x / 0.02),
            n_vehicles=n,
            n_replications=reps,
            seed=seed,
        )
        try:
            reference = pooled_reference(config)
        except ValueError as exc:
            reference = exc
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "CHUNK_VEHICLES", chunk)
            if isinstance(reference, ValueError):
                with pytest.raises(ValueError, match=re.escape(str(reference))):
                    run_replications(config)
                return
            summary = run_replications(config)
        assert summary_mismatches(summary, reference) == []

    def test_stale_buffers_do_not_change_the_summary(self, monkeypatch):
        # Every buffer allocated during the run starts as garbage (NaN floats,
        # all-True masks), so a step that reads what it did not write this
        # chunk changes the result.
        config = self._config(n_vehicles=3 * C + 7, n_replications=2)
        fresh = run_replications(config)
        empty = np.empty
        allocated = []

        def stale(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(True if out.dtype == bool else math.nan if out.dtype.kind == "f" else -1)
            allocated.append(out.dtype)
            return out

        monkeypatch.setattr(np, "empty", stale)
        assert run_replications(config) == fresh
        assert {np.dtype(bool), np.dtype(float)} <= set(allocated)

    def test_same_summary_after_another_config(self):
        config = self._config(n_vehicles=C + 5)
        first = run_replications(config)
        run_replications(self._config(policy=PlatoonPolicy(threshold=150.0), n_vehicles=2 * C + 1, seed=SEED + 1))
        assert run_replications(config) == first
        assert summary_mismatches(first, pooled_reference(config)) == []

    def test_memory_is_flat_in_n(self):
        peaks = {}
        for n in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                run_replications(self._config(n_vehicles=n))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2_000_000] <= 1.1 * peaks[200_000]
        assert peaks[2_000_000] < 16 * 2**20


COVERAGE_RUNS = 200
COVERAGE_XS = (1.0, 3.0)


@pytest.fixture(scope="module")
def coverage_misses():
    """{(statistic, x): how many of the nominal 95% CIs of COVERAGE_RUNS
    single-replication runs of 1e5 vehicles at unit rate, seeds 0, 1, 2, ...,
    miss the closed form}."""
    closed_forms = {
        "platoon_size": expected_platoon_size,
        "leader_headway": expected_platoon_headway,
        "time_shift": expected_time_reduction,
    }
    misses = {}
    for x in COVERAGE_XS:
        arrival, policy = ArrivalModel(rate=1.0), PlatoonPolicy(threshold=x)
        summaries = [
            run_replications(SimulationConfig(arrival=arrival, policy=policy, n_vehicles=100_000, seed=seed))
            for seed in range(COVERAGE_RUNS)
        ]
        for name, closed_form in closed_forms.items():
            truth = closed_form(arrival, policy)
            estimates = [getattr(summary, name) for summary in summaries]
            misses[name, x] = sum(abs(e.mean - truth) > e.ci_half_width for e in estimates)
    return misses


@pytest.mark.parametrize(
    "statistic",
    [
        "platoon_size",
        "leader_headway",
        pytest.param(
            "time_shift",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the time-shift half-width treats the vehicles of one platoon as independent; their shifts "
                "are correlated, so it is too narrow (38.5% misses at x = 1, 82% at x = 3)",
            ),
        ),
    ],
)
def test_confidence_intervals_have_their_nominal_coverage(coverage_misses, statistic):
    # Every seed of the range counts. The miss share must lie in the
    # two-sided 99.9% binomial band around 5%.
    low, high = scipy_stats.binom.interval(0.999, COVERAGE_RUNS, 0.05)
    misses = {x: coverage_misses[statistic, x] for x in COVERAGE_XS}
    assert all(low <= count <= high for count in misses.values()), (
        f"{statistic}: CIs missing the closed form per x {misses} of {COVERAGE_RUNS}, band [{low:g}, {high:g}]"
    )
