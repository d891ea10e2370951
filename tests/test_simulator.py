import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonctl import (
    ArrivalModel,
    PlatoonPolicy,
    SimulationConfig,
    SimulationRun,
    compute_time_shifts,
    form_platoons,
    headway_from_uniform,
    platoon_leader_headways,
    run_from_interarrivals,
    run_replications,
    run_simulation,
    sample_interarrivals,
    summarize,
)
from platoonctl import simulator
from platoonctl.simulator import CHUNK_VEHICLES, _gap_chunks, _replication_stats

from conftest import pooled_reference, summary_mismatches

SEED = 20260810

# Gaps and thresholds on a 1 ms grid keep strict comparisons meaningful in
# float arithmetic while still exercising arbitrary platoon structure.
gap_lists = st.lists(
    st.integers(min_value=1, max_value=1_000_000).map(lambda m: m / 1000.0),
    min_size=1,
    max_size=200,
)
thresholds = st.integers(min_value=0, max_value=1_000_000).map(lambda m: m / 1000.0)


class TestHeadwayFromUniform:
    def test_boundary_u_one_gives_zero_gap(self):
        assert headway_from_uniform(1.0, rate=0.02) == 0.0

    def test_known_value(self):
        assert headway_from_uniform(math.exp(-1.0), rate=1.0) == pytest.approx(1.0, rel=1e-12)

    def test_array_input(self):
        gaps = headway_from_uniform(np.array([1.0, 0.5, 0.1]), rate=1.0)
        assert gaps[0] == 0.0
        assert np.all(np.diff(gaps) > 0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0001])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="u must lie"):
            headway_from_uniform(bad, rate=1.0)


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


class TestFormPlatoons:
    def test_hand_worked_sequence(self):
        sizes, leaders = form_platoons([5.0, 3.0, 1.0, 8.0, 2.0, 2.0, 9.0], PlatoonPolicy(threshold=4.0))
        assert sizes.tolist() == [3, 3, 1]
        assert leaders.tolist() == [1, 4, 7]

    def test_tie_gap_merges(self):
        sizes, leaders = form_platoons([5.0, 4.0, 4.0], PlatoonPolicy(threshold=4.0))
        assert sizes.tolist() == [3]
        assert leaders.tolist() == [1]

    def test_zero_threshold_gives_singletons(self):
        gaps = sample_interarrivals(SEED, 500, ArrivalModel(rate=0.1))
        sizes, leaders = form_platoons(gaps, PlatoonPolicy(threshold=0.0))
        assert sizes.tolist() == [1] * 500
        assert leaders.tolist() == list(range(1, 501))

    def test_first_vehicle_always_leads(self):
        # A small first gap must not merge vehicle 1 backwards in time.
        sizes, leaders = form_platoons([0.5, 9.0], PlatoonPolicy(threshold=4.0))
        assert sizes.tolist() == [1, 1]
        assert leaders.tolist() == [1, 2]

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            form_platoons([], PlatoonPolicy(threshold=4.0))

    @given(gaps=gap_lists, threshold=thresholds)
    def test_sizes_conserve_vehicles(self, gaps, threshold):
        sizes, leaders = form_platoons(gaps, PlatoonPolicy(threshold=threshold))
        assert int(sizes.sum()) == len(gaps)
        assert leaders[0] == 1
        assert np.all(np.diff(leaders) > 0)
        assert np.all(sizes >= 1)


class TestComputeTimeShifts:
    def test_hand_worked_sequence(self):
        shifts = compute_time_shifts([5.0, 3.0, 1.0, 8.0, 2.0, 2.0, 9.0], PlatoonPolicy(threshold=4.0))
        assert shifts.tolist() == [0.0, 3.0, 4.0, 0.0, 2.0, 4.0, 0.0]

    def test_all_gaps_above_threshold_means_no_shift(self):
        shifts = compute_time_shifts([10.0, 20.0, 30.0], PlatoonPolicy(threshold=5.0))
        assert shifts.tolist() == [0.0, 0.0, 0.0]

    @given(gaps=gap_lists, threshold=thresholds)
    def test_shift_recursion_invariants(self, gaps, threshold):
        policy = PlatoonPolicy(threshold=threshold)
        shifts = compute_time_shifts(gaps, policy)
        _, leaders = form_platoons(gaps, policy)
        is_leader = np.zeros(len(gaps), dtype=bool)
        is_leader[leaders - 1] = True
        assert np.all(shifts[is_leader] == 0.0)
        assert np.all(shifts[~is_leader] > 0.0)
        # matches the per-vehicle recursion
        expected = [0.0]
        for k in range(1, len(gaps)):
            expected.append(gaps[k] + expected[k - 1] if gaps[k] <= threshold else 0.0)
        assert shifts == pytest.approx(expected, rel=1e-12, abs=1e-9)


class TestPlatoonLeaderHeadways:
    def test_hand_worked_sequence(self):
        gaps = [5.0, 3.0, 1.0, 8.0, 2.0, 2.0, 9.0]
        headways = platoon_leader_headways(gaps, [1, 4, 7])
        assert headways.tolist() == [12.0, 13.0]

    def test_single_platoon_gives_empty(self):
        assert platoon_leader_headways([5.0, 1.0, 1.0], [1]).size == 0

    def test_rejects_bad_leader_list(self):
        with pytest.raises(ValueError, match="leader_indices"):
            platoon_leader_headways([5.0, 9.0], [2])
        with pytest.raises(ValueError, match="beyond"):
            platoon_leader_headways([5.0, 9.0], [1, 5])

    @given(gaps=gap_lists, threshold=thresholds)
    def test_every_headway_exceeds_threshold(self, gaps, threshold):
        policy = PlatoonPolicy(threshold=threshold)
        _, leaders = form_platoons(gaps, policy)
        headways = platoon_leader_headways(gaps, leaders)
        assert np.all(headways > threshold)


class TestRunAssembly:
    def test_run_matches_component_operations(self):
        gaps = [5.0, 3.0, 1.0, 8.0, 2.0, 2.0, 9.0]
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=4.0))
        assert run.platoon_sizes.tolist() == [3, 3, 1]
        assert run.leader_indices.tolist() == [1, 4, 7]
        assert run.leader_headways.tolist() == [12.0, 13.0]
        assert run.time_shifts.tolist() == [0.0, 3.0, 4.0, 0.0, 2.0, 4.0, 0.0]
        assert run.n_vehicles == 7

    def test_run_validation_rejects_inconsistent_fields(self):
        gaps = np.array([5.0, 3.0])
        with pytest.raises(ValueError, match="sum"):
            SimulationRun(
                interarrivals=gaps,
                platoon_sizes=np.array([3]),
                leader_indices=np.array([1]),
                leader_headways=np.empty(0),
                time_shifts=np.zeros(2),
            )
        with pytest.raises(ValueError, match="start at 1"):
            SimulationRun(
                interarrivals=gaps,
                platoon_sizes=np.array([1, 1]),
                leader_indices=np.array([2, 3]),
                leader_headways=np.array([3.0]),
                time_shifts=np.zeros(2),
            )

    def test_seeded_run_is_reproducible(self):
        arrival = ArrivalModel(rate=0.02)
        policy = PlatoonPolicy(threshold=50.0)
        one = run_simulation(arrival, policy, 10_000, SEED)
        two = run_simulation(arrival, policy, 10_000, SEED)
        assert np.array_equal(one.interarrivals, two.interarrivals)
        assert np.array_equal(one.platoon_sizes, two.platoon_sizes)
        assert np.array_equal(one.time_shifts, two.time_shifts)

    def test_large_run_tracks_closed_forms(self):
        # Empirical means against the geometric-size closed forms at
        # rate * threshold = 1; tolerance 1% relative.
        arrival = ArrivalModel(rate=0.02)
        policy = PlatoonPolicy(threshold=50.0)
        run = run_simulation(arrival, policy, 1_000_000, SEED)
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

    def test_warmup_excludes_leading_vehicles(self):
        run = run_from_interarrivals([5.0, 3.0, 1.0, 8.0, 2.0, 2.0, 9.0], PlatoonPolicy(threshold=4.0))
        full = summarize(run, warmup_vehicles=0)
        trimmed = summarize(run, warmup_vehicles=3)
        assert full.time_shift.count == 7
        assert trimmed.time_shift.count == 4
        assert trimmed.time_shift.mean == pytest.approx(np.mean([0.0, 2.0, 4.0, 0.0]))

    def test_no_post_warmup_samples_is_an_error(self):
        run = run_from_interarrivals([5.0, 9.0], PlatoonPolicy(threshold=4.0))
        with pytest.raises(ValueError, match="time-shift"):
            summarize(run, warmup_vehicles=2)

    def test_single_platoon_is_an_error(self):
        run = run_from_interarrivals([5.0, 3.0, 2.0], PlatoonPolicy(threshold=4.0))
        with pytest.raises(ValueError, match="platoon-size|leader-headway"):
            summarize(run)

    def test_pmf_tail_beyond_cutoff_excluded(self):
        run = run_from_interarrivals([5.0, 1.0, 1.0, 1.0, 9.0, 1.0, 9.0], PlatoonPolicy(threshold=4.0))
        # sizes [4, 2, 1], censored sample [4, 2]
        summary = summarize(run, pmf_cutoff=3)
        assert set(summary.size_pmf) == {1, 2, 3}
        assert summary.size_pmf[2] == 0.5
        assert sum(summary.size_pmf.values()) == 0.5  # the size-4 platoon is tail mass


class TestRunReplications:
    def _config(self, **overrides):
        defaults = dict(
            arrival=ArrivalModel(rate=0.02),
            policy=PlatoonPolicy(threshold=50.0),
            n_vehicles=20_000,
            n_replications=4,
            seed=SEED,
            warmup_vehicles=0,
        )
        defaults.update(overrides)
        return SimulationConfig(**defaults)

    def test_single_replication_equals_plain_summary(self):
        # The streaming kernel against summarize() on the full in-memory run:
        # integer statistics exactly, float ones to rel 1e-12.
        config = self._config(n_replications=1)
        aggregate, per_rep = run_replications(config)
        direct = summarize(run_simulation(config.arrival, config.policy, config.n_vehicles, config.seed))
        assert summary_mismatches(aggregate, direct) == []
        assert per_rep == [aggregate]

    def test_aggregate_is_deterministic(self):
        config = self._config()
        first, _ = run_replications(config)
        second, _ = run_replications(config)
        assert first == second

    def test_aggregate_independent_of_execution_order(self):
        # Replication streams derive from (seed, index) alone, so computing
        # the per-replication statistics in reverse and merging them by index
        # must reproduce the library aggregate bit for bit.
        config = self._config()
        aggregate, per_rep = run_replications(config)
        stats = {rep: _replication_stats(config, rep, 10) for rep in reversed(range(config.n_replications))}
        merged = stats[0]
        for rep in range(1, config.n_replications):
            merged = merged.merge(stats[rep])
        assert merged.summary(10) == aggregate
        assert [stats[rep].summary(10) for rep in range(config.n_replications)] == per_rep
        assert summary_mismatches(aggregate, pooled_reference(config)[0]) == []

    def test_split_replications_consistent_with_single_run(self):
        # 10 x 100k pooled should agree with 1 x 1M within overlapping CIs.
        split, _ = run_replications(self._config(n_vehicles=100_000, n_replications=10, seed=11))
        single, _ = run_replications(self._config(n_vehicles=1_000_000, n_replications=1, seed=22))
        for name in ("platoon_size", "leader_headway", "time_shift"):
            a = getattr(split, name)
            b = getattr(single, name)
            assert abs(a.mean - b.mean) <= a.ci_half_width + b.ci_half_width

    def test_replication_errors_carry_the_index(self):
        # At the largest supported rate * threshold (50) a gap ends a platoon
        # with probability e^-50, so 100 vehicles form one platoon, which has
        # no censored size sample.
        config = self._config(policy=PlatoonPolicy(threshold=2500.0), n_vehicles=100, n_replications=2)
        with pytest.raises(ValueError, match="replication 0: no platoon-size"):
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
        with pytest.raises(ValueError, match="warmup"):
            self._config(warmup_vehicles=-1)
        with pytest.raises(ValueError, match="exceed warmup"):
            self._config(n_vehicles=100, warmup_vehicles=100)
        with pytest.raises(ValueError, match="supported range is rate \\* threshold <= 50"):
            self._config(policy=PlatoonPolicy(threshold=2500.0001))

    def test_rejects_bad_pmf_cutoff_before_sampling(self):
        with pytest.raises(ValueError, match="^pmf_cutoff must be"):
            run_replications(self._config(n_vehicles=10**12), pmf_cutoff=0)


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
        arrival = ArrivalModel(rate=0.02)
        n = 3 * C + 7
        chunks = [gaps.copy() for gaps in _gap_chunks(SEED, 3, n, arrival.rate)]
        assert [c.size for c in chunks] == [C, C, C, 7]
        assert np.array_equal(np.concatenate(chunks), sample_interarrivals(SEED, n, arrival, replication=3))

    @pytest.mark.parametrize("n", [2, C - 1, C, C + 1, 3 * C + 7])
    def test_matches_reference_at_chunk_boundaries(self, n):
        config = self._config(n_vehicles=n)
        summary, _ = run_replications(config)
        assert summary_mismatches(summary, pooled_reference(config)[0]) == []

    def test_platoon_spanning_several_chunks(self):
        # rate * threshold = 12: the mean platoon holds e^12 ~ 163k vehicles.
        config = self._config(policy=PlatoonPolicy(threshold=600.0), n_vehicles=1_000_000)
        run = run_simulation(config.arrival, config.policy, config.n_vehicles, config.seed)
        assert int(run.platoon_sizes[:-1].max()) > 2 * C
        summary, _ = run_replications(config)
        assert summary_mismatches(summary, summarize(run)) == []

    def test_warmup_longer_than_a_chunk(self):
        config = self._config(n_vehicles=3 * C + 7, warmup_vehicles=C + 100, n_replications=2)
        summary, _ = run_replications(config)
        assert summary.time_shift.count == 2 * (2 * C - 93)
        assert summary_mismatches(summary, pooled_reference(config)[0]) == []

    def test_several_replications(self):
        config = self._config(n_vehicles=C + 1, n_replications=4, warmup_vehicles=3)
        summary, per_rep = run_replications(config)
        reference, reference_per_rep = pooled_reference(config)
        assert summary_mismatches(summary, reference) == []
        assert len(per_rep) == len(reference_per_rep) == 4
        for got, want in zip(per_rep, reference_per_rep):
            assert summary_mismatches(got, want) == []

    @settings(max_examples=60, deadline=None)
    @given(
        chunk=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=2, max_value=80),
        x=st.integers(min_value=0, max_value=40).map(lambda k: k / 10.0),
        reps=st.integers(min_value=1, max_value=3),
        warmup_share=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_tiny_chunks_match_reference(self, chunk, n, x, reps, warmup_share, seed):
        # Chunks of a few vehicles put a boundary inside almost every platoon.
        config = self._config(
            policy=PlatoonPolicy(threshold=x / 0.02),
            n_vehicles=n,
            n_replications=reps,
            warmup_vehicles=int(warmup_share * n),
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
            summary, per_rep = run_replications(config)
        assert summary_mismatches(summary, reference[0]) == []
        for got, want in zip(per_rep, reference[1], strict=True):
            assert summary_mismatches(got, want) == []

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
