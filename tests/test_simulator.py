import math
import re
import sys
import tracemalloc
from dataclasses import replace

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
from platoonctl.domain import MAX_UNIT_GAP, student_t_975
from platoonctl.simulator import (
    _RECORD_WIDTH,
    CHUNK_VEHICLES,
    _add_cycles,
    _estimates,
    _gap_chunks,
    _pooled_stats,
    _replication_stats,
    _summary,
)

from conftest import TOO_FEW, pooled_reference, reference_summary, run_samples, summary_mismatches

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

    def test_mean_shift_is_the_ratio_over_closed_platoons(self):
        # Worked by hand: the closed platoons {1,2,3} and {4,5,6} have shifts
        # (0, 3, 4) and (0, 2, 4), so S = (7, 6) and m = (3, 3); the censored
        # leader 7 counts in no statistic. The ratio is 13/6, and the
        # residuals S - (13/6)·m = (0.5, -0.5) have sd 1/sqrt(2), so the
        # half-width is t(0.975, 1)·(1/sqrt(2))/(sqrt(2)·3) = t·0.5/3.
        run = run_from_interarrivals([5.0, 3.0, 1.0, 8.0, 2.0, 2.0, 9.0], PlatoonPolicy(threshold=4.0))
        shift = summarize(run).time_shift
        assert shift.count == 2
        assert shift.mean == pytest.approx(13 / 6, rel=1e-15)
        assert shift.ci_half_width == pytest.approx(12.706204736174694 * 0.5 / 3, rel=1e-12)  # 2.1177

    def test_constant_sample_has_zero_half_width(self):
        run = run_from_interarrivals([10.0, 20.0, 30.0, 40.0], PlatoonPolicy(threshold=5.0))
        summary = summarize(run)
        assert summary.platoon_size.ci_half_width == 0.0  # sizes all 1
        assert summary.time_shift.mean == 0.0
        assert summary.time_shift.ci_half_width == 0.0

    @pytest.mark.parametrize("gaps", [[5.0, 3.0, 2.0], [5.0, 3.0, 9.0]], ids=["no closed platoon", "one"])
    def test_fewer_than_two_closed_platoons_is_an_error(self, gaps):
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=4.0))
        with pytest.raises(ValueError, match=f"^{re.escape(TOO_FEW)}$"):
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
        # is numpy's mean and std(ddof=1) on the same cycles. At x = 0.1
        # most platoons are singletons; at x = 3 many exceed the PMF cutoff.
        gaps = sample_interarrivals(SEED, 5_000, ArrivalModel(rate=0.02))
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=x / 0.02))
        assert summary_mismatches(summarize(run), reference_summary(*run_samples(run))) == []

    def test_leaves_the_run_unmodified(self):
        gaps = sample_interarrivals(SEED, 5000, ArrivalModel(rate=0.02))
        run = run_from_interarrivals(gaps, PlatoonPolicy(threshold=50.0))
        before = {name: getattr(run, name).copy() for name in run.__dataclass_fields__}
        summarize(run)
        for name, array in before.items():
            assert np.array_equal(getattr(run, name), array), name


class TestMoments:
    """The closed-platoon record: one float64 row of sums about a center,
    which merges with a record about the same center by addition."""

    @staticmethod
    def _cycles(k, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.geometric(0.3, size=k).astype(np.int64)
        return sizes, rng.exponential(30.0, size=k), sizes * rng.exponential(5.0, size=k)

    @staticmethod
    def _of(sizes, headways, sums, center):
        record = np.zeros(_RECORD_WIDTH)
        _add_cycles(record, (sizes - 1.0, headways - center[0], sums - center[1] * sizes), np.minimum(sizes, 11))
        return record

    def _summary_of(self, sizes, headways, sums):
        # About the first cycle's headway and shift per vehicle, as summarize.
        center = np.array([headways[0], sums[0] / sizes[0]])
        return _summary(self._of(sizes, headways, sums, center), center)

    def test_record_of_cycles(self):
        sizes, headways, sums = cycles = self._cycles(10_001, SEED)
        before = [array.copy() for array in cycles]
        record = self._of(sizes, headways, sums, np.zeros(2))
        for array, copy in zip(cycles, before):
            assert np.array_equal(array, copy)
        # The count, Σ(m - 1), Σ(m - 1)² and the histogram are exact integers.
        excess = sizes - 1
        assert record[:3].tolist() == [10_001, int(excess.sum()), int(np.dot(excess, excess))]
        assert record[8:].tolist() == np.bincount(np.minimum(sizes, 11), minlength=12).tolist()
        # About the center (0, 0): Σh, Σh², ΣS, ΣS², ΣmS.
        want = [headways.sum(), np.dot(headways, headways), sums.sum(), np.dot(sums, sums), np.dot(sizes, sums)]
        assert record[3:8].tolist() == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("split", [0, 1, 4_000, 9_999, 10_000])
    def test_merge_equals_the_record_of_the_whole(self, split):
        sizes, headways, sums = self._cycles(10_000, SEED + 1)
        center = np.array([headways[0], sums[0] / sizes[0]])
        whole = self._of(sizes, headways, sums, center)
        merged = self._of(sizes[:split], headways[:split], sums[:split], center) + self._of(
            sizes[split:], headways[split:], sums[split:], center
        )
        assert np.array_equal(merged[:3], whole[:3])
        assert np.array_equal(merged[8:], whole[8:])
        assert merged[3:8].tolist() == pytest.approx(whole[3:8].tolist(), rel=1e-13)
        assert summary_mismatches(_summary(merged, center), reference_summary(sizes, headways, sums)) == []

    def test_shift_sums_proportional_to_sizes_give_a_zero_width(self):
        # Every residual S - ratio·m is 0. From the record's sums their sum
        # of squares comes to exactly 0 about the first cycle, where the
        # kernel centers, and about (0, 0) at 7.7 s per vehicle. About (0, 0)
        # at 3.3 s it rounds to -3.6e-12, which must not reach the square root.
        sizes = np.arange(1, 17, dtype=np.int64)
        for per_vehicle in (7.7, 3.3):
            for center in (np.array([1.0, per_vehicle]), np.zeros(2)):
                record = self._of(sizes, np.ones(16), per_vehicle * sizes, center)
                shift = _summary(record, center).time_shift
                assert shift.mean == pytest.approx(per_vehicle, rel=1e-15)
                assert shift.ci_half_width == 0.0

    def test_one_sample_is_too_few(self):
        # One cycle has no variance estimate, so no confidence interval: the
        # estimator and the reference refuse it alike, not with half-width 0.
        one = (np.array([3]), np.array([12.0]), np.array([7.0]))
        with pytest.raises(ValueError, match=f"^{re.escape(TOO_FEW)}$"):
            self._summary_of(*one)
        with pytest.raises(ValueError, match=f"^{re.escape(TOO_FEW)}$"):
            reference_summary(*one)
        two = self._summary_of(np.array([3, 3]), np.array([12.0, 13.0]), np.array([7.0, 6.0]))
        assert (two.platoon_size.count, two.leader_headway.count, two.time_shift.count) == (2, 2, 2)

    def test_close_cycles_keep_their_spread(self):
        # Two platoons whose headways, and shifts per vehicle, are 0.1% apart.
        # From raw sums of h, h², S, S² and mS their half-widths miss the
        # reference's by 1e-10; about the first cycle the sums keep them.
        cycles = (np.array([2, 3]), np.array([100.0, 100.1]), np.array([2 * 30.0, 3 * 30.03]))
        assert summary_mismatches(self._summary_of(*cycles), reference_summary(*cycles)) == []

    def test_half_widths_hold_where_almost_every_platoon_is_a_singleton(self):
        # At x = 1e-5 a platoon has two vehicles with probability 1e-5, so of
        # 10^6 cycles about ten are not singletons. Sizes enter the record as
        # m - 1, whose sums are small exact integers, and the size
        # half-width comes out within 2.2e-16 of the reference's. From sums
        # of m itself, Σm² - (Σm)²/count cancels about 11 digits: the
        # half-width then misses by 2e-13 to 4e-12, depending on the seed.
        x = 1e-5
        rng = np.random.default_rng(SEED)
        sizes = rng.geometric(math.exp(-x), size=1_000_000).astype(np.int64)
        assert 0 < np.count_nonzero(sizes > 1) < 100
        headways = rng.exponential(1.0, size=sizes.size) + x * (sizes - 1)
        sums = (sizes - 1) * rng.uniform(0.0, x, size=sizes.size)
        summary = self._summary_of(sizes, headways, sums)
        reference = reference_summary(sizes, headways, sums)
        assert summary_mismatches(summary, reference) == []
        assert math.isclose(summary.platoon_size.ci_half_width, reference.platoon_size.ci_half_width, rel_tol=1e-14)


def test_student_t_quantile_matches_scipy():
    dfs = sorted({*range(1, 200), *np.unique(np.geomspace(200, 10**6, 400).astype(int)).tolist()})
    worst = max(abs(student_t_975(df) / scipy_stats.t.ppf(0.975, df) - 1.0) for df in dfs)
    assert worst < 1e-7


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
        # Replication streams derive from (seed, index) alone, so, about the
        # centers replication 0 sets, computing the per-replication records
        # in reverse and adding them by index must reproduce the library
        # aggregate bit for bit.
        config = self._config()
        aggregate = run_replications(config)
        centers = np.full((2, 1), np.nan)
        _replication_stats(config, 0, [config.policy.threshold], centers)
        records = {
            rep: _replication_stats(config, rep, [config.policy.threshold], centers)[0]
            for rep in reversed(range(config.n_replications))
        }
        merged = records[0]
        for rep in range(1, config.n_replications):
            merged = merged + records[rep]
        assert _summary(merged, centers[:, 0]) == aggregate
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
        with pytest.raises(ValueError, match=f"^{re.escape(TOO_FEW)}$"):
            run_replications(config)

    def test_pool_with_closed_platoons_is_summarized(self):
        # At x = 8 the mean platoon holds e^8 ~ 3,000 vehicles: of three
        # replications of 2,000 vehicles, the last closes no platoon on its
        # own, and the pool still holds the other two's closed platoons.
        config = self._config(
            arrival=ArrivalModel(rate=1.0), policy=PlatoonPolicy(threshold=8.0), n_vehicles=2000, n_replications=3,
            seed=1,
        )
        centers = np.full((2, 1), np.nan)
        assert [_replication_stats(config, rep, [8.0], centers)[0, 0] for rep in range(3)] == [1, 1, 0]
        summary = run_replications(config)
        assert (summary.platoon_size.count, summary.leader_headway.count, summary.time_shift.count) == (2, 2, 2)
        assert summary_mismatches(summary, pooled_reference(config)) == []

    def test_one_closed_platoon_fails_naming_the_statistic(self):
        # At x = 8 the 3,000 vehicles of seed 1 close a single platoon.
        config = self._config(
            arrival=ArrivalModel(rate=1.0), policy=PlatoonPolicy(threshold=8.0), n_vehicles=3000, n_replications=1,
            seed=1,
        )
        assert _replication_stats(config, 0, [8.0], np.full((2, 1), np.nan))[0, 0] == 1
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
        # The bound 4 * reps * (n * H)^2 < float max, with the horizon
        # H = n * 53 ln 2 / rate, at 1% either side of its limit rate. At
        # x = 3 the platoons' shift sums are not 0, and on the accepted side
        # every estimate, their residuals' too, is finite.
        n, reps = 20_000, 4
        limit = 2 * n * n * MAX_UNIT_GAP * math.sqrt(reps / sys.float_info.max)
        with pytest.raises(ValueError, match=r"^arrival\.rate = \S+ is too small for n_vehicles = 20000 "):
            self._config(arrival=ArrivalModel(rate=0.99 * limit), policy=PlatoonPolicy(threshold=3.0 / limit))
        rate = 1.01 * limit
        config = self._config(arrival=ArrivalModel(rate=rate), policy=PlatoonPolicy(threshold=3.0 / rate))
        aggregate = run_replications(config)
        for name in ("platoon_size", "leader_headway", "time_shift"):
            estimate = getattr(aggregate, name)
            assert math.isfinite(estimate.mean) and math.isfinite(estimate.ci_half_width)
            assert estimate.ci_half_width > 0.0

    @pytest.mark.parametrize("dimension", ["n", "replications", "both"])
    def test_horizon_check_takes_any_size_in_float_range(self, dimension):
        # The same bound at rate 0.02, at 1% either side of its limit size in
        # n_vehicles (one replication), in n_replications (two vehicles) and
        # in both at once: sizes far beyond any run, checked in float
        # arithmetic without an OverflowError.
        most, rate = sys.float_info.max, 0.02
        limit = {
            "n": (most / 4) ** 0.25 * math.sqrt(rate / MAX_UNIT_GAP),
            "replications": most / (4 * (4 * MAX_UNIT_GAP / rate) ** 2),
            "both": (most * rate * rate / (4 * MAX_UNIT_GAP**2)) ** 0.2,
        }[dimension]

        def sizes(scale):
            size = int(scale * limit)
            return {"n": (size, 1), "replications": (2, size), "both": (size, size)}[dimension]

        n, reps = sizes(0.99)
        self._config(n_vehicles=n, n_replications=reps)
        n, reps = sizes(1.01)
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
        # from SeedSequence((seed, replication)). The chunks are ln(1 - v),
        # the gaps in units of 1/rate, negated; sample_interarrivals maps
        # them to -ln(1 - v) / rate seconds, bit for bit.
        arrival = ArrivalModel(rate=0.02)
        n = 3 * C + 7
        # Chunks share one buffer, so each is copied before the next is drawn.
        chunks = [chunk.copy() for chunk in _gap_chunks(SEED, 3, n)]
        assert [c.size for c in chunks] == [C, C, C, 7]
        v = np.random.default_rng(np.random.SeedSequence((SEED, 3))).random(n)
        assert np.array_equal(np.concatenate(chunks), np.log(1.0 - v))
        one_shot = -np.log(1.0 - v) / arrival.rate
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

    @pytest.mark.parametrize("rate, threshold, pooled", [(0.02, 50.0, 8), (0.05, 60.0, 60)], ids=["x=1", "x=3"])
    @pytest.mark.parametrize("n", [2, C - 1, C, C + 1, 3 * C + 7])
    def test_matches_reference_at_chunk_boundaries(self, n, rate, threshold, pooled):
        # The two configs of the oracle_large benchmark. Two vehicles close
        # at most one platoon, too few samples for a confidence interval, so
        # n = 2 pools several replications (three closed platoons of eight
        # at x = 1 and this seed).
        config = self._config(
            arrival=ArrivalModel(rate=rate),
            policy=PlatoonPolicy(threshold=threshold),
            n_vehicles=n,
            n_replications=pooled if n == 2 else 1,
        )
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
        config = self._config(n_vehicles=196_615, n_replications=2)
        summary = run_replications(config)
        # One sample per closed platoon on every statistic: e^-1 of the
        # vehicles lead, less each replication's censored last platoon.
        counts = (summary.platoon_size.count, summary.leader_headway.count, summary.time_shift.count)
        assert counts == (145_164,) * 3
        assert summary_mismatches(summary, pooled_reference(config)) == []

    def test_several_replications(self):
        config = self._config(n_vehicles=65_537, n_replications=4)
        summary = run_replications(config)
        counts = (summary.platoon_size.count, summary.leader_headway.count, summary.time_shift.count)
        assert counts == (96_701,) * 3
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

    @pytest.mark.parametrize("n", [65_537, 196_615])
    def test_grid_equals_the_per_point_path(self, n):
        # Every threshold of a grid folds the same draws, so each grid row is
        # the record a config of that threshold alone gives, about the same
        # center, bit for bit, and its six columns are that config's means
        # and half-widths (equal reprs). x runs from 0 to 12, where this
        # seed's pool still closes two platoons, and 100 s appears twice.
        config = self._config(n_vehicles=n, n_replications=3)
        grid = [0.0, 25.0, 50.0, 100.0, 100.0, 200.0, 400.0, 600.0]
        records, centers = _pooled_stats(config, grid)
        columns = _estimates(records, centers)
        assert records.shape == (len(grid), _RECORD_WIDTH) and columns.shape == (6, len(grid))
        for point, threshold in enumerate(grid):
            config_alone = replace(config, policy=PlatoonPolicy(threshold=threshold))
            record, center = _pooled_stats(config_alone, [threshold])
            assert np.array_equal(records[point], record[0]), threshold
            assert np.array_equal(centers[:, point], center[:, 0]), threshold
            alone = run_replications(config_alone)
            want = [
                getattr(getattr(alone, name), part)
                for name in ("platoon_size", "leader_headway", "time_shift")
                for part in ("mean", "ci_half_width")
            ]
            assert [repr(value) for value in columns[:, point].tolist()] == [repr(value) for value in want], threshold

    def test_two_close_headways_keep_their_spread(self):
        # These 5 vehicles close two platoons at x = 0.5, with headways of
        # 77.06 s and 76.46 s. Raw sums of h and h² would lose 5 of their
        # variance's 16 digits (7e-12 in the half-width); sums about the
        # first platoon's headway keep it.
        config = self._config(policy=PlatoonPolicy(threshold=25.0), n_vehicles=5, seed=1_021_324_869)
        assert summary_mismatches(run_replications(config), pooled_reference(config)) == []

    def test_singletons_have_a_shift_of_exactly_zero(self):
        # At threshold 0 every platoon is a singleton. Its shift sum is its
        # leader's arrival less 1 times that arrival, exactly 0.0, so the
        # mean shift and its half-width are 0.0, not a rounding residue.
        config = self._config(policy=PlatoonPolicy(threshold=0.0), n_vehicles=3 * C + 7, n_replications=2)
        summary = run_replications(config)
        assert summary.size_pmf[1] == 1.0
        assert (summary.time_shift.mean, summary.time_shift.ci_half_width) == (0.0, 0.0)

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

    @pytest.mark.parametrize("rate, threshold", [(0.02, 50.0), (0.05, 60.0)], ids=["x=1", "x=3"])
    def test_working_set_is_a_few_chunk_buffers(self, rate, threshold):
        # A replication keeps about 49 bytes per vehicle of a chunk: its
        # gaps, arrival times and leader mask, and per platoon its vehicles,
        # leader time, headway and shift sum; then the leaders' indices.
        # At 32,768 vehicles a chunk that is about 1.7 MiB. A small run
        # first makes the first draw's imports, so the traced peak is the
        # kernel's own.
        config = self._config(
            arrival=ArrivalModel(rate=rate), policy=PlatoonPolicy(threshold=threshold), n_vehicles=500_000, n_replications=2
        )
        run_replications(replace(config, n_vehicles=1_000))
        tracemalloc.start()
        try:
            run_replications(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

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


@pytest.mark.parametrize("statistic", ["platoon_size", "leader_headway", "time_shift"])
def test_confidence_intervals_have_their_nominal_coverage(coverage_misses, statistic):
    # Every seed of the range counts. The miss share must lie in the
    # two-sided 99.9% binomial band around 5%.
    low, high = scipy_stats.binom.interval(0.999, COVERAGE_RUNS, 0.05)
    misses = {x: coverage_misses[statistic, x] for x in COVERAGE_XS}
    assert all(low <= count <= high for count in misses.values()), (
        f"{statistic}: CIs missing the closed form per x {misses} of {COVERAGE_RUNS}, band [{low:g}, {high:g}]"
    )
