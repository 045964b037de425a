"""Unit tests for the benchmark's arithmetic.

    python -m pytest perfbench/tests -q
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchmath  # noqa: E402


class TestPercentiles:
    def test_nearest_rank_returns_observed_values(self):
        values = list(range(1, 101))
        assert benchmath.percentile(values, 50) == 50
        assert benchmath.percentile(values, 99) == 99
        assert benchmath.percentile(values, 100) == 100
        assert benchmath.percentile([7.5], 99) == 7.5

    def test_order_of_input_does_not_matter(self):
        assert benchmath.percentile([5, 1, 4, 2, 3], 50) == 3

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            benchmath.percentile([], 50)
        with pytest.raises(ValueError):
            benchmath.percentile([1], 0)
        with pytest.raises(ValueError):
            benchmath.percentile([1], 101)

    def test_median_even_and_odd(self):
        assert benchmath.median([3, 1, 2]) == 2
        assert benchmath.median([4, 1, 3, 2]) == 2.5

    def test_window_percentiles_in_time_order(self):
        stamped = [(2.5 + k / 100, 90 + k) for k in range(20)] \
            + [(0.1 + k / 100, 10 + k) for k in range(20)] \
            + [(1.1 + k / 100, 50) for k in range(20)]
        assert benchmath.window_percentiles(stamped, 50, 1.0) == [19, 50, 99]
        assert benchmath.window_percentiles([], 50, 1.0) == []

    def test_window_percentiles_skip_thin_windows(self):
        # 20 samples leave 10 beyond p50 but only 2 beyond p90.
        stamped = [(0.5, float(k)) for k in range(20)] + [(1.5, float(k)) for k in range(200)]
        assert benchmath.window_percentiles(stamped, 50, 1.0) == [9.0, 99.0]
        assert benchmath.window_percentiles(stamped, 90, 1.0) == [179.0]

    def test_samples_beyond(self):
        assert benchmath.samples_beyond(1000, 99) == 10
        assert benchmath.samples_beyond(999, 99) == 9
        assert benchmath.samples_beyond(100, 50) == 50

    def test_supported_tail_needs_ten_samples_beyond(self):
        assert benchmath.supported_tail(20_000) == 99.9
        assert benchmath.supported_tail(1000) == 99.0
        assert benchmath.supported_tail(999) == 90.0
        assert benchmath.supported_tail(100) == 90.0
        assert benchmath.supported_tail(20) == 50.0
        assert benchmath.supported_tail(19) is None


class TestLateness:
    def test_lateness_in_microseconds(self):
        assert benchmath.lateness_us([1_000, 2_000], [1_000, 5_000]) == [0.0, 3.0]

    def test_early_send_is_an_error(self):
        with pytest.raises(ValueError):
            benchmath.lateness_us([2_000], [1_000])

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            benchmath.lateness_us([1], [1, 2])

    def test_latency_is_timed_from_due_not_from_send(self):
        # Due at 0, sent late at 4 us, answered at 10 us: 10 us, not 6.
        assert benchmath.latencies_from_due_us([0], [10_000]) == [10.0]

    def test_refused_requests_miss_every_limit(self):
        due = [0] * 100
        done = [1_000] * 98 + [None, None]
        latencies = benchmath.latencies_from_due_us(due, done)
        assert benchmath.percentile(latencies, 98) == 1.0
        assert math.isinf(benchmath.percentile(latencies, 99))


class TestBacklogGrowth:
    MS = 1_000_000

    def test_a_daemon_that_keeps_up_has_no_growth(self):
        due = [k * self.MS for k in range(1000)]
        done = [t + self.MS // 4 for t in due]
        assert benchmath.backlog_growth(due, done, 0, 1000 * self.MS) == 0

    def test_an_overloaded_daemon_grows_by_the_shortfall(self):
        # One request due each ms, one answered each 2 ms: the backlog
        # climbs by half a request per ms, ~375 between the quarters.
        due = [k * self.MS for k in range(1000)]
        done = [2 * k * self.MS + 1 for k in range(1000)]
        growth = benchmath.backlog_growth(due, done, 0, 1000 * self.MS)
        assert 350 <= growth <= 400

    def test_unanswered_requests_stay_in_the_backlog(self):
        due = [k * self.MS for k in range(1000)]
        done = [t + 1 if k < 500 else None for k, t in enumerate(due)]
        # From 500 ms on nothing is answered: ~375 outstanding in the last quarter.
        assert 350 <= benchmath.backlog_growth(due, done, 0, 1000 * self.MS) <= 400

    def test_one_pause_in_the_middle_is_not_growth(self):
        due = [k * self.MS for k in range(1000)]
        # A 40 ms stall at 500 ms: everything due in it is answered at its end.
        done = [max(t, 540 * self.MS) if 500 * self.MS <= t < 540 * self.MS else t + 1
                for t in due]
        assert benchmath.backlog_growth(due, done, 0, 1000 * self.MS) == 0

    def test_rejects_an_empty_window(self):
        with pytest.raises(ValueError):
            benchmath.backlog_growth([0], [1], 5, 5)


def self_times(spans):
    """Row-form spans ``(start, end, parent)`` through the column call."""
    starts, ends, parents = zip(*spans)
    return benchmath.self_times_ns(starts, ends, parents)


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([(0, 50, -1)]) == [50]

    def test_nested_children_are_subtracted_once(self):
        assert self_times([(0, 100, -1), (10, 60, 0), (20, 30, 1)]) == [50, 40, 10]

    def test_overlapping_children_count_their_union(self):
        assert self_times([(0, 100, -1), (10, 40, 0), (30, 60, 0)])[0] == 50

    def test_children_are_clipped_to_the_parent(self):
        assert benchmath.covered_length([(-10, 20), (90, 200)], 0, 100) == 30

    def test_disjoint_and_touching_intervals(self):
        assert benchmath.covered_length([(0, 10), (10, 20), (30, 35)], 0, 100) == 25

    def test_siblings_under_different_parents(self):
        spans = [(0, 10, -1), (2, 6, 0), (20, 25, -1), (21, 22, 2)]
        assert self_times(spans) == [6, 4, 4, 1]
