"""Unit tests for metric series, reducers, and recorders."""

import pytest

from repro.metrics.recorder import (
    LatencyRecorder,
    NackRecorder,
    Series,
    median,
    percentile,
)


class TestReducers:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_median_single(self):
        assert median([7]) == 7

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_percentiles(self):
        values = list(range(101))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 100
        assert percentile(values, 99) == 99

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([1], -0.5)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_single_sample_any_pct(self):
        for pct in (0, 37.5, 50, 100):
            assert percentile([42.0], pct) == 42.0

    def test_percentile_extremes_are_min_and_max(self):
        values = [9.0, -3.0, 4.0]
        assert percentile(values, 0) == -3.0
        assert percentile(values, 100) == 9.0

    def test_percentile_linear_interpolation(self):
        # rank = pct/100 * (n-1); 25% of [0, 10] interpolates, it does
        # not snap to the nearest rank.
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)


class TestSeries:
    def test_basic_stats(self):
        s = Series("x")
        for i in range(1, 6):
            s.add(float(i), float(i))
        assert s.median() == 3
        assert s.mean() == 3
        assert s.max() == 5
        assert len(s) == 5

    def test_between(self):
        s = Series("x")
        for i in range(10):
            s.add(float(i), float(i))
        window = s.between(3.0, 6.0)
        assert window.values() == [3.0, 4.0, 5.0]

    def test_cumulative(self):
        s = Series("x")
        s.add(2.0, 10.0)
        s.add(1.0, 5.0)
        assert s.cumulative() == [(1.0, 5.0), (2.0, 15.0)]


class TestLatencyRecorder:
    def test_records_per_subscriber(self):
        rec = LatencyRecorder()
        rec.record("alice", send_time=1.0, recv_time=1.2)
        rec.record("bob", send_time=1.0, recv_time=1.5)
        assert rec.series("alice").values() == [pytest.approx(0.2)]
        assert rec.subscribers() == ["alice", "bob"]
        assert rec.delivered == 2

    def test_merged_sorted_by_send_time(self):
        rec = LatencyRecorder()
        rec.record("a", 2.0, 2.1)
        rec.record("b", 1.0, 1.1)
        merged = rec.merged()
        assert [s.t for s in merged.samples] == [1.0, 2.0]

class TestNackRecorder:
    def test_count_and_range(self):
        rec = NackRecorder()
        rec.record("s1", 1.0, 100)
        rec.record("s1", 2.0, 50)
        rec.record("b2", 2.5, 75)
        assert rec.count("s1") == 2
        assert rec.total_range("s1") == 150
        assert rec.total_range("b2") == 75
        assert rec.nodes() == ["b2", "s1"]

    def test_unknown_node_is_zero(self):
        rec = NackRecorder()
        assert rec.count("zz") == 0
        assert rec.total_range("zz") == 0.0
