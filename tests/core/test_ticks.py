"""Unit tests for tick ranges and range algebra."""

import pytest

from repro.core.ticks import (
    TICKS_PER_SECOND,
    TickRange,
    merge_ranges,
    subtract_ranges,
    tick_of_time,
)


class TestTickRange:
    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            TickRange(5, 5)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            TickRange(6, 5)

    def test_len_and_contains(self):
        rng = TickRange(3, 7)
        assert len(rng) == 4
        assert 3 in rng
        assert 6 in rng
        assert 7 not in rng
        assert 2 not in rng

    def test_iteration_yields_every_tick(self):
        assert list(TickRange(2, 5)) == [2, 3, 4]

    def test_single(self):
        rng = TickRange.single(9)
        assert list(rng) == [9]

    def test_inclusive(self):
        rng = TickRange.inclusive(3, 5)
        assert list(rng) == [3, 4, 5]

    def test_overlaps(self):
        assert TickRange(0, 5).overlaps(TickRange(4, 10))
        assert not TickRange(0, 5).overlaps(TickRange(5, 10))
        assert TickRange(3, 4).overlaps(TickRange(0, 10))

    def test_touches_includes_adjacency(self):
        assert TickRange(0, 5).touches(TickRange(5, 10))
        assert not TickRange(0, 5).touches(TickRange(6, 10))

    def test_union_of_touching(self):
        assert TickRange(0, 5).union(TickRange(5, 10)) == TickRange(0, 10)

    def test_union_of_disjoint_raises(self):
        with pytest.raises(ValueError):
            TickRange(0, 5).union(TickRange(6, 10))

    def test_subtract_middle_splits(self):
        assert TickRange(0, 10).subtract(TickRange(3, 6)) == [
            TickRange(0, 3),
            TickRange(6, 10),
        ]

    def test_subtract_prefix(self):
        assert TickRange(0, 10).subtract(TickRange(0, 4)) == [TickRange(4, 10)]

    def test_subtract_cover_leaves_nothing(self):
        assert TickRange(3, 6).subtract(TickRange(0, 10)) == []

    def test_subtract_disjoint_keeps_all(self):
        assert TickRange(0, 3).subtract(TickRange(5, 8)) == [TickRange(0, 3)]

    def test_split_chops_evenly(self):
        pieces = TickRange(0, 10).split(4)
        assert pieces == [TickRange(0, 4), TickRange(4, 8), TickRange(8, 10)]

    def test_split_no_op_when_small(self):
        assert TickRange(0, 3).split(10) == [TickRange(0, 3)]

    def test_split_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TickRange(0, 3).split(0)

    def test_ordering_is_positional(self):
        assert sorted([TickRange(5, 6), TickRange(0, 2)]) == [
            TickRange(0, 2),
            TickRange(5, 6),
        ]


class TestRangeAlgebra:
    def test_merge_coalesces_adjacent(self):
        assert merge_ranges([TickRange(0, 3), TickRange(3, 6)]) == [TickRange(0, 6)]

    def test_merge_coalesces_overlapping(self):
        assert merge_ranges([TickRange(0, 4), TickRange(2, 6)]) == [TickRange(0, 6)]

    def test_merge_keeps_disjoint(self):
        out = merge_ranges([TickRange(5, 6), TickRange(0, 2)])
        assert out == [TickRange(0, 2), TickRange(5, 6)]

    def test_merge_empty(self):
        assert merge_ranges([]) == []

    def test_subtract_ranges(self):
        base = [TickRange(0, 10), TickRange(20, 30)]
        removals = [TickRange(5, 25)]
        assert subtract_ranges(base, removals) == [TickRange(0, 5), TickRange(25, 30)]

    def test_subtract_ranges_no_removals(self):
        assert subtract_ranges([TickRange(1, 2)], []) == [TickRange(1, 2)]


class TestTimeConversion:
    def test_round_trip(self):
        assert tick_of_time(1.5) == 1500

    def test_granularity(self):
        assert TICKS_PER_SECOND == 1000
        assert tick_of_time(0.0004) == 0
        assert tick_of_time(0.001) == 1
