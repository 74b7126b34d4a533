"""Unit tests for filter and merge edge operations."""

import pytest

from repro.core.edges import FilterEdge, MergeView, MATCH_ALL
from repro.core.lattice import K
from repro.core.messages import DataTick, KnowledgeMessage
from repro.core.streams import KnowledgeStream
from repro.core.ticks import TickRange


def msg(pubend="P", fin=0, f=(), data=()):
    return KnowledgeMessage(
        pubend=pubend,
        fin_prefix=fin,
        f_ranges=tuple(TickRange(a, b) for a, b in f),
        data=tuple(DataTick(t, p) for t, p in data),
    )


class TestFilterEdge:
    def test_match_all_passes_unchanged(self):
        edge = FilterEdge(MATCH_ALL)
        original = msg(data=[(5, {"v": 1})], f=[(0, 5)])
        assert edge.apply(original) is original

    def test_nonmatching_data_becomes_final(self):
        edge = FilterEdge(lambda p: p["v"] > 10)
        out = edge.apply(msg(data=[(5, {"v": 1})], f=[(2, 5)]))
        assert out.is_silence
        assert out.f_ranges == (TickRange(2, 6),)  # 5 folded in

    def test_partial_filtering(self):
        edge = FilterEdge(lambda p: p["v"] > 10)
        out = edge.apply(msg(data=[(5, {"v": 1}), (7, {"v": 99})]))
        assert out.data_ticks == [7]
        assert TickRange(5, 6) in out.f_ranges

    def test_silence_passes_untouched(self):
        edge = FilterEdge(lambda p: False)
        original = msg(fin=4, f=[(6, 9)])
        assert edge.apply(original) is original

    def test_fin_prefix_preserved(self):
        edge = FilterEdge(lambda p: False)
        out = edge.apply(msg(fin=3, data=[(5, {"v": 0})]))
        assert out.fin_prefix == 3

    def test_matches_delegates_to_predicate(self):
        edge = FilterEdge(lambda p: p == "yes")
        assert edge.matches("yes")
        assert not edge.matches("no")


def make_stream(spec):
    """spec: list of ('d', tick, payload) or ('f', lo, hi)."""
    s = KnowledgeStream()
    for entry in spec:
        if entry[0] == "d":
            s.accumulate_data(entry[1], entry[2])
        else:
            s.accumulate_final(TickRange(entry[1], entry[2]))
    return s


class TestMergeView:
    def test_requires_inputs(self):
        with pytest.raises(ValueError):
            MergeView([])

    def test_data_wins(self):
        a = make_stream([("d", 4, "a4")])
        b = make_stream([("f", 0, 10)])
        view = MergeView([a, b])
        assert view.value_at(4) == K.D

    def test_final_requires_all_inputs_final(self):
        a = make_stream([("f", 0, 10)])
        b = make_stream([("f", 0, 5)])
        view = MergeView([a, b])
        assert view.value_at(3) == K.F
        assert view.value_at(7) == K.Q

    def test_doubt_horizon_is_min_blocking(self):
        # a: D at 4 (slot 0), F elsewhere up to 10; b: F up to 3 only.
        a = make_stream([("f", 0, 4), ("d", 4, "a"), ("f", 5, 10)])
        b = make_stream([("f", 0, 3)])
        view = MergeView([a, b])
        # ticks 0..2: both final -> F; tick 3: b is Q -> horizon 3.
        assert view.doubt_horizon() == 3
        b.accumulate_final(TickRange(3, 10))
        assert view.doubt_horizon() == 10

    def test_d_ticks_below_interleaves_deterministically(self):
        a = make_stream([("d", 2, "a2"), ("d", 8, "a8"), ("f", 0, 2), ("f", 3, 8), ("f", 9, 10)])
        b = make_stream([("d", 5, "b5"), ("f", 0, 5), ("f", 6, 10)])
        view = MergeView([a, b])
        pairs = view.d_ticks_below(10)
        assert pairs == [(2, "a2"), (5, "b5"), (8, "a8")]

    def test_d_ticks_below_respects_lo(self):
        a = make_stream([("d", 2, "a2"), ("d", 8, "a8"), ("f", 0, 2), ("f", 3, 8)])
        view = MergeView([a])
        assert view.d_ticks_below(10, lo=3) == [(8, "a8")]

    def test_same_view_same_order_for_all_subscribers(self):
        """Determinism: two views over the same inputs agree (total order)."""
        a = make_stream([("d", 3, "x"), ("d", 11, "y"), ("f", 0, 3), ("f", 4, 11), ("f", 12, 20)])
        b = make_stream([("d", 7, "z"), ("f", 0, 7), ("f", 8, 20)])
        v1 = MergeView([a, b])
        v2 = MergeView([a, b])
        assert v1.d_ticks_below(20) == v2.d_ticks_below(20)
