"""Unit and property tests for knowledge and curiosity streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lattice import C, K
from repro.core.streams import CuriosityStream, KnowledgeStream, Stream
from repro.core.ticks import TickRange


class TestKnowledgeStream:
    def test_starts_all_q(self):
        s = KnowledgeStream()
        assert s.value_at(0) == K.Q
        assert s.doubt_horizon() == 0
        assert s.horizon() == 0
        assert s.final_prefix() == 0

    def test_accumulate_data(self):
        s = KnowledgeStream()
        assert s.accumulate_data(5, "m5")
        assert s.value_at(5) == K.D
        assert s.payload_at(5) == "m5"
        assert s.horizon() == 6

    def test_duplicate_data_is_noop(self):
        s = KnowledgeStream()
        assert s.accumulate_data(5, "m5")
        assert not s.accumulate_data(5, "m5")
        assert s.value_at(5) == K.D

    def test_data_on_final_tick_is_dropped(self):
        """D + F = D*, lowered to F — the data is not needed."""
        s = KnowledgeStream()
        s.accumulate_final(TickRange(0, 10))
        assert not s.accumulate_data(5, "late")
        assert s.value_at(5) == K.F
        assert not s.has_payload(5)

    def test_final_over_data_drops_payload(self):
        s = KnowledgeStream()
        s.accumulate_data(5, "m5")
        s.accumulate_final(TickRange(0, 10))
        assert s.value_at(5) == K.F
        assert not s.has_payload(5)

    def test_doubt_horizon_stops_at_gap(self):
        s = KnowledgeStream()
        s.accumulate_final(TickRange(0, 5))
        s.accumulate_data(5, "a")
        s.accumulate_data(9, "b")  # gap 6..8
        assert s.doubt_horizon() == 6
        s.accumulate_final(TickRange(6, 9))
        assert s.doubt_horizon() == 10

    def test_gaps_reports_q_below_horizon(self):
        s = KnowledgeStream()
        s.accumulate_data(2, "a")
        s.accumulate_data(8, "b")
        assert s.gaps() == [TickRange(0, 2), TickRange(3, 8)]

    def test_no_gaps_when_contiguous(self):
        s = KnowledgeStream()
        s.accumulate_final(TickRange(0, 5))
        s.accumulate_data(5, "a")
        assert s.gaps() == []

    def test_d_ticks_in_range(self):
        s = KnowledgeStream()
        s.accumulate_data(3, "a")
        s.accumulate_data(7, "b")
        assert s.d_ticks(TickRange(0, 10)) == [(3, "a"), (7, "b")]
        assert s.d_ticks(TickRange(4, 10)) == [(7, "b")]

    def test_forget_drops_to_q(self):
        s = KnowledgeStream()
        s.accumulate_data(3, "a")
        s.accumulate_final(TickRange(0, 3))
        s.forget(TickRange(0, 10))
        assert s.value_at(3) == K.Q
        assert not s.has_payload(3)

    def test_forget_all(self):
        s = KnowledgeStream()
        s.accumulate_data(3, "a")
        s.forget_all()
        assert s.horizon() == 0
        assert s.d_tick_count() == 0

    def test_final_prefix_grows(self):
        s = KnowledgeStream()
        s.accumulate_final(TickRange(0, 4))
        assert s.final_prefix() == 4
        s.accumulate_data(4, "a")
        assert s.final_prefix() == 4
        s.accumulate_final(TickRange(0, 5))
        assert s.final_prefix() == 5

    def test_silence_conflicts_with_data(self):
        from repro.core.lattice import KnowledgeConflictError

        s = KnowledgeStream()
        s.accumulate_data(5, "a")
        with pytest.raises(KnowledgeConflictError):
            s.accumulate_silence(TickRange(0, 10))

    def test_silence_on_q_becomes_final(self):
        s = KnowledgeStream()
        s.accumulate_silence(TickRange(0, 5))
        assert s.value_at(2) == K.F  # operational lowering S -> F

    def test_invariants_hold(self):
        s = KnowledgeStream()
        s.accumulate_data(3, "a")
        s.accumulate_final(TickRange(0, 3))
        s.check_invariants()


class TestCuriosityStream:
    def test_default_neutral(self):
        c = CuriosityStream(KnowledgeStream())
        assert c.value_at(7) == C.N
        assert c.ack_prefix() == 0

    def test_set_curious_returns_fresh(self):
        c = CuriosityStream(KnowledgeStream())
        fresh = c.set_curious(TickRange(0, 10))
        assert fresh == [TickRange(0, 10)]
        again = c.set_curious(TickRange(5, 15))
        assert again == [TickRange(10, 15)]

    def test_ack_is_absorbing(self):
        c = CuriosityStream(KnowledgeStream())
        c.set_ack(TickRange(0, 10))
        assert c.set_curious(TickRange(0, 10)) == []
        assert c.value_at(5) == C.A

    def test_ack_prefix(self):
        c = CuriosityStream(KnowledgeStream())
        c.set_ack(TickRange(0, 5))
        assert c.ack_prefix() == 5
        c.set_ack(TickRange(7, 9))
        assert c.ack_prefix() == 5  # gap at 5..6

    def test_set_ack_reports_change(self):
        c = CuriosityStream(KnowledgeStream())
        assert c.set_ack(TickRange(0, 5))
        assert not c.set_ack(TickRange(0, 5))

    def test_clear_curious(self):
        c = CuriosityStream(KnowledgeStream())
        c.set_curious(TickRange(0, 10))
        c.clear_curious(TickRange(3, 6))
        assert c.value_at(2) == C.C
        assert c.value_at(4) == C.N
        assert c.curious_ranges(TickRange(0, 10)) == [
            TickRange(0, 3),
            TickRange(6, 10),
        ]

    def test_forget_curiosity_lowers_c_to_n(self):
        c = CuriosityStream(KnowledgeStream())
        c.set_curious(TickRange(0, 5))
        c.set_ack(TickRange(5, 8))
        c.forget_curiosity()
        assert c.value_at(2) == C.N
        assert c.value_at(6) == C.A  # acks survive forgetting

    def test_unacked_ranges(self):
        c = CuriosityStream(KnowledgeStream())
        c.set_ack(TickRange(0, 3))
        assert c.unacked_ranges(TickRange(0, 6)) == [TickRange(3, 6)]


class TestStreamLinkage:
    """The F <-> A linkage the paper requires."""

    def test_final_knowledge_forces_anticurious(self):
        s = Stream()
        s.accumulate_final(TickRange(0, 10))
        assert s.curiosity.value_at(5) == C.A

    def test_ack_finalizes_knowledge(self):
        s = Stream()
        s.knowledge.accumulate_data(5, "m")
        s.set_ack(TickRange(0, 10))
        assert s.knowledge.value_at(5) == K.F
        assert not s.knowledge.has_payload(5)

    def test_data_for_acked_tick_is_finalized(self):
        s = Stream()
        s.set_ack(TickRange(0, 10))
        assert not s.accumulate_data(5, "late")
        assert s.knowledge.value_at(5) == K.F

    def test_set_curious_skips_final_prefix(self):
        s = Stream()
        s.accumulate_final(TickRange(0, 5))
        fresh = s.set_curious(TickRange(0, 10))
        assert fresh == [TickRange(5, 10)]
        # The covered part was auto-acked instead.
        assert s.curiosity.value_at(2) == C.A

    def test_set_curious_entirely_final_yields_nothing(self):
        s = Stream()
        s.accumulate_final(TickRange(0, 10))
        assert s.set_curious(TickRange(0, 10)) == []

    def test_forget_all_resets_everything(self):
        s = Stream()
        s.accumulate_data(3, "m")
        s.set_curious(TickRange(5, 8))
        s.forget_all()
        assert s.knowledge.horizon() == 0
        assert s.curiosity.value_at(6) == C.N

    def test_knowledge_lowered_under_an_ack_can_be_requested_again(self):
        """A is read off finality, so forgetting an acked range un-acks
        it: the ticks are nackable again (self-stabilisation needs this)."""
        s = Stream()
        s.accumulate_final(TickRange(0, 10))
        s.knowledge.forget(TickRange(3, 6))
        assert s.curiosity.value_at(4) == C.N
        assert s.curiosity.ack_prefix() == s.knowledge.final_prefix() == 3
        assert s.set_curious(TickRange(0, 10)) == [TickRange(3, 6)]
        s.check_invariants()

    def test_failure_free_window_stores_no_curiosity(self):
        """Silence gaps between unacked D ticks cost nothing on the
        curiosity side: only C is stored, and nothing is curious."""
        s = Stream()
        for i in range(200):
            s.accumulate_final(TickRange(4 * i, 4 * i + 3))
            s.accumulate_data(4 * i + 3, f"m{i}")
        assert s.knowledge.run_count() == 400
        assert s.curiosity.run_count() == 0
        assert s.curiosity.curious_ranges() == []


@st.composite
def stream_ops(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["data", "final", "forget", "ack"]),
                st.integers(0, 40),
                st.integers(1, 8),
            ),
            max_size=25,
        )
    )


class TestStreamProperties:
    @given(stream_ops())
    @settings(max_examples=150)
    def test_invariants_under_arbitrary_ops(self, ops):
        s = Stream()
        for kind, start, length in ops:
            rng = TickRange(start, start + length)
            if kind == "data":
                s.accumulate_data(start, f"m{start}")
            elif kind == "final":
                s.accumulate_final(rng)
            elif kind == "forget":
                s.knowledge.forget(rng)
            else:
                s.set_ack(rng)
            s.check_invariants()
        # Linkage, both ways: a tick is anti-curious iff its knowledge is
        # final (so acked ticks never hold payloads).
        for t in range(0, 50):
            assert (s.curiosity.value_at(t) == C.A) == (
                s.knowledge.value_at(t) == K.F
            )

    @given(stream_ops())
    @settings(max_examples=100)
    def test_doubt_horizon_definition(self, ops):
        """t_D is the first Q tick: everything below is D or F."""
        s = Stream()
        for kind, start, length in ops:
            rng = TickRange(start, start + length)
            if kind == "data":
                s.accumulate_data(start, "m")
            elif kind == "final":
                s.accumulate_final(rng)
            elif kind == "forget":
                s.knowledge.forget(rng)
            else:
                s.set_ack(rng)
        horizon = s.knowledge.doubt_horizon()
        for t in range(0, min(horizon, 60)):
            assert s.knowledge.value_at(t) in (K.D, K.F)
        assert (
            horizon >= s.knowledge.horizon()
            or s.knowledge.value_at(horizon) == K.Q
        )
