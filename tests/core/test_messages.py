"""Unit tests for protocol messages and the wire codec."""

import pytest

from repro.core.messages import (
    AckExpectedMessage,
    AckMessage,
    DataTick,
    KnowledgeMessage,
    NackMessage,
    decode_message,
)
from repro.core.ticks import TickRange


class TestKnowledgeMessage:
    def test_data_message_shape(self):
        msg = KnowledgeMessage(
            pubend="P",
            fin_prefix=10,
            f_ranges=(TickRange(12, 15),),
            data=(DataTick(15, "m"),),
        )
        assert not msg.is_silence
        assert msg.data_ticks == [15]
        assert msg.max_tick() == 16

    def test_silence_message(self):
        msg = KnowledgeMessage(pubend="P", fin_prefix=10, f_ranges=(TickRange(12, 20),))
        assert msg.is_silence
        assert msg.max_tick() == 20

    def test_rejects_unsorted_data(self):
        with pytest.raises(ValueError):
            KnowledgeMessage(
                pubend="P", data=(DataTick(5, "a"), DataTick(3, "b"))
            )

    def test_rejects_data_inside_final_prefix(self):
        with pytest.raises(ValueError):
            KnowledgeMessage(pubend="P", fin_prefix=10, data=(DataTick(5, "a"),))

    def test_merged_f_ranges_includes_prefix(self):
        msg = KnowledgeMessage(
            pubend="P", fin_prefix=5, f_ranges=(TickRange(5, 8), TickRange(10, 12))
        )
        assert msg.merged_f_ranges() == [TickRange(0, 8), TickRange(10, 12)]

    def test_merged_f_ranges_no_prefix(self):
        msg = KnowledgeMessage(pubend="P", f_ranges=(TickRange(3, 5),))
        assert msg.merged_f_ranges() == [TickRange(3, 5)]

class TestNackMessage:
    def test_requires_ranges(self):
        with pytest.raises(ValueError):
            NackMessage(pubend="P", ranges=())

    def test_tick_count_is_nack_range_metric(self):
        nack = NackMessage(pubend="P", ranges=(TickRange(0, 100), TickRange(200, 250)))
        assert nack.tick_count() == 150


class TestCodec:
    def round_trip(self, message):
        wire = message.to_wire()
        decoded = decode_message(wire)
        assert decoded == message
        return wire

    def test_knowledge_round_trip(self):
        msg = KnowledgeMessage(
            pubend="P1",
            fin_prefix=100,
            f_ranges=(TickRange(110, 120),),
            data=(DataTick(125, {"a": {"x": 1}}),),
            retransmit=True,
        )
        wire = self.round_trip(msg)
        assert wire["kind"] == "knowledge"

    def test_ack_round_trip(self):
        self.round_trip(AckMessage(pubend="P1", up_to=500))

    def test_nack_round_trip(self):
        self.round_trip(NackMessage(pubend="P1", ranges=(TickRange(5, 9),)))

    def test_ack_expected_round_trip(self):
        self.round_trip(AckExpectedMessage(pubend="P1", up_to=900))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            decode_message({"kind": "bogus"})

    def test_wire_is_json_compatible(self):
        import json

        msg = KnowledgeMessage(
            pubend="P1", fin_prefix=1, data=(DataTick(2, {"k": "v"}),)
        )
        encoded = json.dumps(msg.to_wire())
        assert decode_message(json.loads(encoded)) == msg
