"""Property-based wire-codec round trips: every message survives
encode -> JSON -> decode exactly."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.state import Envelope, LinkStatusMessage
from repro.core.messages import (
    AckExpectedMessage,
    AckMessage,
    DataTick,
    KnowledgeMessage,
    NackMessage,
    decode_message,
)
from repro.core.ticks import TickRange
from repro.matching.events import Event

pubend_ids = st.text(
    alphabet="abcdefgP0123456789_", min_size=1, max_size=12
)

scalars = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=10),
    st.booleans(),
)

events = st.builds(
    Event,
    st.dictionaries(
        st.text(alphabet="abcxyz", min_size=1, max_size=6), scalars, max_size=4
    ),
    body=st.one_of(st.none(), st.text(max_size=20)),
)

payloads = st.one_of(
    scalars,
    events,
    st.dictionaries(st.text(max_size=5), scalars, max_size=3),
)


@st.composite
def tick_ranges(draw, lo=0, hi=10_000):
    start = draw(st.integers(lo, hi - 1))
    stop = draw(st.integers(start + 1, hi))
    return TickRange(start, stop)


@st.composite
def knowledge_messages(draw):
    fin = draw(st.integers(0, 1000))
    n_f = draw(st.integers(0, 4))
    f_ranges = []
    cursor = fin
    for __ in range(n_f):
        start = cursor + draw(st.integers(0, 50))
        stop = start + draw(st.integers(1, 50))
        f_ranges.append(TickRange(start, stop))
        cursor = stop
    n_d = draw(st.integers(0, 3))
    data = []
    tick = max(fin, cursor)
    for __ in range(n_d):
        tick += draw(st.integers(1, 40))
        data.append(DataTick(tick, draw(payloads)))
    return KnowledgeMessage(
        pubend=draw(pubend_ids),
        fin_prefix=fin,
        f_ranges=tuple(f_ranges),
        data=tuple(data),
        retransmit=draw(st.booleans()),
    )


gd_messages = st.one_of(
    knowledge_messages(),
    st.builds(AckMessage, pubend=pubend_ids, up_to=st.integers(0, 10**9)),
    st.builds(
        NackMessage,
        pubend=pubend_ids,
        ranges=st.lists(tick_ranges(), min_size=1, max_size=4).map(tuple),
    ),
    st.builds(
        AckExpectedMessage, pubend=pubend_ids, up_to=st.integers(0, 10**9)
    ),
)


class TestGDMessageCodec:
    @given(gd_messages)
    @settings(max_examples=300)
    def test_round_trip_through_json(self, message):
        wire = json.loads(json.dumps(message.to_wire()))
        assert decode_message(wire) == message


class TestEnvelopeCodec:
    @given(
        gd_messages,
        st.one_of(st.none(), st.text(alphabet="ABCS12", min_size=1, max_size=6)),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_round_trip_through_json(self, message, target_cell, sideways):
        envelope = Envelope(message, target_cell=target_cell, sideways=sideways)
        wire = json.loads(json.dumps(envelope.to_wire()))
        assert Envelope.from_wire(wire) == envelope


class TestLinkStatusCodec:
    @given(
        st.text(alphabet="bps123", min_size=1, max_size=6),
        st.frozensets(st.text(alphabet="SHBI12", min_size=1, max_size=6), max_size=5),
    )
    @settings(max_examples=100)
    def test_round_trip_through_json(self, sender, cells):
        status = LinkStatusMessage(sender, cells)
        wire = json.loads(json.dumps(status.to_wire()))
        assert LinkStatusMessage.from_wire(wire) == status


class TestEventCodec:
    @given(events)
    @settings(max_examples=200)
    def test_round_trip_through_json(self, event):
        wire = json.loads(json.dumps(event.to_wire()))
        assert Event.from_wire(wire) == event
