"""Binary wire protocol: framing edge cases, differential codec,
serialize-once cache, and exactly-once under aggressive batching."""

import asyncio
import json
import math

import pytest

from repro.aio import wire
from repro.aio.transport import TcpTransport
from repro.aio.wire import (
    FRAME_BATCH,
    FrameDecoder,
    FrameError,
    OversizedFrame,
    SerializeCache,
    decode_batch_body,
    decode_wire_message,
    encode_batch_frame,
    encode_wire_message,
)
from repro.broker.state import Envelope, LinkStatusMessage
from repro.client import DeliveryChecker
from repro.core.config import LivenessParams
from repro.core.messages import (
    AckExpectedMessage,
    AckMessage,
    DataTick,
    KnowledgeMessage,
    NackMessage,
)
from repro.core.ticks import TickRange

FAST = LivenessParams(gct=0.05, nrt_min=0.1, aet=1.0, dct=math.inf,
                      silence_interval=0.1, link_status_interval=0.1,
                      nrt_max=2.0)


def wire_message_corpus():
    """Every wire-message shape the brokers exchange."""
    return [
        Envelope(
            KnowledgeMessage(
                pubend="P0",
                fin_prefix=7,
                f_ranges=(TickRange(9, 12), TickRange(20, 25)),
                data=(DataTick(13, {"seq": 1}), DataTick(16, {"seq": 2})),
            )
        ),
        Envelope(
            KnowledgeMessage(pubend="P1", fin_prefix=3, retransmit=True),
            target_cell="C2",
        ),
        Envelope(KnowledgeMessage(pubend="P0"), sideways=True),
        Envelope(AckMessage("P0", 42), target_cell="C0", sideways=True),
        Envelope(NackMessage("P0", (TickRange(1, 5), TickRange(8, 9)))),
        Envelope(AckExpectedMessage("P1", 64)),
        LinkStatusMessage("b1", frozenset({"C0", "C2"})),
    ]


async def eventually(predicate, timeout: float = 5.0, interval: float = 0.02):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


class TestFrameDecoder:
    def test_torn_length_prefix_across_segments(self):
        """TCP may split a frame anywhere — including inside the 13-byte
        header.  Feeding one byte at a time must still decode every
        frame, in order, with nothing left over."""
        messages = wire_message_corpus()
        stream = b"".join(
            encode_batch_frame([encode_wire_message(m)]) for m in messages
        )
        decoder = FrameDecoder()
        decoded = []
        for i in range(len(stream)):
            decoder.feed(stream[i : i + 1])
            for frame_type, body in decoder.frames():
                assert frame_type == FRAME_BATCH
                for payload in decode_batch_body(body):
                    decoded.append(decode_wire_message(payload))
        assert decoder.pending() == 0
        assert decoded == messages

    def test_torn_at_every_split_point(self):
        """One frame split at every possible boundary decodes whole."""
        frame = encode_batch_frame(
            [encode_wire_message(m) for m in wire_message_corpus()]
        )
        for split in range(1, len(frame)):
            decoder = FrameDecoder()
            decoder.feed(frame[:split])
            assert list(decoder.frames()) == [] or split == len(frame)
            decoder.feed(frame[split:])
            frames = list(decoder.frames())
            assert len(frames) == 1
            assert len(decode_batch_body(frames[0][1])) == len(
                wire_message_corpus()
            )

    def test_oversized_frame_rejected_from_header_alone(self):
        """A hostile header announcing a huge body raises before any
        body bytes arrive — no unbounded buffering.  The header must be
        internally valid (correct header CRC) to even reach the length
        check, so pack it with the real helper."""
        decoder = FrameDecoder(max_frame_bytes=1024)
        header = wire.pack_header(1 << 20, FRAME_BATCH)
        decoder.feed(header)
        with pytest.raises(OversizedFrame):
            list(decoder.frames())

    def test_corrupt_length_prefix_rejected_immediately(self):
        """A flipped bit in the length prefix *below* the oversize cap
        used to make the decoder buffer forever waiting for a garbage
        frame that never completes.  The header CRC self-check rejects
        it as soon as the header is complete."""
        frame = bytearray(encode_batch_frame([b"hello"]))
        frame[2] ^= 0x01  # length now claims a few hundred extra bytes
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(wire.CorruptFrame):
            list(decoder.frames())

    def test_corrupt_body_rejected_by_crc(self):
        """A bit flipped anywhere in the body fails the body CRC — a
        corrupt payload is never surfaced as a decoded frame."""
        good = encode_batch_frame([encode_wire_message(m) for m in wire_message_corpus()])
        for pos in range(wire.HEADER_SIZE, len(good)):
            frame = bytearray(good)
            frame[pos] ^= 0x10
            decoder = FrameDecoder()
            decoder.feed(bytes(frame))
            with pytest.raises(wire.CorruptFrame):
                list(decoder.frames())

    def test_corrupt_header_crc_field_rejected(self):
        frame = bytearray(encode_batch_frame([b"hello"]))
        frame[wire.HEADER_SIZE - 1] ^= 0x80  # damage the header CRC itself
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(wire.CorruptFrame):
            list(decoder.frames())

    def test_build_frame_rejects_oversized_body(self):
        with pytest.raises(OversizedFrame):
            wire.build_frame(FRAME_BATCH, b"x" * (wire.MAX_FRAME_BYTES + 1))

    def test_torn_batch_body_rejected(self):
        frame = encode_batch_frame([b"hello"])
        __, body = wire.decode_one_frame(frame)
        with pytest.raises(FrameError):
            decode_batch_body(body[:-2])  # truncated payload
        with pytest.raises(FrameError):
            decode_batch_body(body + b"\x00\x00")  # torn trailing length


class TestDifferentialCodec:
    def test_round_trip_matches_legacy_json_codec(self):
        """The binary codec and the old JSON-lines codec must agree on
        the full corpus: same decoded object, and the binary body is the
        same dict schema the JSON codec used."""
        for message in wire_message_corpus():
            legacy_line = json.dumps(message.to_wire()).encode("utf-8")
            via_legacy = decode_wire_message(legacy_line)  # old-format path
            via_binary = decode_wire_message(encode_wire_message(message))
            assert via_legacy == via_binary == message
            assert json.loads(encode_wire_message(message)) == json.loads(
                legacy_line
            )

    def test_single_message_frame_round_trip(self):
        for message in wire_message_corpus():
            frame = encode_batch_frame([encode_wire_message(message)])
            frame_type, body = wire.decode_one_frame(frame)
            assert frame_type == FRAME_BATCH
            (payload,) = decode_batch_body(body)
            assert decode_wire_message(payload) == message

    def test_unknown_wire_kind_raises(self):
        payload = json.dumps({"kind": "mystery"}).encode()
        with pytest.raises(ValueError, match="mystery"):
            decode_wire_message(payload)
        __, body = wire.decode_one_frame(encode_batch_frame([payload]))
        with pytest.raises(ValueError, match="mystery"):
            decode_wire_message(decode_batch_body(body)[0])

    def test_batch_frame_carries_many_messages_in_order(self):
        messages = wire_message_corpus() * 3
        frame = encode_batch_frame([encode_wire_message(m) for m in messages])
        frame_type, body = wire.decode_one_frame(frame)
        assert frame_type == FRAME_BATCH
        decoded = [decode_wire_message(p) for p in decode_batch_body(body)]
        assert decoded == messages


class TestSerializeCache:
    def test_same_object_hits_equal_object_misses(self):
        cache = SerializeCache()
        message = Envelope(AckMessage("P0", 1))
        twin = Envelope(AckMessage("P0", 1))
        first = cache.encode(message)
        assert cache.encode(message) is first  # identity hit
        assert cache.hits == 1
        cache.encode(twin)  # equal but distinct object: no false sharing
        assert cache.misses == 2
        assert cache.encode(twin) == first

    def test_lru_bounded_and_pins_entries(self):
        cache = SerializeCache(capacity=4)
        messages = [Envelope(AckMessage("P0", i)) for i in range(10)]
        for message in messages:
            cache.encode(message)
        assert len(cache) == 4
        # The newest four are retained and hit; the oldest were evicted.
        assert cache.encode(messages[-1]) and cache.hits == 1
        cache.encode(messages[0])
        assert cache.misses == 11

    def test_fanout_serializes_once_per_message(self):
        """N destinations share one encoding — the transport counter
        records N-1 cache hits per fanned-out message."""

        async def scenario():
            transport = TcpTransport()
            received = []
            await transport.attach("hub", lambda s, m: None)
            for peer in ("x", "y", "z"):
                await transport.attach(
                    peer, lambda s, m: received.append(m)
                )
            message = Envelope(AckMessage("P0", 5))
            for peer in ("x", "y", "z"):
                transport.send("hub", peer, message)
            ok = await eventually(lambda: len(received) == 3)
            hits = transport.serialize_cache_hits
            await transport.close()
            return ok, hits, received

        ok, hits, received = asyncio.run(scenario())
        assert ok
        assert hits == 2  # encoded once, shared twice
        assert all(m.payload.up_to == 5 for m in received)


class TestBatchingTransport:
    def test_coalesces_queued_messages_into_one_frame(self):
        """N sends from one callback leave as exactly one batch frame
        when the turn ends, and no send arms a timer."""

        async def scenario():
            transport = TcpTransport()
            received = []
            await transport.attach("a", lambda s, m: None)
            await transport.attach("b", lambda s, m: received.append(m))
            transport.send("a", "b", Envelope(AckMessage("P0", 0)))
            assert await eventually(lambda: len(received) == 1)
            loop = asyncio.get_running_loop()
            timers = []
            call_later = loop.call_later

            def counting_call_later(*args, **kwargs):
                timers.append(args)
                return call_later(*args, **kwargs)

            loop.call_later = counting_call_later
            frames_before = transport.frames_sent
            for i in range(1, 21):
                transport.send("a", "b", Envelope(AckMessage("P0", i)))
            armed = len(timers)
            del loop.call_later
            assert await eventually(lambda: len(received) == 21)
            data_frames = transport.frames_sent - frames_before
            await transport.close()
            return received, data_frames, armed

        received, data_frames, armed = asyncio.run(scenario())
        assert [m.payload.up_to for m in received] == list(range(21))
        assert data_frames == 1
        assert armed == 0

    def test_byte_cap_splits_an_oversized_cork_window(self, monkeypatch):
        """More than ``MAX_BATCH_BYTES`` queued in one loop turn leaves as
        several batch frames, each within the cap, and still arrives
        whole and in order."""
        from repro.aio import transport as transport_module

        frame_sizes = []

        def recording_encode(payloads):
            frame = encode_batch_frame(payloads)
            frame_sizes.append(len(frame))
            return frame

        monkeypatch.setattr(
            transport_module, "encode_batch_frame", recording_encode
        )
        cap = TcpTransport.MAX_BATCH_BYTES
        body = "x" * 16000
        count = 3 * cap // len(body)

        async def scenario():
            transport = TcpTransport()
            received = []
            await transport.attach("a", lambda s, m: None)
            await transport.attach("b", lambda s, m: received.append(m))
            # Prime the connection so the burst below is flushed together.
            transport.send("a", "b", Envelope(AckMessage("P0", 0)))
            assert await eventually(lambda: len(received) == 1)
            received.clear()
            frame_sizes.clear()
            for i in range(count):
                transport.send(
                    "a",
                    "b",
                    Envelope(
                        KnowledgeMessage(
                            pubend="P0", data=(DataTick(i, {"pad": body}),)
                        )
                    ),
                )
            assert await eventually(lambda: len(received) == count)
            await transport.close()
            return received

        received = asyncio.run(scenario())
        assert [m.payload.data[0].tick for m in received] == list(range(count))
        assert len(frame_sizes) >= 2
        assert max(frame_sizes) <= cap + wire.HEADER_SIZE

    def test_drain_flushes_cork_window(self):
        """``drain`` waits until the sends queued this turn are written."""

        async def scenario():
            transport = TcpTransport()
            received = []
            await transport.attach("a", lambda s, m: None)
            await transport.attach("b", lambda s, m: received.append(m))
            transport.send("a", "b", Envelope(AckMessage("P0", 1)))
            assert await eventually(lambda: transport.link_usable("a", "b"))
            transport.send("a", "b", Envelope(AckMessage("P0", 2)))
            drained = await transport.drain(timeout=2.0)
            depth = sum(len(c.outbox) for c in transport._conns.values())
            await transport.close()
            return drained, depth

        drained, depth = asyncio.run(scenario())
        assert drained
        assert depth == 0

    def test_inflight_batch_resent_after_peer_restart(self):
        """A payload is popped only once its frame's write was accepted,
        and nothing is written while the peer is detached, so a batch
        queued across the peer's restart is sent whole from the outbox
        head after reconnect — nothing is lost."""

        async def scenario():
            transport = TcpTransport(
                heartbeat_interval=0.05,
                reconnect_base=0.02,
                reconnect_max=0.2,
            )
            received = []
            await transport.attach("a", lambda s, m: None)
            await transport.attach("b", lambda s, m: received.append(m))
            transport.send("a", "b", Envelope(AckMessage("P0", 0)))
            assert await eventually(lambda: len(received) == 1)
            await transport.detach("b")
            # Queued while the peer is down (and possibly mid-teardown):
            # these form the in-flight/queued batch that must survive.
            for i in range(1, 11):
                transport.send("a", "b", Envelope(AckMessage("P0", i)))
            await asyncio.sleep(0.2)
            await transport.attach("b", lambda s, m: received.append(m))
            ok = await eventually(
                lambda: {m.payload.up_to for m in received} >= set(range(11))
            )
            await transport.close()
            return ok, received

        ok, received = asyncio.run(scenario())
        assert ok, "queued batch lost across peer restart"
        # Nothing written is written again: each message arrived once, in
        # order.
        assert [m.payload.up_to for m in received] == list(range(11))


class TestExactlyOnceUnderBatching:
    def test_broker_outage_with_aggressive_batching(self):
        """A mid-chain broker dies and restarts under live traffic while
        every turn's sends leave as one batch frame: the delivery oracle
        must still report exactly-once — batching is invisible to the
        protocol."""
        from repro.aio.chaos import chain_topology
        from repro.aio.runtime import AioSystem

        async def scenario():
            transport = TcpTransport(
                seed=3,
                heartbeat_interval=0.05,
                reconnect_base=0.02,
                reconnect_max=0.2,
            )
            system = AioSystem(
                chain_topology(), params=FAST, transport=transport
            )
            await system.start()
            client = system.subscribe("sub", "b2", ("P0", "P1"))
            publishers = [
                system.publisher(p, rate=150.0) for p in ("P0", "P1")
            ]
            for publisher in publishers:
                publisher.start()
            await asyncio.sleep(0.3)
            await system.crash_broker("b1")  # partial batches die with it
            await asyncio.sleep(0.25)
            await system.restart_broker("b1")
            await asyncio.sleep(0.45)
            for publisher in publishers:
                await publisher.stop()
            published = sum(len(p.published) for p in publishers)
            await eventually(
                lambda: len(client.received) >= published, timeout=8.0
            )
            report = DeliveryChecker(publishers).check(
                client, system.subscriptions["sub"]
            )
            failures = [
                f"{bid}: {b.failure!r}"
                for bid, b in system.brokers.items()
                if b.failure is not None
            ]
            await system.shutdown()
            return report, published, failures

        report, published, failures = asyncio.run(scenario())
        assert failures == []
        assert published > 30, "run carried too little traffic to mean anything"
        assert report.exactly_once, (
            f"missing={len(report.missing)} unexpected={len(report.unexpected)}"
        )


class TestPiggybackFlush:
    def test_dirty_ostreams_tracks_pending_flushes(self):
        from repro.aio.runtime import AioSystem
        from repro.topology import two_broker_topology

        async def scenario():
            topo = two_broker_topology()
            topo.pubend("P0", "phb")
            topo.route("P0", "PHB", "SHB")
            import dataclasses

            system = AioSystem(
                topo, params=dataclasses.replace(FAST, flush_delay=0.5)
            )
            await system.start()
            client = system.subscribe("sub", "shb", ("P0",))
            broker = system.brokers["phb"]
            broker.publish("P0", {"seq": 0})
            dirty = broker.engine.dirty_ostreams
            flushed = broker.engine.flush_dirty_ostreams()
            dirty_after = broker.engine.dirty_ostreams
            # The eager flush sends immediately: delivery must not wait
            # out the 0.5s flush timer.
            delivered = await eventually(
                lambda: len(client.received) == 1, timeout=0.4
            )
            await system.shutdown()
            return dirty, flushed, dirty_after, delivered

        dirty, flushed, dirty_after, delivered = asyncio.run(scenario())
        assert dirty == 1
        assert flushed == 1
        assert dirty_after == 0
        assert delivered, "eager flush did not deliver ahead of the timer"

    @staticmethod
    def data_frames_of_two_publications(monkeypatch, between):
        """Publish on P0, then on P1 0.1 s later, with a 0.5 s engine
        flush window and no silence traffic; ``between(broker)`` runs
        after the second publication.  Returns, per batch frame that
        carried either publication's data, the pubends it carried."""
        import dataclasses

        from repro.aio import transport as transport_module
        from repro.aio.runtime import AioSystem
        from repro.topology import two_broker_topology

        frames = []

        def recording_encode(payloads):
            frames.append([decode_wire_message(p) for p in payloads])
            return encode_batch_frame(payloads)

        monkeypatch.setattr(transport_module, "encode_batch_frame", recording_encode)

        async def scenario():
            topo = two_broker_topology()
            for pubend in ("P0", "P1"):
                topo.pubend(pubend, "phb")
                topo.route(pubend, "PHB", "SHB")
            params = dataclasses.replace(FAST, flush_delay=0.5, silence_interval=60.0)
            transport = TcpTransport()
            system = AioSystem(topo, params=params, transport=transport)
            await system.start()
            client = system.subscribe("sub", "shb", ("P0", "P1"))
            broker = system.brokers["phb"]
            # A first-time message sent before the link is up is lost:
            # wait for the handshake the first link-status send starts.
            assert await eventually(
                lambda: ("phb", "shb") in transport._conns
                and transport._conns["phb", "shb"].up
            )
            ticks = {"P0": broker.publish("P0", {"seq": 0})}
            await asyncio.sleep(0.1)
            ticks["P1"] = broker.publish("P1", {"seq": 1})
            between(broker)
            delivered = await eventually(lambda: len(client.received) == 2)
            await system.shutdown()
            return ticks, delivered

        ticks, delivered = asyncio.run(scenario())
        assert delivered
        data_frames = [
            {
                m.payload.pubend
                for m in frame
                if isinstance(getattr(m, "payload", None), KnowledgeMessage)
                and any(d.tick == ticks[m.payload.pubend] for d in m.payload.data)
            }
            for frame in frames
        ]
        return [pubends for pubends in data_frames if pubends]

    def test_pending_delta_rides_the_data_frame_over_tcp(self, monkeypatch):
        """When P0's flush timer sends data, P1's pending delta towards
        the same broker is flushed ahead of the transport's end-of-turn
        flush, so both leave in one frame."""
        frames = self.data_frames_of_two_publications(monkeypatch, lambda b: None)
        assert frames == [{"P0", "P1"}]

    def test_pending_delta_rides_a_data_frame_queued_behind_another_send(
        self, monkeypatch
    ):
        """A non-data send to the same peer earlier in the turn has
        already scheduled the transport's flush; the delta still rides
        the data frame, because the piggyback check is queued at that
        first send."""

        def link_status_then_data(broker):
            engine = broker.engine
            engine._send_link_status()
            engine._flush_ostream("P0", next(iter(engine.ostreams["P0"])))

        frames = self.data_frames_of_two_publications(
            monkeypatch, link_status_then_data
        )
        assert frames == [{"P0", "P1"}]
