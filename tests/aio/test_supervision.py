"""Connection supervision, timer tracking, and inbox flow control."""

import asyncio
import json
import math

from repro.aio.runtime import AioSystem
from repro.aio.transport import TcpTransport
from repro.broker.state import Envelope
from repro.core.config import LivenessParams
from repro.core.messages import AckMessage
from repro.topology import two_broker_topology

FAST = LivenessParams(gct=0.05, nrt_min=0.1, aet=1.0, dct=math.inf,
                      silence_interval=0.1, link_status_interval=0.1,
                      nrt_max=2.0)


def gd_topology():
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo


def ack(tick: int) -> Envelope:
    return Envelope(AckMessage("P0", tick))


async def eventually(predicate, timeout: float = 5.0, interval: float = 0.02):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


class TestTcpSupervision:
    def test_reconnects_after_peer_restart_on_new_port(self):
        """A message sent while the peer is down is held in the bounded
        outbox and delivered once the peer listens again — on a *new*
        ephemeral port, which the supervisor re-resolves."""

        async def scenario():
            transport = TcpTransport(
                heartbeat_interval=0.05, reconnect_base=0.02, reconnect_max=0.2
            )
            received = []
            await transport.attach("a", lambda s, m: None)
            await transport.attach(
                "b", lambda s, m: received.append((s, m))
            )
            transport.send("a", "b", ack(1))
            assert await eventually(lambda: len(received) == 1)

            old_port = transport.addresses["b"][1]
            await transport.detach("b")
            transport.send("a", "b", ack(2))  # queued while b is down
            await asyncio.sleep(0.2)
            assert await eventually(lambda: not transport.link_usable("a", "b"))

            await transport.attach(
                "b", lambda s, m: received.append((s, m))
            )
            new_port = transport.addresses["b"][1]
            ok = await eventually(lambda: len(received) == 2)
            reconnects = transport.reconnects
            await transport.close()
            return ok, received, old_port, new_port, reconnects

        ok, received, old_port, new_port, reconnects = asyncio.run(scenario())
        assert ok, "queued frame never arrived after restart"
        assert [m.payload.up_to for __, m in received] == [1, 2]
        assert old_port != new_port
        assert reconnects >= 1

    def test_send_in_the_turn_of_a_detach_waits_for_reattach(self):
        """The peer detaches before its connection's EOF is read: a flush
        in that turn must not write into the dying socket, so the payload
        stays queued and arrives once the peer is back."""

        async def scenario():
            transport = TcpTransport(
                heartbeat_interval=0.05, reconnect_base=0.02, reconnect_max=0.2
            )
            received = []
            await transport.attach("a", lambda s, m: None)
            await transport.attach("b", lambda s, m: received.append(m))
            transport.send("a", "b", ack(1))
            assert await eventually(lambda: len(received) == 1)
            await transport.detach("b")
            transport.send("a", "b", ack(2))
            await asyncio.sleep(0)  # the scheduled flush runs
            queued = len(transport._conns[("a", "b")].outbox)
            await transport.attach("b", lambda s, m: received.append(m))
            ok = await eventually(lambda: len(received) == 2)
            await transport.close()
            return queued, ok, received

        queued, ok, received = asyncio.run(scenario())
        assert queued == 1
        assert ok, "payload queued across the detach never arrived"
        assert [m.payload.up_to for m in received] == [1, 2]

    def test_flush_above_high_water_waits_for_drain(self):
        """A flush that finds the write buffer above its high-water mark
        writes nothing; the supervisor's drain() returns once the socket
        resumes, and the held payloads then leave in order."""

        async def scenario():
            transport = TcpTransport()
            received = []
            await transport.attach("a", lambda s, m: None)
            await transport.attach("b", lambda s, m: received.append(m))
            transport.send("a", "b", ack(0))
            assert await eventually(lambda: len(received) == 1)
            conn = transport._conns[("a", "b")]
            socket_transport = conn.writer.transport
            protocol = socket_transport.get_protocol()
            # A full socket, as asyncio reports one: the buffer reads
            # above high water and the stream's drain() blocks.
            socket_transport.get_write_buffer_size = lambda: 1 << 30
            protocol.pause_writing()
            frames_before = transport.frames_sent
            for i in range(1, 6):
                transport.send("a", "b", ack(i))
            await asyncio.sleep(0.05)
            held = (len(conn.outbox), transport.frames_sent - frames_before)
            del socket_transport.get_write_buffer_size
            protocol.resume_writing()
            ok = await eventually(lambda: len(received) == 6)
            await transport.close()
            return held, ok, received

        held, ok, received = asyncio.run(scenario())
        assert held == (5, 0)
        assert ok, "held payloads never left after the drain"
        assert [m.payload.up_to for m in received] == list(range(6))

    def test_heartbeat_detects_half_open_peer(self):
        """A peer that accepts the connection but never acks heartbeats
        (half-open: writes still 'succeed') is detected and the link is
        reported unusable."""

        async def scenario():
            transport = TcpTransport(heartbeat_interval=0.05)
            await transport.attach("a", lambda s, m: None)

            handlers = set()

            async def mute(reader, writer):
                handlers.add(writer)
                try:
                    while await reader.readline():
                        pass  # swallow everything, never reply
                finally:
                    handlers.discard(writer)

            server = await asyncio.start_server(mute, host="127.0.0.1", port=0)
            transport.addresses["mute"] = server.sockets[0].getsockname()[:2]

            transport.send("a", "mute", ack(1))
            assert await eventually(lambda: transport.link_usable("a", "mute"))
            detected = await eventually(
                lambda: transport.heartbeat_failures > 0
            )
            down = await eventually(
                lambda: not transport.link_usable("a", "mute")
            )
            # Each handler must see EOF and return before the loop
            # closes; a handler cancelled inside readline() is logged
            # by asyncio as an exception in a callback.
            await transport.close()
            for writer in list(handlers):
                writer.close()
            await eventually(lambda: not handlers)
            server.close()
            await server.wait_closed()
            return detected, down

        detected, down = asyncio.run(scenario())
        assert detected, "heartbeat watchdog never fired"
        assert down, "half-open link still reported usable"

    def test_sever_and_heal_drive_link_usable(self):
        async def scenario():
            transport = TcpTransport(heartbeat_interval=0.05)
            received = []
            await transport.attach("a", lambda s, m: None)
            await transport.attach(
                "b", lambda s, m: received.append(m)
            )
            transport.send("a", "b", ack(1))
            assert await eventually(lambda: len(received) == 1)

            transport.fail_link("a", "b")
            assert not transport.link_usable("a", "b")
            assert not transport.link_usable("b", "a")
            assert transport.send("a", "b", ack(2)) is False
            await asyncio.sleep(0.2)
            assert len(received) == 1  # the wire is cut

            transport.recover_link("a", "b")
            transport.send("a", "b", ack(3))
            healed = await eventually(lambda: len(received) == 2)
            await transport.close()
            return healed, received

        healed, received = asyncio.run(scenario())
        assert healed, "link never recovered after heal"
        assert received[-1].payload.up_to == 3

    def test_outbox_bounded_sheds_oldest_while_down(self):
        async def scenario():
            transport = TcpTransport(reconnect_base=0.5, reconnect_max=0.5)
            transport.OUTBOX_LIMIT = 4
            await transport.attach("a", lambda s, m: None)
            # "b" never listens: frames pile up in the bounded outbox.
            for i in range(10):
                transport.send("a", "b", ack(i))
            conn = transport._conns[("a", "b")]
            depth, shed = len(conn.outbox), transport.shed
            await transport.close()
            return depth, shed

        depth, shed = asyncio.run(scenario())
        assert depth == 4
        assert shed == 6

    def test_unknown_frame_kind_rejected(self):
        from repro.aio.wire import decode_wire_message

        try:
            decode_wire_message(json.dumps({"kind": "mystery"}).encode())
        except ValueError as exc:
            assert "mystery" in str(exc)
        else:
            raise AssertionError("decode_wire_message accepted an unknown kind")


class TestTimerTracking:
    def test_crash_cancels_outstanding_timers(self):
        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            await system.start()
            broker = system.brokers["phb"]
            fired = []
            broker.services.schedule(0.05, lambda: fired.append("engine"))
            handles = set(broker._pending_timers)
            assert handles, "engine start armed no timers"
            broker.crash()
            leaked = [h for h in handles if not h.cancelled()]
            remaining = set(broker._pending_timers)
            await asyncio.sleep(0.15)
            await system.shutdown()
            return leaked, remaining, fired

        leaked, remaining, fired = asyncio.run(scenario())
        assert leaked == []
        assert remaining == set()
        assert fired == []

    def test_shutdown_cancels_outstanding_timers(self):
        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            await system.start()
            broker = system.brokers["shb"]
            fired = []
            broker.services.schedule(0.05, lambda: fired.append("late"))
            handles = set(broker._pending_timers)
            await system.shutdown()
            leaked = [h for h in handles if not h.cancelled()]
            await asyncio.sleep(0.15)
            return leaked, fired

        leaked, fired = asyncio.run(scenario())
        assert leaked == []
        assert fired == []

    def test_tracking_set_prunes_cancelled_handles(self):
        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            await system.start()
            broker = system.brokers["phb"]
            handles = [
                broker.services.schedule(30.0, lambda: None) for __ in range(300)
            ]
            for handle in handles[:290]:
                handle.cancel()
            broker.services.schedule(30.0, lambda: None)  # triggers prune
            size = len(broker._pending_timers)
            await system.shutdown()
            return size

        size = asyncio.run(scenario())
        assert size < 60  # 300+ tracked before the prune

    def test_live_timers_are_not_rebuilt_on_every_schedule(self):
        """2,000 live timers cost O(log n) rebuilds of the tracking set,
        not one per schedule above a threshold (quadratic arming)."""
        n = 2000

        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            await system.start()
            broker = system.brokers["phb"]
            base = len(broker._pending_timers)
            rebuilds, tracked = 0, broker._pending_timers
            handles = []
            for __ in range(n):
                handles.append(broker.services.schedule(30.0, lambda: None))
                rebuilds += broker._pending_timers is not tracked
                tracked = broker._pending_timers
            live = len(broker._pending_timers) - base
            for handle in handles:
                handle.cancel()
            left = len(broker._pending_timers) - base
            await system.shutdown()
            return rebuilds, live, left

        rebuilds, live, left = asyncio.run(scenario())
        assert rebuilds <= math.log2(n), rebuilds
        assert live == n and left == 0

    def test_stale_epoch_callback_is_inert_after_restart(self):
        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            await system.start()
            broker = system.brokers["phb"]
            fired = []
            broker.services.schedule(0.1, lambda: fired.append("stale"))
            broker.crash()
            broker.restart()
            await asyncio.sleep(0.2)
            await system.shutdown()
            return fired

        assert asyncio.run(scenario()) == []


class TestInboxFlowControl:
    def test_shed_policy_counts_overflow(self):
        async def scenario():
            system = AioSystem(
                gd_topology(), params=FAST, inbox_limit=2, slow_consumer="shed"
            )
            await system.start()
            broker = system.brokers["shb"]
            # Synchronous burst: nothing drains between these calls.
            for i in range(7):
                broker.on_receive("phb", ack(i))
            shed = broker.shed_count
            counter = system.obs.instruments.counter(
                "aio_inbox_shed", broker="shb"
            ).value
            broker.crash()  # drop the queue before garbage reaches the engine
            await system.shutdown()
            return shed, counter

        shed, counter = asyncio.run(scenario())
        assert shed == 5
        assert counter == 5

    def test_backpressure_policy_processes_inline_never_drops(self):
        async def scenario():
            system = AioSystem(
                gd_topology(), params=FAST, inbox_limit=1,
                slow_consumer="backpressure",
            )
            await system.start()
            client = system.subscribe("a", "shb", ("P0",))
            publisher = system.publisher("P0", rate=300.0)
            publisher.start()
            await system.run_for(0.4)
            await publisher.stop()
            await system.run_for(0.6)
            delivered = len(client.received)
            published = len(publisher.published)
            shed = system.brokers["shb"].shed_count
            await system.shutdown()
            return published, delivered, shed

        published, delivered, shed = asyncio.run(scenario())
        assert shed == 0
        assert published > 30
        assert delivered == published

    def test_rejects_unknown_policy(self):
        try:
            AioSystem(gd_topology(), params=FAST, slow_consumer="discard")
        except ValueError as exc:
            assert "slow_consumer" in str(exc)
        else:
            raise AssertionError("bad slow_consumer accepted")
