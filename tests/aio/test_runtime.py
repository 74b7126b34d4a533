"""Integration tests for the asyncio runtime (real wall-clock timers)."""

import asyncio
import math

import pytest

from repro.aio.runtime import AioSystem
from repro.aio.transport import LocalTransport, TcpTransport
from repro.client import DeliveryChecker
from repro.core.config import LivenessParams
from repro.topology import two_broker_topology

# Tight liveness settings so wall-clock tests stay fast.
FAST = LivenessParams(gct=0.05, nrt_min=0.1, aet=1.0, dct=math.inf,
                      silence_interval=0.1, link_status_interval=0.1,
                      nrt_max=2.0)


def gd_topology():
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo


def check(system, publisher, client, sub_id):
    class Ground:
        def __init__(self, pub):
            self.pubend = pub.pubend
            self.published = pub.published

    return DeliveryChecker([Ground(publisher)]).check(
        client, system.subscriptions[sub_id]
    )


async def settle(system, publisher, client, sub_id, rounds=16, step=0.5):
    """Poll for exactly-once convergence instead of racing a fixed drain
    window: recovery time depends on where the nack backoff lands (up to
    nrt_max), so any fixed settle is a flake waiting to happen."""
    report = check(system, publisher, client, sub_id)
    for __ in range(rounds):
        if report.exactly_once:
            break
        await system.run_for(step)
        report = check(system, publisher, client, sub_id)
    return report


class TestLocalTransport:
    def test_end_to_end_exactly_once(self):
        async def scenario():
            system = AioSystem(
                gd_topology(), params=FAST, transport=LocalTransport(seed=1)
            )
            await system.start()
            client = system.subscribe("a", "shb", ("P0",))
            publisher = system.publisher("P0", rate=200.0)
            publisher.start()
            await system.run_for(0.5)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            await system.shutdown()
            return report, publisher

        report, publisher = asyncio.run(scenario())
        assert len(publisher.published) > 50
        assert report.exactly_once

    def test_recovers_from_random_drops(self):
        async def scenario():
            transport = LocalTransport(drop_probability=0.15, seed=7)
            system = AioSystem(gd_topology(), params=FAST, transport=transport)
            await system.start()
            client = system.subscribe("a", "shb", ("P0",))
            publisher = system.publisher("P0", rate=200.0)
            publisher.start()
            await system.run_for(0.6)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            await system.shutdown()
            return report, transport

        report, transport = asyncio.run(scenario())
        assert transport.dropped > 0
        assert report.exactly_once

    def test_content_filtering(self):
        async def scenario():
            system = AioSystem(
                gd_topology(), params=FAST, transport=LocalTransport(seed=3)
            )
            await system.start()
            client = system.subscribe("a", "shb", ("P0",), "g = 0")
            publisher = system.publisher(
                "P0", rate=200.0, make_attributes=lambda i: {"g": i % 2}
            )
            publisher.start()
            await system.run_for(0.4)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            await system.shutdown()
            return report, publisher

        report, publisher = asyncio.run(scenario())
        assert report.exactly_once
        assert report.matching_published < len(publisher.published)

    def test_broker_crash_and_recovery(self):
        async def scenario():
            transport = LocalTransport(seed=11)
            system = AioSystem(
                gd_topology(), params=FAST, transport=transport
            )
            await system.start()
            client = system.subscribe("a", "shb", ("P0",))
            publisher = system.publisher("P0", rate=100.0)
            publisher.start()
            await system.run_for(0.3)
            await system.crash_broker("phb")
            await system.run_for(0.3)  # publishes fail while down
            await system.restart_broker("phb")
            await system.run_for(0.5)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            await system.shutdown()
            return report, publisher

        report, publisher = asyncio.run(scenario())
        assert publisher.failed_attempts > 0
        assert report.exactly_once

    def test_a_partial_pathology_override_keeps_the_other_ambient_values(self):
        wire = LocalTransport(
            drop_probability=0.1, jitter=0.002, corrupt_probability=0.05
        )
        ambient = (0.1, 0.002, 0.05)
        wire.set_pathology("phb", "shb", jitter=0.03)
        assert wire.pathology("shb", "phb") == (0.1, 0.03, 0.05)
        wire.set_pathology("phb", "shb", drop_probability=0.5)  # replaces it
        assert wire.pathology("phb", "shb") == (0.5, 0.002, 0.05)
        wire.set_pathology("phb", "shb")  # nothing to set: not a clear
        assert wire.pathology("phb", "shb") == (0.5, 0.002, 0.05)
        wire.set_pathology("phb", "shb", drop_probability=0.0)  # 0 is a value
        assert wire.pathology("phb", "shb") == (0.0, 0.002, 0.05)
        assert wire.pathology("phb", "other") == ambient
        wire.clear_pathology("shb", "phb")
        assert wire.pathology("phb", "shb") == ambient

    def test_pathology_verbs_report_and_tcp_refuses_them(self):
        async def scenario(transport):
            system = AioSystem(gd_topology(), params=FAST, transport=transport)
            await system.start()
            try:
                system.set_link_pathology("phb", "shb", drop_probability=0.5)
                system.clear_link_pathology("phb", "shb")
            finally:
                await system.shutdown()
            return [(e.kind, e.target) for e in system.obs.fault_events]

        assert asyncio.run(scenario(LocalTransport())) == [
            ("set_link_pathology", "phb-shb"),
            ("clear_link_pathology", "phb-shb"),
        ]
        # Nothing can be injected below a reliable stream: refuse loudly
        # rather than report a fault that was not applied.
        with pytest.raises(NotImplementedError, match="TcpTransport"):
            asyncio.run(scenario(TcpTransport()))


class TestSubscriptionPropagationOverAio:
    def test_summaries_prune_traffic_in_real_time(self):
        async def scenario():
            params = FAST.with_(
                subscription_propagation=True, link_status_interval=0.05
            )
            transport = LocalTransport(seed=13)
            system = AioSystem(gd_topology(), params=params, transport=transport)
            await system.start()
            client = system.subscribe("a", "shb", ("P0",), "g = 0")
            await system.run_for(0.2)  # summary reaches the PHB
            publisher = system.publisher(
                "P0", rate=200.0, make_attributes=lambda i: {"g": i % 4}
            )
            publisher.start()
            await system.run_for(0.4)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            phb_stats = system.brokers["phb"].engine.stats()
            await system.shutdown()
            return report, publisher, phb_stats

        report, publisher, phb_stats = asyncio.run(scenario())
        assert report.exactly_once
        # The PHB's ostream marks only ~1/4 of ticks as D (the rest were
        # pruned by the advertised summary before ever being sent).
        sent = phb_stats["counters"].get("knowledge_sent", 0)
        assert sent < len(publisher.published)


class TestTcpTransport:
    def test_frames_round_trip(self):
        from repro.aio.wire import (
            decode_batch_body,
            decode_one_frame,
            decode_wire_message,
            encode_batch_frame,
            encode_wire_message,
        )
        from repro.broker.state import Envelope, LinkStatusMessage
        from repro.core.messages import AckMessage, DataTick, KnowledgeMessage
        from repro.core.ticks import TickRange

        for message in (
            Envelope(
                KnowledgeMessage(
                    pubend="P",
                    fin_prefix=10,
                    f_ranges=(TickRange(12, 20),),
                    data=(DataTick(25, {"a": {"x": 1}}),),
                )
            ),
            Envelope(AckMessage("P", 99), target_cell="SHB", sideways=True),
            LinkStatusMessage("b1", frozenset({"SHB1"})),
        ):
            frame = encode_batch_frame([encode_wire_message(message)])
            (payload,) = decode_batch_body(decode_one_frame(frame)[1])
            assert decode_wire_message(payload) == message

    def test_end_to_end_over_tcp(self):
        async def scenario():
            transport = TcpTransport()
            system = AioSystem(gd_topology(), params=FAST, transport=transport)
            await system.start()
            client = system.subscribe("a", "shb", ("P0",))
            publisher = system.publisher("P0", rate=100.0)
            publisher.start()
            await system.run_for(0.6)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            await system.shutdown()
            return report, publisher

        report, publisher = asyncio.run(scenario())
        assert len(publisher.published) > 20
        assert report.exactly_once

    def test_corrupt_frames_heal_via_reconnect_and_resend(self):
        """A frame damaged in flight is rejected by CRC, never delivered;
        the transport treats it as a torn connection and the resent
        backlog keeps delivery exactly-once (docs/PROTOCOL.md §8)."""

        async def scenario():
            transport = TcpTransport(seed=5)
            system = AioSystem(gd_topology(), params=FAST, transport=transport)
            await system.start()
            client = system.subscribe("a", "shb", ("P0",))
            publisher = system.publisher("P0", rate=100.0)
            publisher.start()
            await system.run_for(0.3)
            transport.corrupt_next_messages(2)
            await system.run_for(0.3)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            rejected = transport.frames_rejected_crc
            await system.shutdown()
            return report, publisher, rejected

        report, publisher, rejected = asyncio.run(scenario())
        assert len(publisher.published) > 20
        assert rejected >= 1, "the damaged frame must be caught by CRC"
        # The connection was dropped and re-established, the unpopped
        # backlog re-sent, and no corrupt payload ever delivered:
        assert report.exactly_once
