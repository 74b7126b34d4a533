"""Integration tests for the asyncio runtime (real wall-clock timers)."""

import asyncio
import math

import pytest

from repro.aio.chaos import FAST_PARAMS, chain_topology
from repro.aio.runtime import AioSystem
from repro.aio.transport import LocalTransport, TcpTransport
from repro.broker.engine import GDBrokerEngine
from repro.client import DeliveryChecker
from repro.core.config import LivenessParams
from repro.core.messages import AckMessage
from repro.obs.lifecycle import LifecycleListener
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


async def until_acked(system, phb, tick, rounds=40, step=0.05):
    """Poll until the PHB's pubend has been acked past ``tick``."""
    for __ in range(rounds):
        if phb.stream_state()["P0"]["pubend"]["acked_up_to"] > tick:
            break
        await system.run_for(step)


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


    def test_integrity_verbs_report_only_what_they_injected(self, tmp_path):
        async def scenario():
            system = AioSystem(
                gd_topology(), params=FAST, transport=LocalTransport(),
                data_dir=str(tmp_path),
            )
            await system.start()
            try:
                publisher = system.publisher("P0", rate=100.0)
                assert publisher.publish_once() is not None
                system.corrupt_log("phb")  # up: its log is left alone
                system.disk_full("shb")  # hosts no log: nothing to arm
                assert system.obs.fault_events == []
                system.disk_full("phb")
                assert publisher.publish_once() is None  # fails visibly
                assert publisher.publish_once() is not None  # one shot
                await system.crash_broker("phb")
                system.corrupt_log("phb")
                await system.restart_broker("phb")  # replay quarantines it
                system.corrupt_wire()
            finally:
                await system.shutdown()
            return system.obs

        obs = asyncio.run(scenario())
        assert [(e.kind, e.target) for e in obs.fault_events] == [
            ("disk_full", "phb"),
            ("crash", "phb"),
            ("corrupt_log", "phb"),
            ("restart", "phb"),
            ("corrupt_wire", "wire"),
        ]
        assert obs.instruments.total("log_append_errors") == 1
        assert obs.instruments.total("log_records_quarantined") == 1
        assert (tmp_path / "P0.log.quarantine").exists()

    def test_integrity_verbs_need_file_logs(self):
        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)  # MemoryLog
            await system.start()
            try:
                system.disk_full("phb")
                await system.crash_broker("phb")
                system.corrupt_log("phb")
            finally:
                await system.shutdown()
            return [e.kind for e in system.obs.fault_events]

        assert asyncio.run(scenario()) == ["crash"]


class _EchoTransport(LocalTransport):
    """Delivers every message a second time ``echo`` seconds later — the
    duplicate a transport produces when it re-sends its in-flight batch
    after a reconnect, late enough that the downstream has acked the
    first copy meanwhile."""

    echo = 0.03

    def send(self, src, dst, message):
        asyncio.get_running_loop().call_later(
            self.echo, LocalTransport.send, self, src, dst, message
        )
        return super().send(src, dst, message)


class TestPoisonedAndDuplicatedMessages:
    def test_a_chain_that_hears_everything_twice_stays_exactly_once(self):
        async def scenario():
            system = AioSystem(
                chain_topology(), params=FAST_PARAMS, transport=_EchoTransport(seed=5)
            )
            await system.start()
            client = system.subscribe("a", "b2", ("P0",))
            publisher = system.publisher("P0", rate=200.0)
            publisher.start()
            await system.run_for(0.5)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            failures = {b: broker.failure for b, broker in system.brokers.items()}
            await system.shutdown()
            return report, publisher, failures

        report, publisher, failures = asyncio.run(scenario())
        assert len(publisher.published) > 50
        assert failures == {"b0": None, "b1": None, "b2": None}
        assert report.exactly_once

    def test_a_handler_that_raises_once_does_not_deafen_the_broker(self):
        async def scenario():
            system = AioSystem(
                gd_topology(), params=FAST, transport=LocalTransport(seed=2)
            )
            await system.start()
            client = system.subscribe("a", "shb", ("P0",))
            shb = system.brokers["shb"]
            real, poison = shb.engine.on_message, RuntimeError("poisoned message")

            def raise_once(src, message):
                shb.engine.on_message = real
                raise poison

            shb.engine.on_message = raise_once
            publisher = system.publisher("P0", rate=200.0)
            publisher.start()
            await system.run_for(0.4)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            failure = shb.failure
            await system.shutdown()
            return report, failure, poison

        report, failure, poison = asyncio.run(scenario())
        # Kept for the harnesses to report, and the lost message healed
        # like any other loss.
        assert failure is poison
        assert report.exactly_once

    def test_a_raise_in_the_turn_flush_does_not_deafen_the_broker(self):
        async def scenario():
            system = AioSystem(
                gd_topology(), params=FAST, transport=LocalTransport(seed=2)
            )
            await system.start()
            client = system.subscribe("a", "shb", ("P0",))
            shb = system.brokers["shb"]
            engine = shb.engine
            real, poison = engine.consolidate_ack, RuntimeError("poisoned flush")

            def raise_once(pubend, force=False):
                if force:  # the AckExpected path; only the flush is poisoned
                    return real(pubend, force)
                engine.consolidate_ack = real
                raise poison

            engine.consolidate_ack = raise_once
            publisher = system.publisher("P0", rate=200.0)
            publisher.start()
            await system.run_for(0.4)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            last = publisher.published[-1][1]
            phb = system.brokers["phb"].engine
            await until_acked(system, phb, last)
            acked = phb.stream_state()["P0"]["pubend"]["acked_up_to"]
            outcome = (shb.failure, shb._drain_task.done(), engine.consolidate_ack)
            await system.shutdown()
            return report, outcome, acked, last, poison, real

        report, outcome, acked, last, poison, real = asyncio.run(scenario())
        failure, drain_done, consolidate = outcome
        assert consolidate == real, "the flush never ran"
        assert failure is poison
        assert not drain_done
        assert report.exactly_once
        # The mark the raise lost is made again by the next turn.
        assert acked > last

    def test_a_raise_in_the_tick_flush_does_not_stop_the_tick(self, monkeypatch):
        """Held acks are flushed by the link-status tick, a timer: a raise
        there is kept in ``failure`` like a handler's, and the tick and
        the acks go on."""
        ticks, ticking, poison = [], [], RuntimeError("poisoned tick flush")
        send_link_status = GDBrokerEngine._send_link_status

        def recorded(engine):
            ticks.append(engine.topo.broker_id)
            ticking.append(engine)
            try:
                send_link_status(engine)
            finally:
                ticking.pop()

        monkeypatch.setattr(GDBrokerEngine, "_send_link_status", recorded)

        async def scenario():
            system = AioSystem(
                gd_topology(), params=FAST, transport=LocalTransport(seed=3)
            )
            await system.start()
            client = system.subscribe("a", "shb", ("P0",))
            shb = system.brokers["shb"]
            engine = shb.engine
            real = engine.consolidate_ack

            def raise_in_a_tick(pubend, force=False):
                if not force and ticking and ticking[-1] is engine:
                    engine.consolidate_ack = real
                    ticks.append("raised")
                    raise poison
                return real(pubend, force)

            engine.consolidate_ack = raise_in_a_tick
            publisher = system.publisher("P0", rate=200.0)
            publisher.start()
            await system.run_for(0.6)
            await publisher.stop()
            report = await settle(system, publisher, client, "a")
            last = publisher.published[-1][1]
            phb = system.brokers["phb"].engine
            await until_acked(system, phb, last)
            acked = phb.stream_state()["P0"]["pubend"]["acked_up_to"]
            failure = shb.failure
            await system.shutdown()
            return report, failure, acked, last

        report, failure, acked, last = asyncio.run(scenario())
        assert "raised" in ticks, "no tick flushed an ack"
        assert failure is poison
        assert "shb" in ticks[ticks.index("raised") + 1 :], "the tick stopped"
        assert report.exactly_once
        assert acked > last


class TestAcksPerTurn:
    """The inbox micro-batch is one engine turn.  However many acks its
    messages make due, each pubend's cumulative ack leaves at most once:
    when the batch ends if it is the first flush since the broker's last
    link-status tick or a backlog built up, else with the next tick —
    and no ack stays due past a tick."""

    @staticmethod
    def record_ticks(monkeypatch):
        """Every link-status tick, as ``(broker, acks still due after
        it)``."""
        ticks = []
        send_link_status = GDBrokerEngine._send_link_status

        def recorded(engine):
            send_link_status(engine)
            ticks.append((engine.topo.broker_id, dict(engine.acks_due)))

        monkeypatch.setattr(GDBrokerEngine, "_send_link_status", recorded)
        return ticks

    def test_a_burst_leaves_no_ack_behind(self, monkeypatch):
        burst = 1000
        ticks = self.record_ticks(monkeypatch)

        async def scenario():
            system = AioSystem(
                chain_topology(), params=FAST_PARAMS, transport=LocalTransport(seed=4)
            )
            await system.start()
            client = system.subscribe("a", "b2", ("P0",))
            publisher = system.publisher("P0", rate=1.0)
            for __ in range(burst):
                assert publisher.publish_once() is not None
            report = await settle(system, publisher, client, "a")
            last = publisher.published[-1][1]
            phb = system.brokers["b0"].engine
            await until_acked(system, phb, last)
            acked = phb.stream_state()["P0"]["pubend"]["acked_up_to"]
            brokers = system.brokers.items()
            acks = sum(broker.engine.counters.get("acks_sent", 0) for __, broker in brokers)
            inboxes = [broker._inbox.qsize() for __, broker in brokers]
            await system.shutdown()
            return report, acked, last, acks, inboxes

        report, acked, last, acks, inboxes = asyncio.run(scenario())
        assert report.exactly_once
        assert inboxes == [0, 0, 0]
        assert {broker for broker, __ in ticks} == {"b0", "b1", "b2"}
        assert [due for __, due in ticks if due] == []
        assert acks <= 0.1 * burst, acks
        assert acked > last

    def test_paced_traffic_sends_an_ack_per_hop_per_period(self):
        """P0 and P1 at 150 publications a second each, one per
        micro-batch: each pubend's ack rides the 0.1 s link-status tick
        once per hop, and none is late enough for the pubend to probe with
        AckExpected (aet = 1 s)."""

        async def scenario():
            system = AioSystem(
                chain_topology(), params=FAST_PARAMS, transport=LocalTransport(seed=5)
            )
            await system.start()
            reports, published = [], 0
            clients = {p: system.subscribe(p, "b2", (p,)) for p in ("P0", "P1")}
            publishers = [system.publisher(p, rate=150.0) for p in ("P0", "P1")]
            for publisher in publishers:
                publisher.start()
            await system.run_for(3.0)
            for publisher in publishers:
                await publisher.stop()
                pubend = publisher.pubend
                reports.append(await settle(system, publisher, clients[pubend], pubend))
                published += len(publisher.published)
            counters = [broker.engine.counters for broker in system.brokers.values()]
            await system.shutdown()
            return reports, published, counters

        reports, published, counters = asyncio.run(scenario())
        assert all(report.exactly_once for report in reports)
        assert published >= 300
        acks = sum(c.get("acks_sent", 0) for c in counters)
        assert 0 < acks <= 0.2 * published, (acks, published)
        assert sum(c.get("ack_expected_sent", 0) for c in counters) == 0

    def test_the_first_ack_leaves_before_the_first_tick(self, monkeypatch):
        """A fresh system's first ack is a leading edge: it leaves at the
        end of its turn, not with the SHB's first link-status tick."""
        ticks = self.record_ticks(monkeypatch)

        async def scenario():
            system = AioSystem(
                chain_topology(), params=FAST_PARAMS, transport=LocalTransport(seed=6)
            )
            first = []

            class FirstAck(LifecycleListener):
                def message_sent(self, t, node, dst, message):
                    if not first and isinstance(
                        getattr(message, "payload", None), AckMessage
                    ):
                        first.append((node, dst, len(ticks)))

            system.obs.lifecycle.attach(FirstAck())
            await system.start()
            system.subscribe("a", "b2", ("P0",))
            system.publisher("P0", rate=1.0).publish_once()
            for __ in range(20):
                if first:
                    break
                await asyncio.sleep(0.005)
            await system.shutdown()
            return first

        assert asyncio.run(scenario()) == [("b2", "b1", 0)]


class _PubendEmissions(LifecycleListener):
    """Every first-time knowledge message a pubend hosted at ``b0``
    emits (publication or silence), as its PHB ingests it."""

    def __init__(self):
        self.messages = []

    def knowledge_ingested(self, t, node, src, message):
        if node == "b0" and not src:
            self.messages.append(message)


class TestColdStart:
    """A second process over the first one's ``data_dir``: hosting a
    pubend replays its log, so what was logged but never delivered is
    delivered — before anything new — and ticks continue past the log."""

    @staticmethod
    def generation(data_dir, seed):
        return AioSystem(
            chain_topology(),
            params=FAST_PARAMS,
            transport=LocalTransport(seed=seed),
            data_dir=data_dir,
        )

    @staticmethod
    async def until(system, done, rounds=20, step=0.25):
        for __ in range(rounds):
            if done():
                break
            await system.run_for(step)

    def test_inherited_publications_are_delivered_before_new_ones(self, tmp_path):
        async def scenario():
            first = self.generation(str(tmp_path), seed=1)
            await first.start()
            stranded = first.subscribe("a", "b2", ("P0",))
            first.fail_link("b0", "b1")
            publisher = first.publisher("P0", rate=100.0)
            inherited = [publisher.publish_once() for __ in range(5)]
            await first.run_for(0.3)
            assert stranded.received == []
            await first.shutdown()

            second = self.generation(str(tmp_path), seed=2)
            log = second.brokers["b0"].hosted_logs()["P0"]
            assert [e.tick for e in log.entries("P0")] == inherited
            await second.start()
            client = second.subscribe("a", "b2", ("P0",))
            await second.run_for(0.2)
            publisher = second.publisher("P0", rate=100.0)
            own = [publisher.publish_once() for __ in range(3)]
            await self.until(
                second,
                lambda: len(client.received) >= 8 and not log.entries("P0"),
            )
            delivered = [tick for __, tick, __, __ in client.received]
            nacks = second.obs.instruments.total("repro_subend_nacks_sent_total")
            left = log.entries("P0")
            await second.shutdown()
            return inherited, own, delivered, nacks, left

        inherited, own, delivered, nacks, left = asyncio.run(scenario())
        assert min(own) > max(inherited)
        assert delivered == inherited + own
        assert left == []
        assert 1 <= nacks <= 3  # one nack for the whole inherited range

    def test_drained_log_restarts_at_its_truncation_point(self, tmp_path):
        async def scenario():
            first = self.generation(str(tmp_path), seed=1)
            await first.start()
            first.subscribe("a", "b2", ("P0",))
            publisher = first.publisher("P0", rate=100.0)
            for __ in range(5):
                publisher.publish_once()
            log = first.brokers["b0"].hosted_logs()["P0"]
            await self.until(first, lambda: not log.entries("P0"))
            await first.shutdown()

            second = self.generation(str(tmp_path), seed=2)
            log = second.brokers["b0"].hosted_logs()["P0"]
            truncated = log.truncated_below("P0")
            assert truncated > 0 and log.entries("P0") == []
            sent = second.obs.lifecycle.attach(_PubendEmissions())
            await second.start()
            client = second.subscribe("a", "b2", ("P0",))
            await self.until(second, lambda: sent.messages, step=0.05)
            tick = second.publisher("P0", rate=100.0).publish_once()
            await self.until(second, lambda: client.received, step=0.05)
            await second.run_for(0.3)
            delivered = [t for __, t, __, __ in client.received]
            nacks = second.obs.instruments.total("repro_subend_nacks_sent_total")
            await second.shutdown()
            first_p0 = next(m for m in sent.messages if m.pubend == "P0")
            return truncated, first_p0, tick, delivered, nacks

        truncated, first_p0, tick, delivered, nacks = asyncio.run(scenario())
        # Nothing below the durable truncation point is said again, and
        # the first thing said starts exactly there.
        assert first_p0.fin_prefix == truncated
        assert first_p0.f_ranges[0].start == truncated
        assert tick >= truncated
        assert delivered == [tick]
        assert nacks == 0


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

    def test_probe_to_a_subend_that_heard_nothing_keeps_the_loop_responsive(self):
        """The publication is flushed before any connection exists, so the
        SHB hears of P0 first from an AckExpected probe whose tick is host
        uptime.  Nacking ``[0, uptime)`` in 500-tick pieces, ≈72k nacks
        and timers at ten hours of uptime, starves the loop: a 1 s
        ``wait_for`` must still fire on time, and the message arrives."""
        params = LivenessParams(flush_delay=0.5, silence_interval=60.0, aet=1.0)

        async def scenario():
            loop = asyncio.get_running_loop()
            system = AioSystem(gd_topology(), params=params, transport=TcpTransport())
            client = system.subscribe("a", "shb", ("P0",))
            phb = system.brokers["phb"]
            tick = phb.publish("P0", {"n": 1})
            phb.engine.flush_dirty_ostreams()
            await system.start()
            late = []
            for __ in range(4):  # through AET, the probe and its answer
                t0 = loop.time()
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(asyncio.Event().wait(), 1.0)
                late.append(loop.time() - t0 - 1.0)
            nacks = system.brokers["shb"].engine.subend.total_nacks_sent()
            received = [t for (__, t, ___, ____) in client.received]
            await system.shutdown()
            return tick, late, nacks, received

        tick, late, nacks, received = asyncio.run(scenario())
        assert tick > 0
        assert max(late) < 0.5, late
        assert nacks <= 2
        assert received == [tick]

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
