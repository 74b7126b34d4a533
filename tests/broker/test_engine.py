"""Unit tests for the GD broker engine with a fake transport.

These exercise the protocol rules in isolation: knowledge propagation,
lazy silence bracketing, retransmission targeting, nack satisfaction and
consolidation, ack consolidation, link selection, and sideways routing.
"""

import random
from itertools import takewhile

import pytest

from repro.broker.engine import ACK_BACKLOG, BrokerServices, GDBrokerEngine, stable_hash
from repro.broker.state import BrokerTopologyInfo, Envelope, LinkStatusMessage, PubendRoute
from repro.core.config import LivenessParams
from repro.core.edges import FilterEdge, MATCH_ALL
from repro.core.lattice import K
from repro.core.messages import (
    AckExpectedMessage,
    AckMessage,
    DataTick,
    KnowledgeMessage,
    NackMessage,
)
from repro.core.pubend import Pubend
from repro.core.streams import Stream
from repro.core.subend import Subscription
from repro.core.ticks import TickRange
from repro.storage.log import MemoryLog


class FakeServices(BrokerServices):
    def __init__(self):
        self.time = 0.0
        self.sent = []  # (dst, message)
        self.delivered = []  # (subscriber, pubend, tick, payload)
        self.dead_links = set()
        self.timers = []

    def now(self):
        return self.time

    def schedule(self, delay, fn):
        class H:
            cancelled = False

            def cancel(self):
                self.cancelled = True

        handle = H()
        self.timers.append((self.time + delay, fn, handle))
        return handle

    def send(self, dst, message, size=100):
        if dst in self.dead_links:
            return False
        self.sent.append((dst, message))
        return True

    def link_usable(self, neighbor):
        return neighbor not in self.dead_links

    def deliver(self, subscriber, pubend, tick, payload):
        self.delivered.append((subscriber, pubend, tick, payload))

    # helpers -------------------------------------------------------------

    def knowledge_to(self, dst=None):
        out = []
        for target, message in self.sent:
            if isinstance(message, Envelope) and isinstance(
                message.payload, KnowledgeMessage
            ):
                if dst is None or target == dst:
                    out.append((target, message))
        return out

    def payloads(self, cls, dst=None):
        return [
            (target, message.payload)
            for target, message in self.sent
            if isinstance(message, Envelope) and isinstance(message.payload, cls)
            and (dst is None or target == dst)
        ]


# Topology: this broker is b1 in IB1; upstream cell PHB {p1}; downstream
# cells SHB1 {s1} (all-pass) and SHB2 {s2} (filtered v > 10).
def intermediate_topo(filter2=None):
    routes = {
        "P": PubendRoute(
            pubend="P",
            upstream_cell="PHB",
            downstream={
                "SHB1": FilterEdge(MATCH_ALL),
                "SHB2": FilterEdge(filter2 or (lambda p: p["v"] > 10)),
            },
            subtree={"SHB1": frozenset(), "SHB2": frozenset()},
        )
    }
    return BrokerTopologyInfo(
        broker_id="b1",
        cell="IB1",
        neighbors=frozenset({"p1", "b2", "s1", "s2"}),
        cell_of={
            "b1": "IB1",
            "b2": "IB1",
            "p1": "PHB",
            "s1": "SHB1",
            "s2": "SHB2",
        },
        brokers_of_cell={
            "IB1": ("b1", "b2"),
            "PHB": ("p1",),
            "SHB1": ("s1",),
            "SHB2": ("s2",),
        },
        routes=routes,
    )


def make_engine(topo=None, params=None):
    services = FakeServices()
    engine = GDBrokerEngine(
        topo or intermediate_topo(), params or LivenessParams(), services
    )
    return services, engine


def data_msg(tick, value, fin=0, f=()):
    return KnowledgeMessage(
        pubend="P",
        fin_prefix=fin,
        f_ranges=tuple(TickRange(a, b) for a, b in f),
        data=(DataTick(tick, {"v": value}),),
    )


class TestKnowledgePropagation:
    def test_first_time_data_forwarded_to_matching_paths(self):
        services, engine = make_engine()
        engine.on_envelope("p1", Envelope(data_msg(5, 99, f=[(0, 5)])))
        assert len(services.knowledge_to("s1")) == 1
        assert len(services.knowledge_to("s2")) == 1  # 99 > 10 matches

    def test_filtered_data_not_forwarded_as_data(self):
        services, engine = make_engine()
        engine.on_envelope("p1", Envelope(data_msg(5, 1, f=[(0, 5)])))
        assert len(services.knowledge_to("s1")) == 1
        # v=1 fails the SHB2 filter: no message at all (silence suppressed,
        # conveyed lazily with the next matching data).
        assert services.knowledge_to("s2") == []

    def test_lazy_silence_bracket_covers_filtered_ticks(self):
        services, engine = make_engine()
        engine.on_envelope("p1", Envelope(data_msg(5, 1, f=[(0, 5)])))
        engine.on_envelope("p1", Envelope(data_msg(9, 50, f=[(6, 9)])))
        sent = services.knowledge_to("s2")
        assert len(sent) == 1
        message = sent[0][1].payload
        assert message.data_ticks == [9]
        # The bracket must finalize everything below 9, including the
        # filtered tick 5 and its surrounding silence.
        covered = set()
        for rng in message.merged_f_ranges():
            covered.update(range(rng.start, rng.stop))
        assert covered >= set(range(0, 9))

    def test_istream_accumulates(self):
        services, engine = make_engine()
        engine.on_envelope("p1", Envelope(data_msg(5, 99, f=[(0, 5)])))
        ist = engine.istreams["P"]
        assert ist.stream.knowledge.value_at(5) == K.D
        assert ist.stream.knowledge.value_at(3) == K.F
        assert ist.last_upstream_sender == "p1"

    def test_duplicate_knowledge_is_idempotent(self):
        services, engine = make_engine()
        message = data_msg(5, 99, f=[(0, 5)])
        engine.on_envelope("p1", Envelope(message))
        count = len(services.knowledge_to("s1"))
        engine.on_envelope("p1", Envelope(message))
        # A re-received first-time message is re-sent downstream (the
        # istream is unchanged, but dedup happens at the receivers).
        ist = engine.istreams["P"]
        assert ist.stream.knowledge.value_at(5) == K.D

    def test_sideways_envelope_propagates_only_to_target_cell(self):
        services, engine = make_engine()
        env = Envelope(data_msg(5, 99, f=[(0, 5)]), target_cell="SHB1", sideways=True)
        engine.on_envelope("b2", env)
        assert len(services.knowledge_to("s1")) == 1
        assert services.knowledge_to("s2") == []

    def test_unroutable_pubend_dropped(self):
        services, engine = make_engine()
        message = KnowledgeMessage(pubend="GHOST", data=(DataTick(5, {"v": 1}),))
        engine.on_envelope("p1", Envelope(message))
        assert engine.counters.get("knowledge_unroutable") == 1


class TestSidewaysRouting:
    def test_dead_downstream_link_routes_via_peer(self):
        services, engine = make_engine()
        services.dead_links.add("s1")
        engine.on_envelope("p1", Envelope(data_msg(5, 99, f=[(0, 5)])))
        sideways = [
            (dst, message)
            for dst, message in services.knowledge_to("b2")
        ]
        assert len(sideways) == 1
        env = sideways[0][1]
        assert env.sideways
        assert env.target_cell == "SHB1"

    def test_no_sideways_of_sideways(self):
        services, engine = make_engine()
        services.dead_links.add("s1")
        env = Envelope(data_msg(5, 99), target_cell="SHB1", sideways=True)
        engine.on_envelope("b2", env)
        # Cannot reach SHB1 and must not bounce back to b2.
        assert services.knowledge_to("b2") == []
        assert engine.counters.get("knowledge_undeliverable") == 1

    def test_peer_preference_respects_link_status(self):
        services, engine = make_engine()
        services.dead_links.add("s1")
        # b2 reports it cannot reach SHB1 either: no sideways target.
        engine.on_message("b2", LinkStatusMessage("b2", frozenset({"SHB2"})))
        engine.on_envelope("p1", Envelope(data_msg(5, 99)))
        assert services.knowledge_to("b2") == []


class TestNackHandling:
    def seed(self, services, engine):
        engine.on_envelope("p1", Envelope(data_msg(5, 99, f=[(0, 5)])))
        engine.on_envelope("p1", Envelope(data_msg(9, 50, f=[(6, 9)])))
        services.sent.clear()

    def test_nack_satisfied_from_local_state(self):
        services, engine = make_engine()
        self.seed(services, engine)
        engine.on_envelope("s1", Envelope(NackMessage("P", (TickRange(0, 10),))))
        retransmissions = services.knowledge_to("s1")
        assert len(retransmissions) == 1
        message = retransmissions[0][1].payload
        assert message.retransmit
        assert message.data_ticks == [5, 9]
        # Nothing had to go upstream.
        assert services.payloads(NackMessage, "p1") == []

    def test_unsatisfiable_nack_forwarded_upstream_once(self):
        services, engine = make_engine()
        self.seed(services, engine)
        engine.on_envelope("s1", Envelope(NackMessage("P", (TickRange(20, 30),))))
        assert len(services.payloads(NackMessage, "p1")) == 1
        # Second nack for the same range is consolidated away.
        engine.on_envelope("s1", Envelope(NackMessage("P", (TickRange(20, 30),))))
        assert len(services.payloads(NackMessage, "p1")) == 1
        assert engine.counters.get("nacks_consolidated", 0) >= 1

    def test_nack_consolidation_across_paths(self):
        """Paper Figure 7: two downstream paths nack the same range; only
        one nack goes upstream."""
        services, engine = make_engine(
            topo=intermediate_topo(filter2=MATCH_ALL)
        )
        engine.on_envelope("s1", Envelope(NackMessage("P", (TickRange(0, 100),))))
        engine.on_envelope("s2", Envelope(NackMessage("P", (TickRange(0, 100),))))
        upstream = services.payloads(NackMessage, "p1")
        assert len(upstream) == 1
        assert upstream[0][1].tick_count() == 100

    def test_curiosity_forgetting_lets_repeats_through(self):
        services, engine = make_engine()
        engine.on_envelope("s1", Envelope(NackMessage("P", (TickRange(0, 50),))))
        assert len(services.payloads(NackMessage, "p1")) == 1
        engine._curiosity_sweep()  # the periodic C->N forgetting
        engine.on_envelope("s1", Envelope(NackMessage("P", (TickRange(0, 50),))))
        assert len(services.payloads(NackMessage, "p1")) == 2

    def test_late_knowledge_satisfies_pending_curiosity(self):
        services, engine = make_engine()
        engine.on_envelope("s1", Envelope(NackMessage("P", (TickRange(0, 10),))))
        services.sent.clear()
        engine.on_envelope(
            "p1",
            Envelope(
                KnowledgeMessage(
                    pubend="P",
                    f_ranges=(TickRange(0, 5),),
                    data=(DataTick(5, {"v": 99}),),
                    retransmit=True,
                )
            ),
        )
        retr = services.knowledge_to("s1")
        assert len(retr) == 1
        assert retr[0][1].payload.data_ticks == [5]

    def test_retransmission_not_sent_to_uncurious_path(self):
        services, engine = make_engine(topo=intermediate_topo(filter2=MATCH_ALL))
        engine.on_envelope("s1", Envelope(NackMessage("P", (TickRange(0, 10),))))
        services.sent.clear()
        engine.on_envelope(
            "p1",
            Envelope(
                KnowledgeMessage(
                    pubend="P",
                    f_ranges=(TickRange(0, 10),),
                    retransmit=True,
                )
            ),
        )
        assert len(services.knowledge_to("s1")) == 1
        assert services.knowledge_to("s2") == []  # s2 never asked


class TestAckHandling:
    def seed_two_path(self):
        services, engine = make_engine(topo=intermediate_topo(filter2=MATCH_ALL))
        engine.on_envelope("p1", Envelope(data_msg(5, 99, f=[(0, 5)])))
        services.sent.clear()
        return services, engine

    def test_ack_consolidation_requires_all_paths(self):
        services, engine = self.seed_two_path()
        engine.on_envelope("s1", Envelope(AckMessage("P", 6)))
        # s2 has not acked the D tick at 5: only the silent prefix [0, 5)
        # (final on every path, hence implicitly acked) may go upstream.
        upstream = services.payloads(AckMessage, "p1")
        assert [a.up_to for (__, a) in upstream] == [5]
        engine.on_envelope("s2", Envelope(AckMessage("P", 6)))
        upstream = services.payloads(AckMessage, "p1")
        assert [a.up_to for (__, a) in upstream] == [5, 6]

    def test_ack_garbage_collects_istream(self):
        services, engine = self.seed_two_path()
        ist = engine.istreams["P"]
        assert ist.stream.knowledge.has_payload(5)
        engine.on_envelope("s1", Envelope(AckMessage("P", 6)))
        engine.on_envelope("s2", Envelope(AckMessage("P", 6)))
        assert not ist.stream.knowledge.has_payload(5)
        assert ist.stream.knowledge.value_at(5) == K.F

    def test_ack_monotone_no_duplicate_upstream(self):
        services, engine = self.seed_two_path()
        engine.on_envelope("s1", Envelope(AckMessage("P", 6)))
        engine.on_envelope("s2", Envelope(AckMessage("P", 6)))
        before = len(services.payloads(AckMessage, "p1"))
        engine.on_envelope("s2", Envelope(AckMessage("P", 6)))  # duplicate
        assert len(services.payloads(AckMessage, "p1")) == before
        ups = [a.up_to for (__, a) in services.payloads(AckMessage, "p1")]
        assert ups == sorted(ups)

    def test_filtered_path_acks_implicitly(self):
        """A path whose filter rejected the data must not block the ack."""
        services, engine = make_engine()  # SHB2 filters v <= 10
        engine.on_envelope("p1", Envelope(data_msg(5, 1, f=[(0, 5)])))  # only s1 gets it
        services.sent.clear()
        engine.on_envelope("s1", Envelope(AckMessage("P", 6)))
        upstream = services.payloads(AckMessage, "p1")
        assert len(upstream) == 1
        assert upstream[0][1].up_to == 6


class TestAckExpected:
    def test_forwarded_only_on_unacked_paths(self):
        services, engine = make_engine(topo=intermediate_topo(filter2=MATCH_ALL))
        engine.on_envelope("p1", Envelope(data_msg(5, 99, f=[(0, 5)])))
        engine.on_envelope("s1", Envelope(AckMessage("P", 6)))
        services.sent.clear()
        engine.on_envelope("p1", Envelope(AckExpectedMessage("P", 6)))
        assert services.payloads(AckExpectedMessage, "s2")
        assert services.payloads(AckExpectedMessage, "s1") == []


class TestPubendHosting:
    def phb_topo(self):
        return BrokerTopologyInfo(
            broker_id="p1",
            cell="PHB",
            neighbors=frozenset({"b1"}),
            cell_of={"p1": "PHB", "b1": "IB1"},
            brokers_of_cell={"PHB": ("p1",), "IB1": ("b1",)},
            routes={
                "P": PubendRoute(
                    pubend="P",
                    upstream_cell=None,
                    downstream={"IB1": FilterEdge(MATCH_ALL)},
                    subtree={"IB1": frozenset()},
                )
            },
        )

    def test_publish_propagates_after_commit(self):
        services = FakeServices()
        engine = GDBrokerEngine(self.phb_topo(), LivenessParams(), services)
        log = MemoryLog(commit_latency=0.1)
        engine.host_pubend(Pubend("P", log))
        services.time = 1.0
        tick = engine.publish("P", {"v": 1})
        assert services.knowledge_to("b1") == []  # not yet committed
        assert services.timers  # commit scheduled
        when, fn, __ = services.timers[-1]
        assert when == pytest.approx(1.1)
        fn()
        sent = services.knowledge_to("b1")
        assert len(sent) == 1
        assert sent[0][1].payload.data_ticks == [tick]

    def test_publish_with_zero_latency_is_immediate(self):
        services = FakeServices()
        engine = GDBrokerEngine(self.phb_topo(), LivenessParams(), services)
        engine.host_pubend(Pubend("P", MemoryLog()))
        engine.publish("P", {"v": 1})
        assert len(services.knowledge_to("b1")) == 1

    def test_phb_answers_nacks_from_log_backed_state(self):
        services = FakeServices()
        engine = GDBrokerEngine(self.phb_topo(), LivenessParams(), services)
        engine.host_pubend(Pubend("P", MemoryLog()))
        services.time = 1.0
        tick = engine.publish("P", {"v": 1})
        services.sent.clear()
        engine.on_envelope("b1", Envelope(NackMessage("P", (TickRange(0, tick + 1),))))
        retr = services.knowledge_to("b1")
        assert len(retr) == 1
        assert tick in retr[0][1].payload.data_ticks

    def test_consolidated_ack_truncates_log(self):
        services = FakeServices()
        engine = GDBrokerEngine(self.phb_topo(), LivenessParams(), services)
        log = MemoryLog()
        engine.host_pubend(Pubend("P", log))
        services.time = 1.0
        tick = engine.publish("P", {"v": 1})
        engine.on_envelope("b1", Envelope(AckMessage("P", tick + 1)))
        assert log.entries("P") == []
        assert log.truncated_below("P") == tick + 1

    def test_recovery_reseeds_istream(self):
        log = MemoryLog()
        pb = Pubend("P", log)
        services = FakeServices()
        engine = GDBrokerEngine(self.phb_topo(), LivenessParams(), services)
        engine.host_pubend(pb)
        services.time = 1.0
        tick = engine.publish("P", {"v": 1})
        # crash: fresh engine hosting a fresh pubend over the same log
        services2 = FakeServices()
        engine2 = GDBrokerEngine(self.phb_topo(), LivenessParams(), services2)
        engine2.host_pubend(Pubend("P", log))
        knowledge = engine2.istreams["P"].stream.knowledge
        assert knowledge.value_at(tick) == K.D
        assert knowledge.payload_at(tick) == {"v": 1}
        assert knowledge.final_prefix() == tick  # F[0, first logged tick)
        assert services2.sent == []  # replay is passive
        engine2.on_envelope("b1", Envelope(NackMessage("P", (TickRange(0, tick + 1),))))
        assert len(services2.knowledge_to("b1")) == 1


class TestSubendIntegration:
    def shb_topo(self):
        return BrokerTopologyInfo(
            broker_id="s1",
            cell="SHB1",
            neighbors=frozenset({"b1", "b2"}),
            cell_of={"s1": "SHB1", "b1": "IB1", "b2": "IB1"},
            brokers_of_cell={"SHB1": ("s1",), "IB1": ("b1", "b2")},
            routes={
                "P": PubendRoute(pubend="P", upstream_cell="IB1", downstream={})
            },
        )

    def test_local_delivery_and_ack(self):
        services = FakeServices()
        engine = GDBrokerEngine(self.shb_topo(), LivenessParams(), services)
        engine.add_subscription(Subscription("alice", pubends=("P",)))
        engine.on_envelope("b1", Envelope(data_msg(5, 99, f=[(0, 5)])))
        assert services.delivered == [("alice", "P", 5, {"v": 99})]
        acks = services.payloads(AckMessage, "b1")
        assert acks and acks[0][1].up_to == 6

    def test_ack_goes_to_last_sender(self):
        services = FakeServices()
        engine = GDBrokerEngine(self.shb_topo(), LivenessParams(), services)
        engine.add_subscription(Subscription("alice", pubends=("P",)))
        engine.on_envelope("b2", Envelope(data_msg(5, 99, f=[(0, 5)])))
        assert services.payloads(AckMessage, "b2")
        assert services.payloads(AckMessage, "b1") == []

    def test_upstream_broadcast_when_sender_unknown(self):
        services = FakeServices()
        engine = GDBrokerEngine(self.shb_topo(), LivenessParams(), services)
        engine.add_subscription(Subscription("alice", pubends=("P",)))
        engine.local_nack("P", [TickRange(0, 10)])
        # No last sender: nack goes to every broker of the upstream cell.
        assert services.payloads(NackMessage, "b1")
        assert services.payloads(NackMessage, "b2")

    def test_ack_expected_reasserts_ack(self):
        services = FakeServices()
        engine = GDBrokerEngine(self.shb_topo(), LivenessParams(), services)
        engine.add_subscription(Subscription("alice", pubends=("P",)))
        engine.on_envelope("b1", Envelope(data_msg(5, 99, f=[(0, 5)])))
        services.sent.clear()
        # Upstream restarted and lost all ack state; probes again.
        engine.on_envelope("b1", Envelope(AckExpectedMessage("P", 6)))
        acks = services.payloads(AckMessage, "b1")
        assert acks and acks[0][1].up_to >= 6


class TestLinkSelection:
    def test_hash_spreads_pubends(self):
        picks = {stable_hash(f"P{i}") % 2 for i in range(32)}
        assert picks == {0, 1}

    def test_link_status_steers_away_from_cut_broker(self):
        # p1's view: cell IB1 = {b1, b2}; pubend tree needs SHB1 below IB1.
        topo = BrokerTopologyInfo(
            broker_id="p1",
            cell="PHB",
            neighbors=frozenset({"b1", "b2"}),
            cell_of={"p1": "PHB", "b1": "IB1", "b2": "IB1", "s1": "SHB1"},
            brokers_of_cell={"PHB": ("p1",), "IB1": ("b1", "b2"), "SHB1": ("s1",)},
            routes={
                "P": PubendRoute(
                    pubend="P",
                    upstream_cell=None,
                    downstream={"IB1": FilterEdge(MATCH_ALL)},
                    subtree={"IB1": frozenset({"SHB1"})},
                )
            },
        )
        services = FakeServices()
        engine = GDBrokerEngine(topo, LivenessParams(), services)
        # Without reports, hash decides among both.
        assert engine._pick_downstream_broker("P", "IB1") in ("b1", "b2")
        # b1 reports it can no longer reach SHB1.
        engine.on_message("b1", LinkStatusMessage("b1", frozenset()))
        engine.on_message("b2", LinkStatusMessage("b2", frozenset({"SHB1"})))
        assert engine._pick_downstream_broker("P", "IB1") == "b2"
        # If no candidate reaches the subtree, fall back to hash anyway.
        engine.on_message("b2", LinkStatusMessage("b2", frozenset()))
        assert engine._pick_downstream_broker("P", "IB1") in ("b1", "b2")


def fire_timers(services):
    """Run every scheduled callback (the flush timers; `engine.start()` is
    never called here, so nothing periodic is armed)."""
    while services.timers:
        when, fn, handle = services.timers.pop(0)
        services.time = max(services.time, when)
        if not handle.cancelled:
            fn()


def first_time_to(services, dst):
    return [
        env.payload
        for (__, env) in services.knowledge_to(dst)
        if not env.payload.retransmit
    ]


FLUSH_ARMS = [0.0, 0.05]

#: One envelope of every kind the engine handles, direct and sideways.
ENVELOPE_KINDS = {
    "data": ("p1", Envelope(data_msg(5, 99, f=[(0, 5)]))),
    "data-sideways": (
        "b2",
        Envelope(data_msg(5, 99, f=[(0, 5)]), target_cell="SHB1", sideways=True),
    ),
    "silence": (
        "p1",
        Envelope(KnowledgeMessage(pubend="P", f_ranges=(TickRange(0, 8),))),
    ),
    "retransmission": (
        "p1",
        Envelope(
            KnowledgeMessage(
                pubend="P",
                f_ranges=(TickRange(0, 5),),
                data=(DataTick(5, {"v": 99}),),
                retransmit=True,
            )
        ),
    ),
    "ack": ("s1", Envelope(AckMessage("P", 6))),
    "nack": ("s1", Envelope(NackMessage("P", (TickRange(0, 8),)))),
    "ack-expected": ("p1", Envelope(AckExpectedMessage("P", 6))),
    "ack-expected-sideways": (
        "b2",
        Envelope(AckExpectedMessage("P", 6), target_cell="SHB1", sideways=True),
    ),
}


class TestIdempotence:
    """The protocol is lattice accumulation, so a duplicated envelope —
    what a transport that re-sends its in-flight batch after a reconnect
    produces — must change nothing."""

    @staticmethod
    def run(flush_delay, kind, acked, deliveries):
        services, engine = make_engine(params=LivenessParams(flush_delay=flush_delay))
        src, envelope = ENVELOPE_KINDS[kind]
        # Tick 5 is known and told to both paths before anything repeats.
        engine.on_envelope("p1", Envelope(data_msg(5, 99, f=[(0, 5)])))
        fire_timers(services)
        engine.on_envelope(src, envelope)
        fire_timers(services)
        if acked:
            engine.on_envelope("s1", Envelope(AckMessage("P", 6)))
        for __ in range(deliveries - 1):
            engine.on_envelope(src, envelope)
            fire_timers(services)
        engine.istreams["P"].stream.check_invariants()
        return engine.stream_state()

    @pytest.mark.parametrize("flush_delay", FLUSH_ARMS)
    @pytest.mark.parametrize("acked", [False, True], ids=["before-ack", "after-ack"])
    @pytest.mark.parametrize("kind", sorted(ENVELOPE_KINDS))
    def test_a_second_delivery_changes_nothing(self, kind, acked, flush_delay):
        once = self.run(flush_delay, kind, acked, deliveries=1)
        assert self.run(flush_delay, kind, acked, deliveries=2) == once
        assert self.run(flush_delay, kind, acked, deliveries=3) == once

    @pytest.mark.parametrize("flush_delay", FLUSH_ARMS)
    def test_duplicate_after_the_ack_sends_no_first_time_message(self, flush_delay):
        services, engine = make_engine(params=LivenessParams(flush_delay=flush_delay))
        envelope = Envelope(data_msg(5, 99, f=[(0, 5)]))
        engine.on_envelope("p1", envelope)
        fire_timers(services)
        engine.on_envelope("s1", Envelope(AckMessage("P", 6)))
        told = len(first_time_to(services, "s1"))
        engine.on_envelope("p1", envelope)
        fire_timers(services)
        assert len(first_time_to(services, "s1")) == told
        # SHB2 has not acked: the tick is still D on that path and the
        # duplicate travels (receivers dedup).
        assert first_time_to(services, "s2")[-1].data_ticks == [5]


class TestArmEquivalence:
    """``flush_delay`` decides *when* a path is told what is new, never
    *what*: the same arrivals give the downstream the same knowledge."""

    @staticmethod
    def steps(seed):
        """A seeded arrival sequence: first-time publications with lazy
        silence brackets, some delivered twice, some swapped with their
        successor, acks from s1 for prefixes it has been told."""
        rng = random.Random(seed)
        upstream, tick = [], 0
        for __ in range(rng.randint(6, 14)):
            lo, tick = tick, tick + rng.randint(1, 4)
            upstream.append(data_msg(tick, rng.randint(0, 100), f=[(lo, tick)]))
            tick += 1
        for i in range(len(upstream) - 1):
            if rng.random() < 0.2:
                upstream[i], upstream[i + 1] = upstream[i + 1], upstream[i]
        steps, told = [], []
        for message in upstream:
            steps.append(("data", message))
            told.append(message)
            roll = rng.random()
            if roll < 0.3:
                steps.append(("duplicate", rng.choice(told)))
            elif roll < 0.6:
                steps.append(("ack", 1 + max(m.data[0].tick for m in told)))
        # Close with a publication nothing reordered, so lazy silence
        # brackets everything below it on both arms.
        steps.append(("data", data_msg(tick + 1, 50, f=[(tick, tick + 1)])))
        return steps

    @staticmethod
    def drive(flush_delay, steps):
        services, engine = make_engine(params=LivenessParams(flush_delay=flush_delay))
        acked = 0
        for step, arg in steps:
            if step == "ack":
                # A downstream acks only what it has been sent.
                fire_timers(services)
                acked = max(acked, arg)
                engine.on_envelope("s1", Envelope(AckMessage("P", arg)))
                continue
            if step == "duplicate" and arg.data[0].tick < acked:
                # After the ack a duplicate tells s1 nothing, on either arm.
                fire_timers(services)
                told = len(first_time_to(services, "s1"))
                engine.on_envelope("p1", Envelope(arg))
                fire_timers(services)
                assert len(first_time_to(services, "s1")) == told
            else:
                engine.on_envelope("p1", Envelope(arg))
        fire_timers(services)
        # What s1 would hold: everything sent towards it, accumulated; the
        # gaps a reordered arrival left are healed by its curiosity.
        held = Stream()
        seen = 0
        for __ in range(3):
            for __, envelope in services.knowledge_to("s1")[seen:]:
                for rng in envelope.payload.merged_f_ranges():
                    held.accumulate_final(rng)
                for data in envelope.payload.data:
                    held.accumulate_data(data.tick, data.payload)
            seen = len(services.knowledge_to("s1"))
            gaps = held.knowledge.ranges_with(
                lambda v: v == K.Q, 0, held.knowledge.horizon()
            )
            if not gaps:
                break
            engine.on_envelope("s1", Envelope(NackMessage("P", tuple(gaps))))
        held.check_invariants()
        horizon = held.knowledge.horizon()
        return list(held.knowledge.iter_runs(0, horizon)), held.knowledge.d_ticks(
            TickRange(0, horizon)
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_both_arms_tell_the_path_the_same(self, seed):
        steps = self.steps(seed)
        immediate = self.drive(0.0, steps)
        assert self.drive(0.05, steps) == immediate
        assert immediate[0], "nothing reached s1"


#: broker under test -> (its topology, its upstream sender, whether it
#: hosts a local subscriber) — between them, every site that makes an ack
#: due: a downstream ack, a subend horizon advance, and a consumer-less
#: sink (s1 with nobody subscribed).
TURN_BROKERS = {
    "relay-with-subend": (intermediate_topo, "p1", True),
    "consumerless-sink": (TestSubendIntegration().shb_topo, "b1", False),
}


class TestTurnPartition:
    """An ack is a cumulative prefix, so when a held ack leaves decides how
    many acks leave, never what they say: the knowledge lattice applied to
    acks.  Inside turns, the first turn of a link-status period that has
    an ack due flushes it; later turns hold it until the tick or until
    ``ACK_BACKLOG`` messages were handled since the last flush.
    (AckExpected is left out: its forced re-assertion does not wait.)"""

    @staticmethod
    def steps(seed, upstream_sender, downstream_acks, publications=(10, 30)):
        """Publications with lazy silence brackets, some swapped with their
        successor or delivered twice, and acks from s1 and s2 below the
        first publication that has not arrived yet."""
        rng = random.Random(seed)
        upstream, tick = [], 0
        for __ in range(rng.randint(*publications)):
            lo, tick = tick, tick + rng.randint(1, 4)
            upstream.append(data_msg(tick, rng.randint(0, 100), f=[(lo, tick)]))
            tick += 1
        for i in range(len(upstream) - 1):
            if rng.random() < 0.2:
                upstream[i], upstream[i + 1] = upstream[i + 1], upstream[i]
        in_order = sorted(m.data[0].tick for m in upstream)
        steps, arrived = [], set()
        for message in upstream:
            steps.append((upstream_sender, Envelope(message)))
            arrived.add(message.data[0].tick)
            if rng.random() < 0.2:
                steps.append((upstream_sender, Envelope(message)))
            told = 1 + max(takewhile(arrived.__contains__, in_order), default=-1)
            for downstream in ("s1", "s2") if downstream_acks else ():
                if told and rng.random() < 0.4:
                    steps.append((downstream, Envelope(AckMessage("P", told))))
        return steps

    @staticmethod
    def engine_for(broker):
        topo, __, subscribed = TURN_BROKERS[broker]
        services, engine = make_engine(topo=topo())
        if subscribed:
            engine.add_subscription(Subscription("alice", pubends=("P",)))
        return services, engine

    @staticmethod
    def split(sent):
        """``(acks sent upstream, every other message)``."""
        acks, others = [], []
        for dst, message in sent:
            if isinstance(message, Envelope) and isinstance(message.payload, AckMessage):
                acks.append((dst, message.payload.up_to))
            else:
                others.append((dst, message))
        return acks, others

    def per_message(self, broker, steps):
        """The reference: every message in a turn of its own, each followed
        by a tick, so every due ack leaves at the end of its message.
        Returns the final stream state, the acks each message sent, and
        every other message sent outside a tick."""
        services, engine = self.engine_for(broker)
        acks, others = [], []
        for src, envelope in steps:
            before = len(services.sent)
            engine.open_turn()
            engine.on_message(src, envelope)
            engine.close_turn()
            others.extend(self.split(services.sent[before:])[1])
            engine._send_link_status()
            acks.append(self.split(services.sent[before:])[0])
        return engine.stream_state(), acks, others

    def batched(self, broker, steps, schedule):
        """Feed ``steps`` in turns of the sizes ``schedule`` names, with a
        link-status tick wherever it says ``"tick"`` and once at the end,
        checking each turn's flush decision against the contract.  Returns
        the final stream state, ``(messages since the last flush, acks
        sent)`` per flush, every other message sent outside a tick, and
        how many turns held a due ack."""
        services, engine = self.engine_for(broker)
        flushes, others, held, at = [], [], 0, 0
        leading, handled = True, 0
        for event in schedule + ["tick"]:
            before = len(services.sent)
            if event == "tick":
                due = bool(engine.acks_due)
                engine._send_link_status()
                assert engine.acks_due == {}
                if due:
                    flushes.append((at, self.split(services.sent[before:])[0]))
                    handled = 0
                leading = not due
                continue
            engine.open_turn()
            for src, envelope in steps[at : at + event]:
                engine.on_message(src, envelope)
            at += event
            handled += event
            due = dict(engine.acks_due)
            engine.close_turn()
            acks, other = self.split(services.sent[before:])
            others.extend(other)
            if due and (leading or handled >= ACK_BACKLOG):
                assert engine.acks_due == {}
                flushes.append((at, acks))
                leading, handled = False, 0
            else:
                assert acks == [] and engine.acks_due == due
                held += bool(due)
        assert at == len(steps)
        return engine.stream_state(), flushes, others, held

    def check(self, broker, steps, schedule):
        state, per_message, others = self.per_message(broker, steps)
        batched = self.batched(broker, steps, schedule)
        assert batched[0] == state
        assert batched[2] == others
        last = 0
        for at, sent in batched[1]:
            replaced = [ack for acks in per_message[last:at] for ack in acks]
            assert sent == replaced[-1:]
            last = at
        assert sum(len(sent) for __, sent in batched[1]) <= sum(map(len, per_message))
        assert any(per_message), "no ack left the broker"
        return batched

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("broker", sorted(TURN_BROKERS))
    def test_one_ack_per_turn_carries_the_last_one(self, broker, seed):
        """Random turns of 1–8 messages with link-status ticks between
        some: a turn sends at most one ack, only when the contract lets it,
        and that ack is the last one the reference sent since the previous
        flush."""
        __, upstream_sender, subscribed = TURN_BROKERS[broker]
        steps = self.steps(seed, upstream_sender, downstream_acks=subscribed)
        rng, schedule, left = random.Random(-1 - seed), [], len(steps)
        while left:
            schedule.append(rng.randint(1, min(left, 8)))
            left -= schedule[-1]
            if rng.random() < 0.25:
                schedule.append("tick")
        self.check(broker, steps, schedule)

    @pytest.mark.parametrize("broker", sorted(TURN_BROKERS))
    def test_a_backlog_flushes_without_the_tick(self, broker):
        """One message per turn and no tick: the first turn with an ack
        due flushes, later ones hold it until ``ACK_BACKLOG`` messages were
        handled since the last flush."""
        __, upstream_sender, subscribed = TURN_BROKERS[broker]
        steps = self.steps(
            0, upstream_sender, downstream_acks=subscribed, publications=(200, 200)
        )
        __, flushes, __, held = self.check(broker, steps, [1] * len(steps))
        gaps = [b - a for (a, __), (b, __) in zip(flushes, flushes[1:-1])]
        assert len(gaps) >= 2 and held > 0
        assert all(gap >= ACK_BACKLOG for gap in gaps), gaps
