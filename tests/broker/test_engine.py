"""Unit tests for the GD broker engine with a fake transport.

These exercise the protocol rules in isolation: knowledge propagation,
lazy silence bracketing, retransmission targeting, nack satisfaction and
consolidation, ack consolidation, link selection, and sideways routing.
"""

import pytest

from repro.broker.engine import BrokerServices, GDBrokerEngine, stable_hash
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
