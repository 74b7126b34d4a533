"""Unit tests for the subend: delivery order, doubt horizon, acks,
GCT/NRT nacking, DCT, and AckExpected handling.

Uses a hand-rolled fake services object with a manually advanced clock,
so timer behaviour is tested without the full simulator.
"""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from collections.abc import Mapping

import pytest

from repro.core.config import LivenessParams
from repro.core.edges import MATCH_ALL
from repro.core.streams import Stream
from repro.core.subend import (
    NACK_PIECES_PER_FIRING,
    SubendManager,
    SubendServices,
    Subscription,
    SubscriptionIndex,
)
from repro.core.ticks import TickRange
from repro.matching.ast import Predicate as AstPredicate
from repro.matching.parser import parse


class FakeTimer:
    def __init__(self, when, fn):
        self.when = when
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeServices(SubendServices):
    def __init__(self):
        self.time = 0.0
        self.timers = []
        self.nacks = []  # (pubend, ranges)
        self.acks = []  # (pubend, up_to)
        self.deliveries = []  # (subscriber, pubend, tick, payload)

    def now(self):
        return self.time

    def schedule(self, delay, fn):
        timer = FakeTimer(self.time + delay, fn)
        self.timers.append(timer)
        return timer

    def send_nack(self, pubend, ranges):
        self.nacks.append((pubend, list(ranges)))

    def send_ack(self, pubend, up_to):
        self.acks.append((pubend, up_to))

    def deliver(self, subscriber, pubend, tick, payload):
        self.deliveries.append((subscriber, pubend, tick, payload))

    def fire_next(self, until):
        """Fire the earliest live timer due by ``until``; returns whether
        one fired (the clock stops at it)."""
        due = [t for t in self.timers if not t.cancelled and t.when <= until]
        if not due:
            return False
        timer = min(due, key=lambda t: t.when)
        self.timers.remove(timer)
        self.time = timer.when
        timer.fn()
        return True

    def advance(self, dt):
        """Advance the clock, firing due timers in order."""
        deadline = self.time + dt
        while self.fire_next(deadline):
            pass
        self.time = deadline


PARAMS = LivenessParams(gct=0.2, nrt_min=0.6, dct=math.inf)


def make_manager(pubends=("P",), params=PARAMS):
    services = FakeServices()
    manager = SubendManager(services, params)
    streams = {}
    for pubend in pubends:
        stream = Stream()
        streams[pubend] = stream
        manager.attach_stream(pubend, stream)
    return services, manager, streams


class TestDelivery:
    def test_in_order_delivery_below_horizon(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("alice", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 5))
        s.accumulate_data(5, "m5")
        manager.on_knowledge("P")
        assert services.deliveries == [("alice", "P", 5, "m5")]

    def test_gap_blocks_delivery(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("alice", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 5))
        s.accumulate_data(5, "m5")
        s.accumulate_data(9, "m9")  # gap at 6..8
        manager.on_knowledge("P")
        assert [d[2] for d in services.deliveries] == [5]
        # gap resolves -> m9 released
        s.accumulate_final(TickRange(6, 9))
        manager.on_knowledge("P")
        assert [d[2] for d in services.deliveries] == [5, 9]

    def test_no_duplicate_delivery_on_redundant_knowledge(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("alice", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 5))
        s.accumulate_data(5, "m5")
        manager.on_knowledge("P")
        manager.on_knowledge("P")  # same knowledge again
        assert len(services.deliveries) == 1

    def test_predicate_filters_delivery(self):
        services, manager, streams = make_manager()
        manager.subscribe(
            Subscription("alice", predicate=lambda p: p == "yes", pubends=("P",))
        )
        s = streams["P"]
        s.accumulate_final(TickRange(0, 3))
        s.accumulate_data(3, "no")
        s.accumulate_final(TickRange(4, 6))
        s.accumulate_data(6, "yes")
        manager.on_knowledge("P")
        assert services.deliveries == [("alice", "P", 6, "yes")]

    def test_multiple_subscribers_share_stream(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        manager.subscribe(Subscription("b", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 2))
        s.accumulate_data(2, "m")
        manager.on_knowledge("P")
        assert {d[0] for d in services.deliveries} == {"a", "b"}

    def test_unsubscribe_stops_delivery(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        manager.unsubscribe("a")
        s = streams["P"]
        s.accumulate_final(TickRange(0, 2))
        s.accumulate_data(2, "m")
        manager.on_knowledge("P")
        assert services.deliveries == []

    def test_subscribe_requires_attached_stream(self):
        __, manager, __s = make_manager()
        with pytest.raises(KeyError):
            manager.subscribe(Subscription("a", pubends=("UNKNOWN",)))


class TestTotalOrder:
    def test_merged_delivery_waits_for_all_inputs(self):
        services, manager, streams = make_manager(pubends=("A", "B"))
        manager.subscribe(Subscription("t", pubends=("A", "B"), total_order=True))
        a, b = streams["A"], streams["B"]
        a.accumulate_final(TickRange(0, 4))
        a.accumulate_data(4, "a4")
        manager.on_knowledge("A")
        # B is still all-Q: nothing can be delivered in total order.
        assert services.deliveries == []
        b.accumulate_final(TickRange(0, 10))
        manager.on_knowledge("B")
        assert services.deliveries == [("t", "A", 4, "a4")]

    def test_merged_interleaving_by_tick(self):
        services, manager, streams = make_manager(pubends=("A", "B"))
        manager.subscribe(Subscription("t", pubends=("A", "B"), total_order=True))
        a, b = streams["A"], streams["B"]
        a.accumulate_final(TickRange(0, 2))
        a.accumulate_data(2, "a2")
        a.accumulate_final(TickRange(3, 9))
        b.accumulate_final(TickRange(0, 5))
        b.accumulate_data(5, "b5")
        b.accumulate_final(TickRange(6, 9))
        a.accumulate_data(9, "a9")
        manager.on_knowledge("A")
        manager.on_knowledge("B")
        assert [(d[2], d[3]) for d in services.deliveries] == [
            (2, "a2"),
            (5, "b5"),
            (9, "a9"),
        ]

    def test_two_total_order_subscribers_see_same_sequence(self):
        services, manager, streams = make_manager(pubends=("A", "B"))
        manager.subscribe(Subscription("t1", pubends=("A", "B"), total_order=True))
        manager.subscribe(Subscription("t2", pubends=("A", "B"), total_order=True))
        a, b = streams["A"], streams["B"]
        a.accumulate_final(TickRange(0, 3))
        a.accumulate_data(3, "x")
        b.accumulate_final(TickRange(0, 8))
        manager.on_knowledge("A")
        manager.on_knowledge("B")
        t1 = [(d[2], d[3]) for d in services.deliveries if d[0] == "t1"]
        t2 = [(d[2], d[3]) for d in services.deliveries if d[0] == "t2"]
        assert t1 == t2 == [(3, "x")]

    def test_ack_waits_for_merge_consumption(self):
        """A pubend may not be acked (and GC'd) past the merged horizon."""
        services, manager, streams = make_manager(pubends=("A", "B"))
        manager.subscribe(Subscription("t", pubends=("A", "B"), total_order=True))
        a, b = streams["A"], streams["B"]
        a.accumulate_final(TickRange(0, 4))
        a.accumulate_data(4, "a4")
        a.accumulate_final(TickRange(5, 20))
        manager.on_knowledge("A")
        # B has consumed nothing: no ack for A beyond 0.
        assert all(up == 0 for (p, up) in services.acks if p == "A") or not [
            x for x in services.acks if x[0] == "A"
        ]
        b.accumulate_final(TickRange(0, 20))
        manager.on_knowledge("B")
        assert ("A", 20) in services.acks or ("A", 21) in services.acks


class TestAcks:
    def test_ack_after_delivery(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 5))
        s.accumulate_data(5, "m")
        manager.on_knowledge("P")
        assert services.acks == [("P", 6)]

    def test_ack_is_monotone(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 5))
        manager.on_knowledge("P")
        s.accumulate_final(TickRange(5, 10))
        manager.on_knowledge("P")
        ups = [u for (__, u) in services.acks]
        assert ups == sorted(ups)

    def test_ack_garbage_collects_payloads(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 5))
        s.accumulate_data(5, "m")
        manager.on_knowledge("P")
        assert not s.knowledge.has_payload(5)  # finalized after ack


class TestGapCuriosity:
    def test_gct_then_nack(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 100))
        s.accumulate_data(100, "m")
        manager.on_knowledge("P")
        s.accumulate_data(200, "n")  # gap 101..199
        manager.on_knowledge("P")
        assert services.nacks == []  # GCT not expired yet
        services.advance(0.25)  # > GCT=0.2
        assert services.nacks
        ranges = [r for (__, rs) in services.nacks for r in rs]
        assert TickRange(101, 200) in ranges

    def test_gap_resolved_before_gct_sends_nothing(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 100))
        s.accumulate_data(100, "m")
        s.accumulate_data(200, "n")
        manager.on_knowledge("P")
        s.accumulate_final(TickRange(101, 200))  # gap filled quickly
        manager.on_knowledge("P")
        services.advance(0.5)
        assert services.nacks == []

    def test_nack_chopping(self):
        params = PARAMS.with_(nack_chop=50)
        services, manager, streams = make_manager(params=params)
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_data(0, "m")
        s.accumulate_data(200, "n")  # 199-tick gap
        manager.on_knowledge("P")
        services.advance(0.25)
        assert len(services.nacks) == 4  # 199 ticks / 50 per nack
        total = sum(len(r) for (__, rs) in services.nacks for r in rs)
        assert total == 199

    def test_nrt_repetition_until_satisfied(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_data(0, "m")
        s.accumulate_data(100, "n")
        manager.on_knowledge("P")
        services.advance(0.25)
        first_count = len(services.nacks)
        assert first_count >= 1
        services.advance(1.0)  # NRT >= 0.6 elapses unanswered
        assert len(services.nacks) > first_count
        # satisfy the gap: repetitions stop
        s.accumulate_final(TickRange(1, 100))
        manager.on_knowledge("P")
        settled = len(services.nacks)
        services.advance(5.0)
        assert len(services.nacks) == settled

    def test_no_duplicate_tracking_of_same_gap(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_data(0, "m")
        s.accumulate_data(100, "n")
        manager.on_knowledge("P")
        manager.on_knowledge("P")
        manager.on_knowledge("P")
        services.advance(0.25)
        ticks = sum(len(r) for (__, rs) in services.nacks for r in rs)
        assert ticks == 99  # gap nacked once, not three times


class TestAckExpected:
    def test_probes_trigger_immediate_nacks(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        # The subend knows nothing; the pubend expects acks up to 500.
        manager.on_ack_expected("P", 500)
        assert services.nacks
        total = sum(len(r) for (__, rs) in services.nacks for r in rs)
        assert total == 500

    def test_probe_skips_known_ticks(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 400))
        manager.on_knowledge("P")
        manager.on_ack_expected("P", 500)
        total = sum(len(r) for (__, rs) in services.nacks for r in rs)
        assert total == 100  # only 400..499

    def test_probe_for_unknown_pubend_ignored(self):
        services, manager, __ = make_manager()
        manager.on_ack_expected("ZZZ", 100)
        assert services.nacks == []

    def test_probe_overrides_repetition_backoff(self):
        """Paper 3.2: a probe means 'immediately nack' — even for a gap
        whose own repetitions have exponentially backed off (the backoff
        exists for *down* pubends; the probe proves this one is alive)."""
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_data(0, "m")
        s.accumulate_data(100, "n")  # gap 1..99
        manager.on_knowledge("P")
        services.advance(0.25)  # GCT fires, nack sent
        # Let several unanswered repetitions back the record off.
        services.advance(10.0)
        count_backed_off = len(services.nacks)
        # A long quiet stretch: the next repetition is far in the future.
        services.advance(1.0)
        assert len(services.nacks) == count_backed_off
        manager.on_ack_expected("P", 100)
        assert len(services.nacks) > count_backed_off  # re-nacked NOW
        # And the new record repeats on the fresh (minimum) interval.
        before = len(services.nacks)
        services.advance(0.8)
        assert len(services.nacks) > before


class TestDct:
    def test_dct_disabled_by_default(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        services.time = 100.0
        manager.on_periodic()
        assert services.nacks == []

    def test_dct_nacks_when_horizon_trails(self):
        params = PARAMS.with_(dct=1.0)
        services, manager, streams = make_manager(params=params)
        manager.subscribe(Subscription("a", pubends=("P",)))
        services.time = 5.0
        manager.on_periodic()
        assert services.nacks
        hi = max(r.stop for (__, rs) in services.nacks for r in rs)
        assert hi == 4000  # now - DCT in ticks


def live_timers(services):
    return sum(1 for timer in services.timers if not timer.cancelled)


class TestCuriosityStream:
    """Curiosity is one interval map and one timer per pubend: what a gap
    costs is bounded by its runs, not by its length over ``nack_chop``."""

    def test_billion_tick_gap_is_one_timer_and_a_bounded_firing(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_data(10**9, "m")  # a D at 1e9 over an empty istream
        manager.on_knowledge("P")
        assert services.nacks == [] and live_timers(services) == 1
        per_firing = []
        while services.fire_next(10.0):  # GCT, then several NRT periods
            assert live_timers(services) <= 1
            per_firing.append(len(services.nacks) - sum(per_firing))
            assert len(per_firing) < 1_000, "curiosity timer spins"
        assert len(per_firing) >= 5
        assert max(per_firing) == NACK_PIECES_PER_FIRING
        # Lowest ticks first, whole nack_chop pieces.
        first = [r for (__, rs) in services.nacks[:NACK_PIECES_PER_FIRING] for r in rs]
        assert first == TickRange(0, NACK_PIECES_PER_FIRING * 500).split(500)
        s.accumulate_final(TickRange(0, 10**9))
        manager.on_knowledge("P")
        settled = len(services.nacks)
        assert live_timers(services) == 0
        services.advance(100.0)
        assert len(services.nacks) == settled
        assert manager.state_of("P").curiosity.run_count() == 0

    def test_probe_of_an_empty_istream_nacks_the_top_piece(self):
        services, manager, __ = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        manager.on_ack_expected("P", 35_800_000)
        assert services.nacks == [("P", [TickRange(35_799_500, 35_800_000)])]
        assert live_timers(services) == 1

    def test_probe_starts_at_the_first_known_tick(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        streams["P"].accumulate_data(10_000, "m")  # heard a late message only
        manager.on_ack_expected("P", 10_400)
        assert services.nacks == [("P", [TickRange(10_001, 10_400)])]

    def test_probe_resets_the_backoff_of_tracked_runs_only(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_data(0, "m")
        s.accumulate_data(100, "n")  # gap 1..99
        manager.on_knowledge("P")
        services.advance(10.0)  # GCT and backed-off repetitions
        curiosity = manager.state_of("P").curiosity
        assert curiosity.get(50).attempts > 2
        manager.on_ack_expected("P", 100)
        assert services.nacks[-1] == ("P", [TickRange(1, 100)])
        assert curiosity.get(50).attempts == 1
        assert live_timers(services) == 1

    @pytest.mark.parametrize("seed", range(40))
    def test_random_loss_and_fill(self, seed):
        """A publisher's stream reaches the subend with messages lost and
        reordered; each nack is answered (or lost) after a short delay."""
        rng = random.Random(seed)
        params = PARAMS.with_(nack_chop=rng.choice([20, 50, 500]))
        services, manager, streams = make_manager(params=params)
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        knowledge = s.knowledge
        truth = {}  # tick -> payload of the publications
        tick = 0
        while tick < 1_200:
            tick += rng.randint(1, 40)
            truth[tick] = f"m{tick}"
        events = []  # (time, seq, ranges to answer or a publication tick)
        prev = -1
        for i, t in enumerate(sorted(truth)):
            # 30% of first sends are lost; the last one arrives (losing
            # it is the AckExpected probe's case, not a gap).
            if rng.random() > 0.3 or t == tick:
                events.append((i * 0.02 + rng.uniform(0, 0.05), i, ("pub", prev + 1, t)))
            prev = t
        seq = len(events)
        first_q = {}  # tick -> time it was first seen as a gap
        nacked_at = {}  # tick -> time of its first nack

        def send_nack(pubend, ranges):
            nonlocal seq
            for r in ranges:
                assert knowledge.q_ranges(r.start, r.stop) == [r], f"{r} not all Q"
                for t in r:
                    nacked_at.setdefault(t, services.time)
            if rng.random() < 0.7:
                seq += 1
                events.append((services.time + rng.uniform(0.01, 0.1), seq, ("fill", ranges)))

        services.send_nack = send_nack

        def apply(event):
            if event[0] == "pub":
                __, lo, t = event
                if t > lo:
                    s.accumulate_final(TickRange(lo, t))
                s.accumulate_data(t, truth[t])
            else:
                for r in event[1]:
                    for lo, hi in _fill_pieces(r, truth):
                        s.accumulate_final(TickRange(lo, hi))
                    for t in r:
                        if t in truth:
                            s.accumulate_data(t, truth[t])
            manager.on_knowledge("P")
            for gap in knowledge.gaps():
                for t in gap:
                    first_q.setdefault(t, services.time)

        steps = 0
        while events or live_timers(services):
            steps += 1
            assert steps < 20_000, "curiosity timer spins"
            events.sort()
            next_event = events[0][0] if events else math.inf
            if not services.fire_next(next_event):
                when, __, event = events.pop(0)
                services.time = max(services.time, when)
                apply(event)
            assert live_timers(services) <= 1
            # Every tick still Q after GCT plus one repetition interval
            # has been nacked.
            grace = PARAMS.gct + PARAMS.nrt_min
            for gap in knowledge.gaps():
                for t in gap:
                    if services.time >= first_q.get(t, math.inf) + grace + 1e-9:
                        assert nacked_at.get(t, math.inf) <= services.time, (t, seed)
            if services.time > 60.0:
                break
        assert knowledge.gaps() == []
        assert [d[2] for d in services.deliveries] == sorted(truth)


def _fill_pieces(rng, truth):
    """The F pieces of a retransmission answering ``rng``."""
    lo = rng.start
    for t in sorted(x for x in truth if rng.start <= x < rng.stop):
        if t > lo:
            yield lo, t
        lo = t + 1
    if rng.stop > lo:
        yield lo, rng.stop


class TestResubscribe:
    """Tables are keyed by subscriber: subscribing an id again replaces
    its subscription — one entry, the new predicate, one delivery."""

    def test_publisher_order_resubscribe_delivers_once(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", pubends=("P",)))
        manager.subscribe(Subscription("a", pubends=("P",)))
        s = streams["P"]
        s.accumulate_final(TickRange(0, 5))
        s.accumulate_data(5, "m5")
        manager.on_knowledge("P")
        assert services.deliveries == [("a", "P", 5, "m5")]
        assert manager.delivered_count == 1
        assert len(manager.subscriptions_for("P")) == 1

    def test_resubscribe_changing_predicate_kind_drops_the_stale_one(self):
        services, manager, streams = make_manager()
        manager.subscribe(Subscription("a", parse("x = 1"), pubends=("P",)))
        opaque = Subscription("a", lambda p: p["x"] == 2, pubends=("P",))
        manager.subscribe(opaque)
        s = streams["P"]
        s.accumulate_data(0, {"x": 1})  # the replaced AST predicate's match
        s.accumulate_data(1, {"x": 2})
        manager.on_knowledge("P")
        assert [d[2] for d in services.deliveries] == [1]
        assert manager.subscriptions_for("P") == [opaque]
        # ... and back: the callable must not linger beside the tree entry.
        manager.subscribe(Subscription("a", parse("x = 1"), pubends=("P",)))
        s.accumulate_data(2, {"x": 2})
        s.accumulate_data(3, {"x": 1})
        manager.on_knowledge("P")
        assert [d[2] for d in services.deliveries] == [1, 3]

    def test_total_order_resubscribe_delivers_once(self):
        services, manager, streams = make_manager(pubends=("A", "B"))
        for _ in range(2):
            manager.subscribe(Subscription("t", pubends=("A", "B"), total_order=True))
        streams["A"].accumulate_data(0, "a0")
        streams["B"].accumulate_final(TickRange(0, 1))
        manager.on_knowledge("A")
        manager.on_knowledge("B")
        assert services.deliveries == [("t", "A", 0, "a0")]

    def test_last_member_of_total_order_group_leaves_and_returns(self):
        services, manager, streams = make_manager(pubends=("A", "B"))
        subscription = Subscription("t", pubends=("A", "B"), total_order=True)
        manager.subscribe(subscription)
        a, b = streams["A"], streams["B"]
        a.accumulate_data(0, "a0")
        b.accumulate_final(TickRange(0, 1))
        manager.on_knowledge("A")
        manager.on_knowledge("B")
        assert manager.unsubscribe("t") == subscription
        assert manager.unsubscribe("t") is None
        assert manager.subscriptions_for("A") == []
        # With the group gone nothing holds A's acks back to the merge.
        a.accumulate_data(1, "a1")
        manager.on_knowledge("A")
        assert services.acks[-1] == ("A", 2)
        manager.subscribe(subscription)
        assert manager.subscriptions_for("B") == [subscription]
        b.accumulate_data(1, "b1")
        a.accumulate_final(TickRange(2, 3))
        manager.on_knowledge("B")
        manager.on_knowledge("A")
        assert [d[1:] for d in services.deliveries] == [("A", 0, "a0"), ("B", 1, "b1")]


# --- differential: the subscription index against "ask every candidate" -------

PREDICATE_KINDS = {
    "equality": lambda g, s, x: parse(f"group = {g}"),
    "equality+range": lambda g, s, x: parse(f"group = {g} and price >= {x}"),
    "conjunction": lambda g, s, x: parse(
        f"group = {g} and symbol = '{s}' and price < {x}"
    ),
    "or (tree fallback)": lambda g, s, x: parse(f"group = {g} or symbol = '{s}'"),
    "opaque": lambda g, s, x: lambda p: isinstance(p, Mapping) and p.get("group") == g,
    "opaque, any payload": lambda g, s, x: lambda p: p == "raw" or x < 3,
    "match-all": lambda g, s, x: MATCH_ALL,
}


def accepts(subscription, payload):
    """The oracle: one subscription's own verdict on one payload."""
    predicate = subscription.predicate
    if isinstance(predicate, AstPredicate):
        return isinstance(payload, Mapping) and predicate.evaluate(payload)
    return bool(predicate(payload))


def subend_keys(subscription):
    """The candidate sets the subend files a subscription under: its
    pubends, or the one merge of them."""
    if subscription.total_order:
        return (tuple(sorted(subscription.pubends)),)
    return subscription.pubends


class TestIndexDifferential:
    """Random subscribe / unsubscribe / re-subscribe steps and payloads;
    after each step the subend and the baselines' index (one candidate
    set per pubend, as ``BaselineBroker.add_subscription`` fills it) must
    serve exactly the subscriptions the oracle names — evaluate every
    candidate's predicate, in subscription order — in that order."""

    def test_same_subscriptions_in_the_same_order(self):
        arms = Counter()
        for seed in range(12):
            self.run_seed(random.Random(seed), arms)
        for arm in (
            *PREDICATE_KINDS,
            "non-mapping payload",
            "matched but not a candidate",
            "sorted",
            "publisher order",
            "total order",
        ):
            assert arms[arm] > 0, f"arm never taken: {arm}"

    def run_seed(self, rng, arms):
        services, manager, streams = make_manager(pubends=("A", "B"))
        fanout = SubscriptionIndex()  # no unsubscribe: sees the subscribes only
        #: subscriber -> subscription, in subscription order (the model).
        live, fan_live = {}, {}
        kind_of = {}
        horizon = 0
        for _ in range(150):
            name = f"s{rng.randrange(14)}"
            if rng.random() < 0.3:
                assert manager.unsubscribe(name) == live.pop(name, None)
            else:
                kind = rng.choice(list(PREDICATE_KINDS))
                subscription = Subscription(
                    name,
                    PREDICATE_KINDS[kind](
                        rng.randrange(3), rng.choice("AB"), rng.randrange(6)
                    ),
                    pubends=rng.choice([("A",), ("B",), ("A", "B")]),
                    total_order=rng.random() < 0.3,
                )
                kind_of[subscription] = kind
                manager.subscribe(subscription)
                fanout.add(subscription, subscription.pubends)
                for model in (live, fan_live):
                    model.pop(name, None)  # a re-subscribe goes to the back
                    model[name] = subscription

            source = rng.choice("AB")
            if rng.random() < 0.15:
                payload = rng.choice(["raw", 7])
                arms["non-mapping payload"] += 1
            else:
                payload = {
                    "group": rng.randrange(3),
                    "symbol": rng.choice("AB"),
                    "price": rng.randrange(6),
                }

            def oracle(model, keys_of, key):
                """Ask every member of candidate set ``key`` in turn."""
                members = [s for s in model.values() if key in keys_of(s)]
                hits = [s for s in members if accepts(s, payload)]
                arms.update(kind_of[s] for s in hits)
                arms["sorted"] += len(hits) > 1
                arms["matched but not a candidate"] += any(
                    isinstance(s.predicate, AstPredicate) and accepts(s, payload)
                    for s in model.values()
                    if s not in members
                )
                return hits

            assert fanout.match(source, payload) == oracle(
                fan_live, lambda s: s.pubends, source
            )

            # One D tick on ``source`` and silence on the other pubend, so
            # every merge's horizon passes the tick within this step.
            tick = horizon + rng.randrange(1, 3)
            for pubend, stream in streams.items():
                stream.accumulate_final(TickRange(horizon, tick))
                if pubend == source:
                    stream.accumulate_data(tick, payload)
                else:
                    stream.accumulate_final(TickRange(tick, tick + 1))
            horizon = tick + 1
            before = len(services.deliveries)
            manager.on_knowledge("A")
            manager.on_knowledge("B")

            served = {}
            for subscriber, pubend, at, body in services.deliveries[before:]:
                assert (pubend, at, body) == (source, tick, payload)
                subscription = live[subscriber]
                key = subend_keys(subscription)[0] if subscription.total_order else source
                served.setdefault(key, []).append(subscription)
            merges = {
                subend_keys(s)[0]
                for s in live.values()
                if s.total_order and source in s.pubends
            }
            expected = {key: oracle(live, subend_keys, key) for key in {source} | merges}
            assert served == {key: hits for key, hits in expected.items() if hits}
            arms["publisher order"] += bool(expected[source])
            arms["total order"] += any(expected[key] for key in merges)
            assert manager.delivered_count == len(services.deliveries)

            for pubend in streams:
                listed = manager.subscriptions_for(pubend)
                consumers = [s for s in live.values() if pubend in s.pubends]
                assert Counter(listed) == Counter(consumers)
                assert [s for s in listed if not s.total_order] == [
                    s for s in consumers if not s.total_order
                ]


HASH_ORDER_SCRIPT = """
import hashlib
from repro.topology import two_broker_topology
topo = two_broker_topology()
topo.pubend("P0", "phb")
topo.route("P0", "PHB", "SHB")
system = topo.build(seed=3)
for i in range(120):
    system.subscribe(f"sub{i}", "shb", ("P0",), f"g = {i % 4}")
publisher = system.publisher("P0", rate=100.0, make_attributes=lambda i: {"g": i % 4})
publisher.start(at=0.1)
system.run_until(1.5)
order = [(name, [(t, at) for (_, t, _, at) in client.received])
         for name, client in sorted(system.subscribers.items())]
assert sum(len(r) for _, r in order) > 3000
print(hashlib.sha256(repr(order).encode()).hexdigest())
"""


def test_fan_out_order_does_not_depend_on_the_hash_seed():
    """The tree returns a ``set`` of ``str``; who is served first within a
    tick (and so every client's receive time, the SHB's sends being
    serialised) must not move with ``PYTHONHASHSEED``.  Needs processes:
    ``repro fuzz --verify-deterministic`` re-runs inside one."""
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", HASH_ORDER_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1
