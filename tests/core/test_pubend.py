"""Unit tests for the pubend: tick assignment, logging, silence, AET,
retransmission, and crash recovery.

The pubend stores no knowledge stream — its log *is* the stream — so the
stream-shape, silence-finality, ack and recovery assertions read the
istream of a PHB engine hosting it, the one materialised copy.
"""

import random

import pytest

from repro.broker.engine import BrokerServices, GDBrokerEngine
from repro.broker.state import BrokerTopologyInfo, Envelope, PubendRoute
from repro.core.config import LivenessParams
from repro.core.edges import FilterEdge, MATCH_ALL
from repro.core.lattice import K
from repro.core.messages import AckMessage
from repro.core.pubend import Pubend
from repro.core.ticks import TickRange
from repro.storage.log import MemoryLog


def make_pubend(**kw):
    return Pubend("P", MemoryLog(), **kw)


class _Services(BrokerServices):
    """Settable clock; timers and sends go nowhere."""

    time = 0.0

    def now(self):
        return self.time

    def schedule(self, delay, fn):
        return None

    def send(self, dst, message, size=100):
        return True


# One downstream path (b1) that never acks by itself, so the unacked
# window stays D until a test acks it.
PHB_TOPO = BrokerTopologyInfo(
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


def host(pubend):
    """A PHB engine hosting ``pubend`` (replays its log into the istream)."""
    engine = GDBrokerEngine(PHB_TOPO, LivenessParams(), _Services())
    engine.host_pubend(pubend)
    return engine


def knowledge(engine):
    return engine.istreams["P"].stream.knowledge


def publish_at(engine, payload, now):
    engine.services.time = now
    return engine.publish("P", payload)


class TestTickAssignment:
    def test_tick_at_or_after_now(self):
        pb = make_pubend()
        assert pb.assign_tick(1.5) >= 1500

    def test_ticks_strictly_increase(self):
        pb = make_pubend()
        t1 = pb.publish("a", 1.0).data[0].tick
        t2 = pb.publish("b", 1.0).data[0].tick  # same instant
        assert t2 > t1

    def test_slot_congruence(self):
        pb = Pubend("P", MemoryLog(), slot=3, n_slots=4)
        for i in range(5):
            tick = pb.publish(f"m{i}", 1.0 + i * 0.0001).data[0].tick
            assert tick % 4 == 3

    def test_slot_validation(self):
        with pytest.raises(ValueError):
            Pubend("P", MemoryLog(), slot=4, n_slots=4)

    def test_distinct_slots_never_collide(self):
        a = Pubend("A", MemoryLog(), slot=0, n_slots=2)
        b = Pubend("B", MemoryLog(), slot=1, n_slots=2)
        ticks_a = {a.publish(i, 2.0).data[0].tick for i in range(20)}
        ticks_b = {b.publish(i, 2.0).data[0].tick for i in range(20)}
        assert not ticks_a & ticks_b


class TestPublish:
    def test_message_has_paper_form(self):
        """F*Q*F*DF*Q*: final prefix + bracketing F + single D."""
        pb = make_pubend()
        pb.publish("a", 1.0)
        msg = pb.publish("b", 2.0)
        assert len(msg.data) == 1
        tick = msg.data[0].tick
        # The bracket finalizes everything between the two D ticks.
        assert any(r.stop == tick for r in msg.f_ranges)

    def test_publish_logs_before_returning(self):
        log = MemoryLog()
        pb = Pubend("P", log)
        msg = pb.publish("hello", 1.0)
        entries = log.entries("P")
        assert len(entries) == 1
        assert entries[0].tick == msg.data[0].tick
        assert entries[0].payload == "hello"

    def test_stream_form_is_prefix_then_data(self):
        """Stream shape F* [D|F]* Q* from section 2.2."""
        pb = make_pubend()
        engine = host(pb)
        ticks = [publish_at(engine, f"m{i}", 1.0 + 0.1 * i) for i in range(3)]
        stream = knowledge(engine)
        assert stream.horizon() == pb.horizon == ticks[-1] + 1
        for t in range(pb.horizon):
            assert stream.value_at(t) == (K.D if t in ticks else K.F)
        assert stream.value_at(pb.horizon) == K.Q


class TestSilence:
    def test_no_silence_when_recent(self):
        pb = make_pubend(silence_interval=0.5)
        pb.publish("a", 1.0)
        assert pb.maybe_silence(1.2) is None

    def test_silence_finalizes_idle_range(self):
        pb = make_pubend(silence_interval=0.5)
        engine = host(pb)
        publish_at(engine, "a", 1.0)
        horizon = pb.horizon
        msg = pb.maybe_silence(2.0)
        assert msg is not None
        assert msg.is_silence
        assert msg.f_ranges == (TickRange(horizon, 2000),)
        assert pb.horizon == 2000
        engine.on_envelope("", Envelope(msg))
        assert knowledge(engine).value_at(1800) == K.F
        assert knowledge(engine).horizon() == 2000

    def test_publish_after_silence_never_collides(self):
        pb = make_pubend(silence_interval=0.1)
        pb.publish("a", 1.0)
        pb.maybe_silence(2.0)
        msg = pb.publish("b", 1.5)  # clock skew: "now" before silence end
        assert msg.data[0].tick >= 2000


class TestAckAndAet:
    def test_record_ack_truncates_log(self):
        log = MemoryLog()
        pb = Pubend("P", log)
        engine = host(pb)
        tick = publish_at(engine, "a", 1.0)
        assert knowledge(engine).value_at(tick) == K.D
        # The only downstream path acks: consolidation reaches record_ack.
        engine.on_envelope("b1", Envelope(AckMessage("P", tick + 1)))
        assert pb.acked_up_to == tick + 1
        assert not pb.record_ack(tick + 1)
        assert log.entries("P") == []
        assert log.truncated_below("P") == tick + 1
        assert knowledge(engine).value_at(tick) == K.F

    def test_record_ack_monotone(self):
        pb = make_pubend()
        pb.publish("a", 1.0)
        assert pb.record_ack(500)
        assert not pb.record_ack(400)

    def test_record_ack_past_horizon_raises_horizon(self):
        """A restart forgets the pre-assigned window; an ack that covers
        it must not let a later tick land below the acked prefix."""
        pb = make_pubend()
        tick = pb.publish("a", 1.0).data[0].tick
        assert pb.record_ack(tick + 500)
        assert pb.horizon == tick + 500
        assert pb.assign_tick(1.0) >= tick + 500

    def test_aet_quiet_when_acked(self):
        pb = make_pubend(aet=10.0)
        msg = pb.publish("a", 1.0)
        pb.record_ack(msg.data[0].tick + 1)
        assert pb.ack_expected_tick(100.0) is None

    def test_aet_fires_for_old_unacked(self):
        pb = make_pubend(aet=10.0)
        pb.publish("a", 1.0)
        assert pb.ack_expected_tick(5.0) is None  # not old enough
        threshold = pb.ack_expected_tick(20.0)
        assert threshold is not None

    def test_aet_capped_at_horizon(self):
        """After recovery the probe carries the last logged tick, not
        wall-clock time (paper Figure 8)."""
        pb = make_pubend(aet=10.0)
        pb.publish("a", 1.0)
        assert pb.ack_expected_tick(1000.0) == pb.horizon


class TestRetransmission:
    def test_answers_d_and_f(self):
        pb = make_pubend()
        m1 = pb.publish("a", 1.0)
        m2 = pb.publish("b", 2.0)
        t1, t2 = m1.data[0].tick, m2.data[0].tick
        out = pb.retransmission([TickRange(0, t2 + 1)])
        assert out is not None
        assert out.retransmit
        assert [d.tick for d in out.data] == [t1, t2]
        assert out.f_ranges  # the silent gaps

    def test_unknown_future_stays_q(self):
        pb = make_pubend()
        pb.publish("a", 1.0)
        horizon = pb.horizon
        out = pb.retransmission([TickRange(horizon, horizon + 100)])
        assert out is None


class TestRecovery:
    def test_recover_replays_log(self):
        log = MemoryLog()
        pb = Pubend("P", log)
        ticks = [pb.publish(f"m{i}", 1.0 + i * 0.1).data[0].tick for i in range(5)]
        fresh = Pubend("P", log)
        stream = knowledge(host(fresh))
        for tick, i in zip(ticks, range(5)):
            assert stream.value_at(tick) == K.D
            assert stream.payload_at(tick) == f"m{i}"
        assert fresh.horizon == pb.horizon == stream.horizon()
        # Never truncated: everything below the first logged tick is final.
        assert fresh.acked_up_to == ticks[0] == stream.final_prefix()

    def test_recover_respects_truncation(self):
        log = MemoryLog()
        pb = Pubend("P", log)
        first = pb.publish("a", 1.0).data[0].tick
        second = pb.publish("b", 2.0).data[0].tick
        pb.record_ack(first + 1)
        fresh = Pubend("P", log)
        stream = knowledge(host(fresh))
        assert fresh.acked_up_to == first + 1
        assert stream.value_at(first) == K.F
        assert stream.value_at(second) == K.D

    def test_recover_empty_log(self):
        pb = Pubend("P", MemoryLog())
        assert pb.horizon == 0 and pb.acked_up_to == 0
        assert knowledge(host(pb)).horizon() == 0

    def test_recover_fully_drained_log(self):
        """No entries, only a truncation point: it is both integers."""
        log = MemoryLog()
        pb = Pubend("P", log)
        tick = pb.publish("a", 1.0).data[0].tick
        pb.record_ack(tick + 1)
        fresh = Pubend("P", log)
        assert fresh.acked_up_to == fresh.horizon == tick + 1
        stream = knowledge(host(fresh))
        assert stream.final_prefix() == stream.horizon() == tick + 1

    @pytest.mark.parametrize("restart_at", [30.0, 3_600.0, 86_400.0])
    def test_recovered_behind_the_host_clock_keeps_its_liveness(self, restart_at):
        """A log written at 10 days of host uptime, recovered on a host up
        for 30 s, an hour or a day: the tick clock continues past the log,
        so idle silence and the AckExpected probe come after one period,
        not once uptime passes the old horizon."""
        log = Pubend("P", MemoryLog()).log
        tick = Pubend("P", log).publish("a", 864_000.0).data[0].tick
        fresh = Pubend("P", log, aet=10.0, silence_interval=0.5)
        assert fresh.maybe_silence(restart_at) is None  # nothing idle yet
        later = restart_at + 11.0
        assert fresh.ack_expected_tick(later) == tick + 1  # probes the last log entry
        silence = fresh.maybe_silence(later)
        assert silence is not None
        assert silence.f_ranges[0] == TickRange(tick + 1, tick + 1 + 11_000)
        assert fresh.assign_tick(later + 1.0) > fresh.horizon > tick

    def test_tick_clock_rederives_when_now_steps_back(self):
        log = MemoryLog()
        tick = Pubend("P", log).publish("a", 100.0).data[0].tick
        fresh = Pubend("P", log)
        assert fresh.tick(200.0) == 200_000  # ahead of the log: offset 0
        assert fresh.tick(5.0) == fresh.horizon == tick + 1  # stepped back
        assert fresh.tick(6.0) == tick + 1 + 1_000


class TestReplayDifferential:
    """Hosting a pubend *is* replaying its log: for random histories a
    fresh engine over the same log holds what the live engine holds."""

    @pytest.mark.parametrize("seed", range(25))
    def test_fresh_host_equals_live_host(self, seed):
        rng = random.Random(seed)
        log = MemoryLog()
        live_pb = Pubend("P", log, silence_interval=0.05)
        live = host(live_pb)
        now, acked = 1.0, 0
        for step in range(rng.randint(0, 40)):
            now += rng.choice((0.0, 0.0005, 0.003, 0.2))
            op = rng.random()
            if op < 0.6:
                publish_at(live, {"n": step}, now)
            elif op < 0.8:
                msg = live_pb.maybe_silence(now)
                if msg is not None:
                    live.on_envelope("", Envelope(msg))
            else:
                acked = rng.randint(acked, live_pb.horizon)
                live.on_envelope("b1", Envelope(AckMessage("P", acked)))

        entries = log.entries("P")
        fresh_pb = Pubend("P", log)
        fresh = host(fresh_pb)

        # The rule: two integers, read off the log.
        expect_acked = log.truncated_below("P") or (
            entries[0].tick if entries else 0
        )
        expect_horizon = max(expect_acked, entries[-1].tick + 1 if entries else 0)
        assert fresh_pb.acked_up_to == expect_acked
        assert fresh_pb.horizon == expect_horizon
        assert fresh_pb.acked_up_to >= live_pb.acked_up_to
        assert fresh_pb.horizon <= live_pb.horizon  # trailing silence is soft

        # Below the replayed horizon the two istreams agree run for run.
        got, want = knowledge(fresh), knowledge(live)
        assert got.horizon() == expect_horizon
        assert list(got.iter_runs(0, expect_horizon)) == list(
            want.iter_runs(0, expect_horizon)
        )
        for entry in entries:
            assert got.payload_at(entry.tick) == want.payload_at(entry.tick)
            assert got.payload_at(entry.tick) == entry.payload
        got.check_invariants()

        # Ticks continue strictly past every logged one.
        logged = [entry.tick for entry in entries]
        assert fresh_pb.assign_tick(0.0) > max(logged, default=-1)
        assert publish_at(fresh, "next", 0.0) > max(logged, default=-1)
