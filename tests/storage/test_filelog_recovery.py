"""FileLog crash-recovery: the durability story behind the aio runtime.

``tests/storage/test_log.py`` pins the basic MessageLog contract; this
module covers the recovery paths the asyncio runtime leans on — Event
payloads surviving the wire format, torn tails from mid-write crashes,
replay being idempotent across repeated reopens, and a PHB engine
rebuilding a pubend's knowledge stream from a reopened log.
"""

import json

from repro.broker.engine import BrokerServices, GDBrokerEngine
from repro.broker.state import BrokerTopologyInfo
from repro.core.config import LivenessParams
from repro.core.lattice import K
from repro.core.pubend import Pubend
from repro.core.ticks import TickRange
from repro.matching.events import Event
from repro.storage.log import FileLog, LogEntry


def reopen(log: FileLog) -> FileLog:
    path = log.path
    log.close()
    return FileLog(path)


def replayed(pubend: Pubend):
    """The istream knowledge of a fresh PHB engine hosting ``pubend``
    (hosting replays the log; no route, so nothing else happens)."""
    topo = BrokerTopologyInfo(
        broker_id="phb",
        cell="PHB",
        neighbors=frozenset(),
        cell_of={"phb": "PHB"},
        brokers_of_cell={"PHB": ("phb",)},
        routes={},
    )
    engine = GDBrokerEngine(topo, LivenessParams(), BrokerServices())
    engine.host_pubend(pubend)
    return engine.istreams[pubend.pubend_id].stream.knowledge


class TestEventPayloads:
    def test_event_round_trips_through_replay(self, tmp_path):
        log = FileLog(str(tmp_path / "p.log"))
        event = Event({"sym": "IBM", "price": 104.5}, body=b"fill".decode())
        log.append(LogEntry("P0", 1, event))
        log.append(LogEntry("P0", 2, {"plain": "dict"}))

        log = reopen(log)
        first, second = log.entries("P0")
        assert isinstance(first.payload, Event)
        assert first.payload == event
        assert first.payload.body == event.body
        assert second.payload == {"plain": "dict"}
        log.close()

    def test_event_marker_is_explicit_on_disk(self, tmp_path):
        # The {"__event__": ...} marker is the recovery format; a plain
        # dict must never be mistaken for one.
        log = FileLog(str(tmp_path / "p.log"))
        log.append(LogEntry("P0", 1, Event({"g": 0})))
        log.close()
        lines = (tmp_path / "p.log").read_text().splitlines()
        # v2 framing: "R2 <crc:08x> <len:08x> <json payload>"
        assert lines[0].startswith("R2 ")
        assert "__event__" in json.loads(lines[0][21:])["payload"]


class TestTornTail:
    def test_torn_tail_dropped_then_appends_resume(self, tmp_path):
        path = tmp_path / "p.log"
        log = FileLog(str(path))
        log.append(LogEntry("P0", 1, {"n": 1}))
        log.append(LogEntry("P0", 2, {"n": 2}))
        log.close()

        # Crash mid-write: a partial JSON line at the end of the file.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"pubend": "P0", "tick": 3, "payl')

        log = FileLog(str(path))
        assert [e.tick for e in log.entries("P0")] == [1, 2]
        # Recovery resumes the sequence; the torn tick was never durable
        # so reusing it is legal.
        log.append(LogEntry("P0", 3, {"n": "3-retry"}))
        log = reopen(log)
        assert [e.tick for e in log.entries("P0")] == [1, 2, 3]
        assert log.entries("P0")[-1].payload == {"n": "3-retry"}
        log.close()


class TestIdempotentReplay:
    def test_repeated_reopen_is_stable(self, tmp_path):
        log = FileLog(str(tmp_path / "p.log"))
        for tick in (1, 2, 5):
            log.append(LogEntry("P0", tick, {"t": tick}))
        log.append(LogEntry("P1", 4, {"other": True}))
        log.truncate("P0", 2)

        first = reopen(log)
        snapshot = {p: first.entries(p) for p in first.pubends()}
        point = first.truncated_below("P0")
        second = reopen(first)
        assert {p: second.entries(p) for p in second.pubends()} == snapshot
        assert second.truncated_below("P0") == point == 2
        assert [e.tick for e in second.entries("P0")] == [2, 5]
        second.close()

class TestPubendRecovery:
    def test_pubend_rebuilds_stream_from_reopened_log(self, tmp_path):
        log = FileLog(str(tmp_path / "p.log"))
        pubend = Pubend("P0", log)
        for i in range(3):
            pubend.publish({"seq": i}, now=0.1 * i)
        published = [e.tick for e in log.entries("P0")]
        log.close()  # broker process dies; the file survives

        log = FileLog(str(tmp_path / "p.log"))
        recovered = Pubend("P0", log)
        knowledge = replayed(recovered)
        assert [e.tick for e in log.entries("P0")] == published
        assert knowledge.d_ticks(TickRange(0, recovered.horizon)) == [
            (tick, {"seq": i}) for i, tick in enumerate(published)
        ]
        assert knowledge.horizon() == recovered.horizon == published[-1] + 1
        # Post-recovery publishes continue past the replayed horizon.
        message = recovered.publish({"seq": 3}, now=1.0)
        assert message.data[-1].tick > max(published)
        log.close()

    def test_recover_honours_durable_truncation_point(self, tmp_path):
        log = FileLog(str(tmp_path / "p.log"))
        pubend = Pubend("P0", log)
        for i in range(4):
            pubend.publish({"seq": i}, now=0.1 * i)
        ticks = [e.tick for e in log.entries("P0")]
        log.truncate("P0", ticks[2])
        log.close()

        log = FileLog(str(tmp_path / "p.log"))
        recovered = Pubend("P0", log)
        assert recovered.acked_up_to == ticks[2]
        knowledge = replayed(recovered)
        assert knowledge.final_prefix() == ticks[2]
        assert [
            tick for tick, _ in knowledge.d_ticks(TickRange(0, recovered.horizon))
        ] == ticks[2:]
        assert knowledge.value_at(ticks[1]) == K.F
        log.close()
