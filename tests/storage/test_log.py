"""Unit tests for stable-storage message logs, including crash recovery."""

import pytest

from repro.storage.log import FileLog, LogEntry, MemoryLog


class TestMemoryLog:
    def test_append_and_read(self):
        log = MemoryLog()
        log.append(LogEntry("P", 5, "a"))
        log.append(LogEntry("P", 9, "b"))
        assert [e.tick for e in log.entries("P")] == [5, 9]
        assert log.last_tick("P") == 9

    def test_rejects_non_monotonic(self):
        log = MemoryLog()
        log.append(LogEntry("P", 5, "a"))
        with pytest.raises(ValueError):
            log.append(LogEntry("P", 5, "b"))
        with pytest.raises(ValueError):
            log.append(LogEntry("P", 4, "c"))

    def test_pubends_are_independent(self):
        log = MemoryLog()
        log.append(LogEntry("A", 5, "a"))
        log.append(LogEntry("B", 2, "b"))
        assert log.last_tick("A") == 5
        assert log.last_tick("B") == 2
        assert log.pubends() == ["A", "B"]

    def test_truncate(self):
        log = MemoryLog()
        for tick in (1, 5, 9):
            log.append(LogEntry("P", tick, tick))
        removed = log.truncate("P", 6)
        assert removed == 2
        assert [e.tick for e in log.entries("P")] == [9]
        assert log.truncated_below("P") == 6

    def test_truncate_in_steps_trims_only_the_front(self):
        log = MemoryLog()
        originals = [LogEntry("P", 3 * i + 1, i) for i in range(5000)]
        for entry in originals:
            log.append(entry)
        for step in range(1, 51):
            below = 300 * step  # ticks 1, 4, 7, ...: 100 entries per step
            assert log.truncate("P", below) == 100
            assert log.truncate("P", below) == 0
            assert log.truncated_below("P") == below
            survivors = log.entries("P")
            assert len(survivors) == 5000 - 100 * step
            assert all(a is b for a, b in zip(survivors, originals[100 * step:]))
        assert log.entries("P") == []
        assert log.truncate("P", 10) == 0
        assert log.truncated_below("P") == 15000

    def test_truncation_point_is_monotone(self):
        log = MemoryLog()
        log.append(LogEntry("P", 10, "x"))
        log.truncate("P", 8)
        log.truncate("P", 3)
        assert log.truncated_below("P") == 8

    def test_empty_log(self):
        log = MemoryLog()
        assert log.entries("P") == []
        assert log.last_tick("P") is None
        assert log.truncated_below("P") == 0

    def test_commit_latency_configurable(self):
        assert MemoryLog(commit_latency=0.1).commit_latency == 0.1


class TestFileLog:
    def test_append_and_recover(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = FileLog(path)
        log.append(LogEntry("P", 5, {"k": "v"}))
        log.append(LogEntry("P", 9, "b"))
        log.close()
        recovered = FileLog(path)
        entries = recovered.entries("P")
        assert [e.tick for e in entries] == [5, 9]
        assert entries[0].payload == {"k": "v"}
        recovered.close()

    def test_rejects_non_monotonic(self, tmp_path):
        log = FileLog(str(tmp_path / "log.jsonl"))
        log.append(LogEntry("P", 5, "a"))
        with pytest.raises(ValueError):
            log.append(LogEntry("P", 5, "b"))
        log.close()

    def test_truncate_survives_restart(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = FileLog(path)
        log.append(LogEntry("P", 5, "a"))
        log.append(LogEntry("P", 9, "b"))
        log.truncate("P", 6)
        log.close()
        recovered = FileLog(path)
        assert [e.tick for e in recovered.entries("P")] == [9]
        assert recovered.truncated_below("P") == 6
        recovered.close()

    def test_torn_tail_is_discarded(self, tmp_path):
        """A crash mid-append leaves a torn final line: everything durable
        before it must recover, the torn entry is gone (never acked)."""
        path = str(tmp_path / "log.jsonl")
        log = FileLog(path)
        log.append(LogEntry("P", 5, "a"))
        log.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"pubend": "P", "tick": 9, "payl')  # torn write
        recovered = FileLog(path)
        assert [e.tick for e in recovered.entries("P")] == [5]
        recovered.close()

    def test_append_after_recovery_continues(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = FileLog(path)
        log.append(LogEntry("P", 5, "a"))
        log.close()
        recovered = FileLog(path)
        recovered.append(LogEntry("P", 8, "b"))
        recovered.close()
        final = FileLog(path)
        assert [e.tick for e in final.entries("P")] == [5, 8]
        final.close()

    def test_fresh_file(self, tmp_path):
        log = FileLog(str(tmp_path / "new.jsonl"))
        assert log.entries("P") == []
        log.close()
