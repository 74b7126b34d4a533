"""End-to-end integrity of the checksummed FileLog (docs/PROTOCOL.md §8).

``test_filelog_recovery.py`` covers the torn *tail* — the classic crash
mid-append.  This module covers the rest of the integrity story:

* at-rest corruption (bit flips, mid-record tears) at *every* record
  position is detected by checksum, quarantined into the ``.quarantine``
  sidecar, and healed out of the log — idempotently;
* the bare JSON lines of the pre-checksum format are quarantined like
  any other record replay cannot verify;
* write-path faults (``FaultyFile``: disk full, torn write, failed
  fsync) surface as :class:`LogAppendError` with the file rolled back to
  the previous record boundary;
* a :class:`Pubend` whose append fails never advertises the tick — the
  "only logged messages are published" invariant under a sick disk.
"""

import json

import pytest

from repro.core.pubend import Pubend
from repro.obs.instruments import Instruments
from repro.storage import (
    FaultyFile,
    FileLog,
    LogAppendError,
    corrupt_log_file,
)
from repro.storage.log import LogEntry


def write_log(path, ticks=(1, 2, 3)):
    log = FileLog(str(path))
    for tick in ticks:
        log.append(LogEntry("P0", tick, {"n": tick}))
    log.close()


class TestAtRestCorruption:
    """Damage anywhere in the file — not just the tail — is detected,
    quarantined, and healed."""

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["bitflip", "torn"])
    def test_every_position_and_kind(self, tmp_path, index, mode):
        path = tmp_path / "p.log"
        write_log(path)
        assert corrupt_log_file(str(path), seed=7, record_index=index, mode=mode)

        log = FileLog(str(path))
        if mode == "bitflip":
            # Exactly the damaged record is lost.
            lost = {index + 1}
        else:
            # A tear drops the line's newline, fusing it with the next
            # line — two records' damage, one unverifiable fused line
            # (except at the last record, where there is no next line).
            lost = {index + 1, min(index + 2, 3)}
        assert [e.tick for e in log.entries("P0")] == [
            t for t in (1, 2, 3) if t not in lost
        ]
        assert log.quarantined == 1
        log.close()

    def test_quarantine_sidecar_names_offset_and_reason(self, tmp_path):
        path = tmp_path / "p.log"
        write_log(path)
        original = path.read_bytes().splitlines(keepends=True)
        corrupt_log_file(str(path), seed=3, record_index=1)

        FileLog(str(path)).close()
        lines = (path.parent / "p.log.quarantine").read_bytes().splitlines(
            keepends=True
        )
        header = json.loads(lines[0])
        assert header["op"] == "quarantined"
        assert header["offset"] == len(original[0])
        # The reason names what failed (crc / length / framing — the
        # seeded flip decides which field it hits).
        assert header["reason"]
        # The damaged raw bytes follow the header, preserved verbatim
        # for forensics; they differ from the original by the one flip.
        assert len(lines[1]) == len(original[1])
        assert lines[1] != original[1]

    def test_heal_is_idempotent_and_appends_resume(self, tmp_path):
        path = tmp_path / "p.log"
        write_log(path)
        corrupt_log_file(str(path), seed=5, record_index=1)

        log = FileLog(str(path))
        assert log.quarantined == 1
        log.close()
        # The heal rewrote the file: a second replay finds only verified
        # records and quarantines nothing more.
        log = FileLog(str(path))
        assert log.quarantined == 0
        assert [e.tick for e in log.entries("P0")] == [1, 3]
        log.append(LogEntry("P0", 4, {"n": 4}))
        log.close()
        log = FileLog(str(path))
        assert [e.tick for e in log.entries("P0")] == [1, 3, 4]
        log.close()

    def test_quarantine_counts_into_instruments(self, tmp_path):
        path = tmp_path / "p.log"
        write_log(path)
        corrupt_log_file(str(path), seed=1, record_index=0)

        instruments = Instruments()
        FileLog(str(path), instruments=instruments).close()
        assert instruments.total("log_records_quarantined") == 1


#: What the pre-checksum writer left on disk: one bare JSON object per
#: line.  Nothing can verify such a line, so replay quarantines it.
LEGACY_V1_LINES = (
    b'{"pubend": "P0", "tick": 1, "payload": {"n": 1}}\n',
    b'{"pubend": "P0", "tick": 2, "payload": {"n": 2}}\n',
    b'{"pubend": "P0", "tick": 3, "payload": {"n": 3}}\n',
)


class TestLegacyFormat:
    def test_v1_file_is_quarantined(self, tmp_path):
        path = tmp_path / "p.log"
        path.write_bytes(b"".join(LEGACY_V1_LINES))

        log = FileLog(str(path))
        assert log.entries("P0") == []
        assert log.quarantined == 3
        log.append(LogEntry("P0", 4, {"n": 4}))
        log.close()
        # The healed file holds checksummed records only; the bare lines
        # are kept in the sidecar for forensics.
        assert all(line.startswith(b"R2 ") for line in path.read_bytes().splitlines())
        sidecar = (tmp_path / "p.log.quarantine").read_bytes()
        assert all(line in sidecar for line in LEGACY_V1_LINES)
        log = FileLog(str(path))
        assert [e.tick for e in log.entries("P0")] == [4]
        assert log.quarantined == 0
        log.close()

    def test_corrupt_legacy_record_still_quarantined(self, tmp_path):
        # A mixed file: the checksummed records replay, and every bare
        # line — parseable or not — is quarantined, not fatal.
        path = tmp_path / "p.log"
        log = FileLog(str(path))
        log.append(LogEntry("P0", 1, {"n": 1}))
        log.close()
        raw = list(LEGACY_V1_LINES[1:])
        raw[0] = raw[0][: len(raw[0]) // 2] + b"#garbage\n"
        with open(path, "ab") as handle:
            handle.write(b"".join(raw))

        log = FileLog(str(path))
        assert [e.tick for e in log.entries("P0")] == [1]
        assert log.quarantined == 2
        log.close()


class TestWritePathFaults:
    def test_enospc_rolls_back_and_recovers(self, tmp_path):
        path = tmp_path / "p.log"
        log = FileLog(str(path))
        log.append(LogEntry("P0", 1, {"n": 1}))
        size_before = path.stat().st_size

        log.inject_fault("enospc")
        with pytest.raises(LogAppendError):
            log.append(LogEntry("P0", 2, {"n": 2}))
        # Neither on disk nor in memory — the record boundary held.
        assert path.stat().st_size == size_before
        assert [e.tick for e in log.entries("P0")] == [1]
        # The disk "recovers": the same tick can be retried.
        log.append(LogEntry("P0", 2, {"n": "2-retry"}))
        log.close()
        log = FileLog(str(path))
        assert [(e.tick, e.payload["n"]) for e in log.entries("P0")] == [
            (1, 1),
            (2, "2-retry"),
        ]
        assert log.quarantined == 0
        log.close()

    @pytest.mark.parametrize("fault", ["torn", "fsync"])
    def test_partial_or_unsynced_bytes_are_discarded(self, tmp_path, fault):
        # "torn" leaves half the record on disk before failing; "fsync"
        # leaves all of it, unsynced.  Either way the rollback truncates
        # to the previous boundary: durability was not promised.
        path = tmp_path / "p.log"
        log = FileLog(str(path))
        log.append(LogEntry("P0", 1, {"n": 1}))
        size_before = path.stat().st_size

        log.inject_fault(fault)
        with pytest.raises(LogAppendError):
            log.append(LogEntry("P0", 2, {"n": 2}))
        assert path.stat().st_size == size_before
        log.close()
        log = FileLog(str(path))
        assert [e.tick for e in log.entries("P0")] == [1]
        assert log.quarantined == 0
        log.close()

    def test_append_errors_count_into_instruments(self, tmp_path):
        instruments = Instruments()
        log = FileLog(str(tmp_path / "p.log"), instruments=instruments)
        log.inject_fault("enospc")
        with pytest.raises(LogAppendError):
            log.append(LogEntry("P0", 1, {"n": 1}))
        assert instruments.total("log_append_errors") == 1
        log.close()

    def test_faulty_file_disarms_after_firing(self, tmp_path):
        with open(tmp_path / "f.bin", "wb") as raw:
            fh = FaultyFile(raw)
            fh.arm("enospc")
            assert fh.armed() == ["enospc"]
            with pytest.raises(OSError):
                fh.write(b"x")
            assert fh.armed() == []
            assert fh.write(b"x") == 1
            assert fh.faults_injected == 1


class TestPubendNotAdvertised:
    def test_failed_append_publishes_nothing(self, tmp_path):
        instruments = Instruments()
        log = FileLog(str(tmp_path / "p.log"), instruments=instruments)
        pubend = Pubend("P0", log, instruments=instruments)
        pubend.publish({"n": 1}, now=0.1)
        horizon = pubend.horizon

        log.inject_fault("enospc")
        with pytest.raises(LogAppendError):
            pubend.publish({"n": 2}, now=0.2)
        # Nothing moved: no tick assigned, no publication
        # counted, nothing for downstream to learn about.
        assert pubend.horizon == horizon
        assert pubend.publish_count == 1
        assert len(log.entries("P0")) == 1
        assert instruments.total("repro_pubend_publish_failures_total") == 1

        # The retry publishes normally once the disk recovers.
        message = pubend.publish({"n": 2}, now=0.3)
        assert pubend.publish_count == 2
        assert message.data[0].payload == {"n": 2}
        log.close()
