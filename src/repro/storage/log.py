"""Stable storage for pubends.

The guaranteed-delivery protocol requires persistent storage *only at the
publishing broker* (paper sections 1-2): a pubend assigns each published
message a tick, logs it, and only logged messages are considered published.
Everything else in the system is soft state.

Two implementations are provided:

* :class:`MemoryLog` — an in-process log.  "Stable" relative to simulated
  broker crashes: the simulator keeps the log object alive across a crash
  and hands it back on restart, exactly as a disk would survive a process
  kill (the paper's failure injection kills the broker process).
* :class:`FileLog` — an append-only record file, crash-recoverable by
  replay, for the asyncio runtime and recovery tests.

``FileLog`` records are *checksummed*: each record line carries a CRC32
and an explicit length over its JSON payload (format tag ``R2``), so
replay verifies every record rather than trusting the file.  A record
that fails verification — a torn tail from a crash mid-write, or a bit
flipped at rest anywhere in the file — is **quarantined** into a
``<path>.quarantine`` sidecar and the file is atomically rewritten with
only the verified records, keeping the longest verifiable content.
Losing a record this way is safe for exactly-once semantics: either the
record was already acknowledged downstream (its data is delivered and
its tick finalized), or it was never acknowledged to the publisher and
recovery finalizes its tick as silence; in both cases the retransmit
protocol converges with zero duplicates.  A line without the ``R2``
header (such as the bare JSON of the pre-checksum format) cannot be
verified, so it is quarantined like any other such record.

Write-path failures are explicit: ``append`` raising
:class:`LogAppendError` (disk full, failed ``fsync``) leaves both the
in-memory index and the file at the previous record boundary, so the
pubend never advertises a tick whose record is not durable.

Both log classes model *group-commit latency*: ``commit_latency`` is the
delay between an append and the entry being durable.  The paper observes
a constant ~100 ms latency gap between guaranteed and best-effort
delivery caused by logging at the PHB; the latency model reproduces that
gap (see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.messages import _decode_payload, _encode_payload
from ..core.ticks import Tick
from ..obs.instruments import NULL_INSTRUMENTS

__all__ = [
    "LogEntry",
    "LogAppendError",
    "MessageLog",
    "MemoryLog",
    "FileLog",
]

#: Checksummed record prefix: ``R2 <crc32:08x> <len:08x> <payload>\n``.
RECORD_MAGIC = b"R2 "

# json.dumps(obj, separators=...) builds a fresh JSONEncoder per call;
# caching one keeps that cost off the append path.
_COMPACT_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


class LogAppendError(OSError):
    """A stable-log append could not be made durable (write/flush/fsync
    failure, e.g. a full disk).  The log rolls back to the previous
    record boundary before raising, so the failed entry is neither in
    memory nor on disk — the caller must treat the message as *not
    published*."""


@dataclass(frozen=True)
class LogEntry:
    """One logged publication: the assigned tick and the message payload."""

    pubend: str
    tick: Tick
    payload: Any

    def to_wire(self) -> Dict[str, Any]:
        return {
            "pubend": self.pubend,
            "tick": self.tick,
            "payload": _encode_payload(self.payload),
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "LogEntry":
        return cls(
            pubend=obj["pubend"],
            tick=obj["tick"],
            payload=_decode_payload(obj["payload"]),
        )


class MessageLog:
    """Interface of a pubend message log.

    Appends are ordered; ``commit_latency`` reports the configured delay
    between an append and durability (the caller — the PHB — schedules
    the downstream send after this delay).
    """

    #: Seconds between append and durability (group commit).
    commit_latency: float = 0.0

    def append(self, entry: LogEntry) -> None:
        raise NotImplementedError

    def entries(self, pubend: str) -> List[LogEntry]:
        """All durable entries for one pubend, in append order."""
        raise NotImplementedError

    def truncate(self, pubend: str, below_tick: Tick) -> int:
        """Discard entries with ``tick < below_tick``; returns count removed.

        Safe once the prefix is acknowledged by every downstream path.
        """
        raise NotImplementedError

    def last_tick(self, pubend: str) -> Optional[Tick]:
        """Tick of the newest durable entry for ``pubend``, if any."""
        entries = self.entries(pubend)
        return entries[-1].tick if entries else None

    def truncated_below(self, pubend: str) -> Tick:
        """The durable truncation point: all ticks below it were
        acknowledged by every downstream path before being discarded."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (no-op by default)."""

    def factory(self) -> Callable[[], "MessageLog"]:
        """How a hosting broker gets the log back after a crash.  The
        default hands back this same object: a disk that outlives the
        broker process (the simulator's model)."""
        return lambda: self


_entry_tick = attrgetter("tick")


class MemoryLog(MessageLog):
    """In-memory append-only log.

    Survives *simulated* crashes (a crash keeps the object),
    modelling a disk that outlives the broker process.
    """

    def __init__(self, commit_latency: float = 0.0):
        self.commit_latency = commit_latency
        self._entries: Dict[str, List[LogEntry]] = {}
        self._truncated_below: Dict[str, Tick] = {}
        self.append_count = 0

    def append(self, entry: LogEntry) -> None:
        bucket = self._entries.setdefault(entry.pubend, [])
        if bucket and entry.tick <= bucket[-1].tick:
            raise ValueError(
                f"non-monotonic append for {entry.pubend}: "
                f"{entry.tick} after {bucket[-1].tick}"
            )
        bucket.append(entry)
        self.append_count += 1

    def entries(self, pubend: str) -> List[LogEntry]:
        return list(self._entries.get(pubend, []))

    def truncate(self, pubend: str, below_tick: Tick) -> int:
        # append keeps ticks strictly increasing: bisect, then trim the front.
        bucket = self._entries.setdefault(pubend, [])
        removed = bisect_left(bucket, below_tick, key=_entry_tick)
        del bucket[:removed]
        previous = self._truncated_below.get(pubend, 0)
        self._truncated_below[pubend] = max(previous, below_tick)
        return removed

    def truncated_below(self, pubend: str) -> Tick:
        return self._truncated_below.get(pubend, 0)

    def pubends(self) -> List[str]:
        return sorted(self._entries)


class FileLog(MessageLog):
    """Append-only checksummed record file with replay-based recovery.

    Each appended entry is written as one framed line —
    ``R2 <crc32:08x> <len:08x> <compact JSON>`` — flushed, and fsynced.
    On open, existing content is replayed to rebuild the in-memory
    index, verifying every record's length framing and CRC32; corrupt
    or torn records *anywhere* in the file are quarantined into
    ``<path>.quarantine`` and the file is rewritten with the surviving
    verified records (see the module docstring for why this is safe).
    Truncation is logical (a framed truncation marker), and nothing
    rewrites the file to drop dead entries.

    ``file_wrapper`` wraps the freshly opened binary append handle —
    the hook :class:`~repro.storage.faults.FaultyFile` uses to inject
    write-path faults; :meth:`inject_fault` arms one on a live log.
    Corruption events feed the ``log_records_quarantined`` and
    ``log_append_errors`` counters of ``instruments``.
    """

    def __init__(
        self,
        path: str,
        commit_latency: float = 0.0,
        *,
        file_wrapper: Optional[Callable[[Any], Any]] = None,
        instruments: Any = NULL_INSTRUMENTS,
    ):
        self.path = path
        self.commit_latency = commit_latency
        self._file_wrapper = file_wrapper
        self._instruments = instruments
        self._m_quarantined = instruments.counter(
            "log_records_quarantined",
            help="Corrupt or torn log records quarantined during replay.",
        )
        self._m_append_errors = instruments.counter(
            "log_append_errors",
            help="Stable-log appends that failed to become durable "
            "(write/flush/fsync errors).",
        )
        #: Records quarantined by this instance's replays.
        self.quarantined = 0
        self._entries: Dict[str, List[LogEntry]] = {}
        self._truncated_below: Dict[str, Tick] = {}
        self._size = 0
        self._replay()
        self._fh = self._open()

    # -- file plumbing ----------------------------------------------------

    def _open(self) -> Any:
        fh = open(self.path, "ab")
        if self._file_wrapper is not None:
            fh = self._file_wrapper(fh)
        return fh

    def factory(self) -> Callable[[], "FileLog"]:
        """A reconstructor preserving this log's configuration — what a
        hosting broker stores so restart() reopens the same file with
        the same wrapper and instruments (crash realism: the handle dies
        with the broker, the file and its configuration survive)."""
        path, latency = self.path, self.commit_latency
        wrapper, instruments = self._file_wrapper, self._instruments
        return lambda: FileLog(
            path,
            commit_latency=latency,
            file_wrapper=wrapper,
            instruments=instruments,
        )

    def inject_fault(self, mode: str) -> None:
        """Arm a one-shot write-path fault (``"enospc"``, ``"torn"``,
        ``"fsync"``) on the live handle via a
        :class:`~repro.storage.faults.FaultyFile` wrapper."""
        from .faults import FaultyFile

        if not isinstance(self._fh, FaultyFile):
            self._fh = FaultyFile(self._fh)
        self._fh.arm(mode)

    # -- record framing ---------------------------------------------------

    def _encode_record(self, obj: Dict[str, Any]) -> bytes:
        payload = _COMPACT_ENCODE(obj).encode("utf-8")
        return b"R2 %08x %08x %s\n" % (
            zlib.crc32(payload),
            len(payload),
            payload,
        )

    @staticmethod
    def _parse_line(line: bytes) -> Tuple[Optional[Dict[str, Any]], str]:
        """``(parsed record, "")`` or ``(None, reason)`` for one raw line."""
        stripped = line.strip()
        if not stripped.startswith(RECORD_MAGIC):
            return None, "no checksummed record header"
        if not line.endswith(b"\n"):
            return None, "torn checksummed record (no terminator)"
        # R2 <crc:8 hex> <len:8 hex> <payload>
        if len(stripped) < 21 or stripped[11:12] != b" " or stripped[20:21] != b" ":
            return None, "malformed record header"
        try:
            crc = int(stripped[3:11], 16)
            length = int(stripped[12:20], 16)
        except ValueError:
            return None, "malformed record header"
        payload = stripped[21:]
        if len(payload) != length:
            return None, f"length mismatch ({len(payload)} != declared {length})"
        if zlib.crc32(payload) != crc:
            return None, "crc32 mismatch"
        try:
            return json.loads(payload.decode("utf-8")), ""
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None, "unparseable payload despite matching crc"

    # -- replay -----------------------------------------------------------

    def _replay(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            raw = fh.read()
        self._size = len(raw)
        good: List[bytes] = []
        bad: List[Tuple[int, bytes, str]] = []
        offset = 0
        for line in raw.splitlines(keepends=True):
            if line.strip():
                obj, reason = self._parse_line(line)
                if obj is not None:
                    try:
                        self._apply(obj)
                    except (KeyError, TypeError, ValueError) as exc:
                        obj, reason = None, f"unreplayable record: {exc}"
                if obj is not None:
                    good.append(line)
                else:
                    bad.append((offset, line, reason))
            offset += len(line)
        if bad:
            self._quarantine(bad)
            self._heal(good)

    def _apply(self, obj: Dict[str, Any]) -> None:
        if obj.get("op") == "truncate":
            self._apply_truncate(obj["pubend"], obj["below"])
        else:
            entry = LogEntry.from_wire(obj)
            self._entries.setdefault(entry.pubend, []).append(entry)

    def _quarantine(self, bad: List[Tuple[int, bytes, str]]) -> None:
        """Append each unverifiable record's raw bytes (with a JSON
        header naming its original offset and failure) to the sidecar."""
        with open(self.path + ".quarantine", "ab") as out:
            for offset, line, reason in bad:
                out.write(
                    json.dumps(
                        {"op": "quarantined", "offset": offset, "reason": reason}
                    ).encode("utf-8")
                    + b"\n"
                )
                out.write(line if line.endswith(b"\n") else line + b"\n")
        self.quarantined += len(bad)
        self._m_quarantined.inc(len(bad))

    def _heal(self, good: List[bytes]) -> None:
        """Atomically rewrite the file with only the verified records, so
        the damage cannot shadow future appends or re-quarantine on the
        next replay."""
        tmp_path = self.path + ".rewrite"
        with open(tmp_path, "wb") as out:
            for line in good:
                out.write(line if line.endswith(b"\n") else line + b"\n")
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_path, self.path)
        self._size = os.path.getsize(self.path)

    def _apply_truncate(self, pubend: str, below: Tick) -> int:
        bucket = self._entries.get(pubend, [])
        keep = [e for e in bucket if e.tick >= below]
        removed = len(bucket) - len(keep)
        self._entries[pubend] = keep
        previous = self._truncated_below.get(pubend, 0)
        self._truncated_below[pubend] = max(previous, below)
        return removed

    # -- writes -----------------------------------------------------------

    def _fsync(self) -> None:
        fsync = getattr(self._fh, "fsync", None)
        if fsync is not None:
            fsync()  # FaultyFile interposes here
        else:
            os.fsync(self._fh.fileno())

    def _commit(self, record: bytes, sync: bool = True) -> None:
        """Write one framed record; on any OS failure roll the file back
        to the previous record boundary and raise LogAppendError."""
        pos = self._size
        try:
            self._fh.write(record)
            self._fh.flush()
            if sync:
                self._fsync()
        except OSError as exc:
            self._m_append_errors.inc()
            self._rollback(pos)
            raise LogAppendError(
                f"stable log append failed for {self.path}: {exc}"
            ) from exc
        self._size = pos + len(record)

    def _rollback(self, pos: int) -> None:
        """Discard partial bytes (on disk or still buffered) after a
        failed commit: drop the handle, truncate to the last good record
        boundary, reopen.  Best-effort — a disk too sick to truncate
        still gets the next replay's quarantine as a backstop."""
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            os.truncate(self.path, pos)
            self._size = pos
        except OSError:
            pass
        self._fh = self._open()

    def append(self, entry: LogEntry) -> None:
        bucket = self._entries.setdefault(entry.pubend, [])
        if bucket and entry.tick <= bucket[-1].tick:
            raise ValueError(
                f"non-monotonic append for {entry.pubend}: "
                f"{entry.tick} after {bucket[-1].tick}"
            )
        self._commit(self._encode_record(entry.to_wire()))
        bucket.append(entry)

    def entries(self, pubend: str) -> List[LogEntry]:
        return list(self._entries.get(pubend, []))

    def truncate(self, pubend: str, below_tick: Tick) -> int:
        removed = self._apply_truncate(pubend, below_tick)
        try:
            self._commit(
                self._encode_record(
                    {"op": "truncate", "pubend": pubend, "below": below_tick}
                ),
                sync=False,
            )
        except LogAppendError:
            # Unlike a data append, a truncation marker's durability is
            # optional: losing it only means recovery reverts to an
            # older acked prefix and retransmits more — conservative,
            # never lossy.  The failure is still counted
            # (log_append_errors) by _commit.
            pass
        return removed

    def truncated_below(self, pubend: str) -> Tick:
        return self._truncated_below.get(pubend, 0)

    def pubends(self) -> List[str]:
        return sorted(self._entries)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
