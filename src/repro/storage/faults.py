"""Disk fault injection for stable-storage tests and chaos runs.

Two tools, matching the two ways real disks betray a log:

* :class:`FaultyFile` wraps the writable file handle a
  :class:`~repro.storage.log.FileLog` appends through and injects
  *write-path* faults on demand: a full disk (``ENOSPC`` before any byte
  lands), a torn write (a prefix of the record reaches the platter, then
  the write fails), or a failing ``fsync`` (the bytes are in the page
  cache but durability cannot be promised).  Each armed fault fires once
  and disarms, so a test can assert the append *after* the fault
  succeeds again.
* :func:`corrupt_log_file` models *at-rest* corruption: a seeded bit
  flip or mid-record tear applied to a closed log file, the way a bad
  sector or a partial block write damages a record long after it was
  acknowledged.  Replay must detect the damage by checksum
  (see ``FileLog._replay``), quarantine it, and recover everything else.

Both are deterministic under a seed, so a failing corruption schedule
reproduces.  On a running system they are the ``disk_full`` and
``corrupt_log`` fault verbs of :class:`~repro.aio.runtime.AioSystem`,
scheduled by :func:`repro.check.scenario.chaos_scenario`.
"""

from __future__ import annotations

import errno
import os
import random
from typing import List, Optional

__all__ = ["FaultyFile", "corrupt_log_file"]

#: Fault modes :meth:`FaultyFile.arm` accepts.
FAULT_MODES = ("enospc", "torn", "fsync")


class FaultyFile:
    """A writable (binary) file wrapper that injects one-shot faults.

    Pass-through until armed; then the next matching operation fails:

    * ``"enospc"`` — the next ``write()`` raises ``OSError(ENOSPC)``
      without writing anything (disk full detected up front).
    * ``"torn"`` — the next ``write()`` writes roughly half the data to
      the underlying file, then raises ``OSError(EIO)`` (power cut or
      full disk mid-record; the partial bytes are on disk).
    * ``"fsync"`` — the next ``fsync()`` raises ``OSError(EIO)`` (the
      write "succeeded" into the page cache but durability failed).

    ``faults_injected`` counts fired faults; armed faults disarm after
    firing so recovery paths can be asserted.
    """

    def __init__(self, fh, seed: int = 0):
        self._fh = fh
        self.rng = random.Random(seed)
        self._armed: List[str] = []
        self.faults_injected = 0

    # -- fault control ----------------------------------------------------

    def arm(self, mode: str) -> None:
        if mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {mode!r}; known: {FAULT_MODES}"
            )
        self._armed.append(mode)

    def armed(self) -> List[str]:
        return list(self._armed)

    def _take(self, *modes: str) -> Optional[str]:
        for mode in modes:
            if mode in self._armed:
                self._armed.remove(mode)
                self.faults_injected += 1
                return mode
        return None

    # -- file interface ---------------------------------------------------

    def write(self, data: bytes) -> int:
        fired = self._take("enospc", "torn")
        if fired == "enospc":
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        if fired == "torn":
            cut = max(1, len(data) // 2)
            self._fh.write(data[:cut])
            self._fh.flush()
            raise OSError(errno.EIO, "injected: torn write")
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()

    def fsync(self) -> None:
        if self._take("fsync"):
            raise OSError(errno.EIO, "injected: fsync failed")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        self._fh.close()

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def __getattr__(self, name):
        return getattr(self._fh, name)


def corrupt_log_file(
    path: str,
    seed: int = 0,
    record_index: int = 0,
    mode: str = "bitflip",
) -> bool:
    """Damage one record of a closed log file in place (at-rest fault).

    ``mode="bitflip"`` flips one seeded bit inside the chosen record
    line; ``mode="torn"`` cuts the line short (dropping its newline, so
    it fuses with the next line — two records' worth of damage, as a
    partial block write would).  ``record_index`` is taken modulo the
    number of lines.  Returns False when the file is missing or empty.

    Only call this on a *closed* log: corrupting bytes under a live
    append handle models nothing a real disk does.
    """
    if mode not in ("bitflip", "torn"):
        raise ValueError(f"unknown corruption mode {mode!r}")
    if not os.path.exists(path):
        return False
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = [ln for ln in raw.splitlines(keepends=True) if ln.strip()]
    if not lines:
        return False
    rng = random.Random(seed)
    idx = record_index % len(lines)
    line = lines[idx]
    if mode == "bitflip":
        # Flip a bit somewhere in the record, never the newline itself
        # (a flipped newline would be a tear, which is the other mode).
        body_len = len(line) - 1 if line.endswith(b"\n") else len(line)
        pos = rng.randrange(max(1, body_len))
        flipped = bytearray(line)
        flipped[pos] ^= 1 << rng.randrange(8)
        lines[idx] = bytes(flipped)
    else:
        cut = max(1, (len(line) - 1) // 2)
        lines[idx] = line[:cut]
    with open(path, "wb") as fh:
        fh.write(b"".join(lines))
    return True
