"""Pubend: the source node of a knowledge tree.

A pubend (publisher endpoint, paper section 2.2) consolidates one or more
publishers into a single knowledge stream of the form ``F* [D|F]* Q*``:
an acknowledged past, an unacknowledged present, and an unknown future.
That stream is not stored here: "those that are not logged are considered
not published", so the pubend's knowledge is exactly its log (the D
ticks) plus two integers — ``acked_up_to`` (everything below is F) and
``horizon`` (everything at or above is Q; below it, whatever is not
logged is F).  The hosting broker's istream is the one materialised copy,
filled by replaying the log (``GDBrokerEngine.host_pubend``).

Responsibilities implemented here:

* **Tick assignment** — each published message receives a unique tick;
  ticks of one pubend are congruent to its *slot* modulo the slot count,
  so that pubend streams that are ever merged never place different data
  on the same tick (paper section 2.2).
* **Logging** — the message is appended to stable storage *before* being
  considered published; the hosting broker schedules the downstream send
  after the log's commit latency.
* **Bracketing silence** — publishing tick ``t`` finalizes all ticks since
  the previous D, so the emitted data message has the paper's
  ``F*Q*F*DF*Q*`` form and downstream doubt horizons advance continuously.
* **Idle silence** — after ``silence_interval`` without publications a
  range of Q ticks is changed to F (optionally broadcast downstream —
  pre-assigning F improves downstream merges, see Aguilera & Strom 2000).
* **Pubend-driven liveness (AET)** — ticks older than ``now - AET`` are
  expected to be acknowledged; paths that have not acked receive an
  AckExpected probe.
* **Crash recovery** — ``acked_up_to`` and ``horizon`` are read back from
  the log on construction, and the pubend's tick clock (:meth:`Pubend.tick`)
  continues past every logged tick even when the host clock restarted
  lower (a reboot, or a log moved to a younger host).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, List, Optional

from ..obs.instruments import NULL_INSTRUMENTS
from ..storage.log import LogEntry, MessageLog
from .messages import AckExpectedMessage, DataTick, KnowledgeMessage
from .ticks import Tick, TickRange, tick_of_time

__all__ = ["Pubend"]


class Pubend:
    """State and pure protocol logic of one pubend.

    The hosting broker (PHB) owns timers and transport; this class only
    assigns ticks, talks to the log, and builds protocol messages.
    """

    def __init__(
        self,
        pubend_id: str,
        log: MessageLog,
        slot: int = 0,
        n_slots: int = 1,
        aet: float = 10.0,
        silence_interval: float = 0.5,
        preassign_window: float = 0.0,
        instruments: Any = NULL_INSTRUMENTS,
    ):
        if not 0 <= slot < n_slots:
            raise ValueError(f"slot {slot} out of range for n_slots {n_slots}")
        if preassign_window < 0:
            raise ValueError("preassign_window must be non-negative")
        self.pubend_id = pubend_id
        self.log = log
        self.slot = slot
        self.n_slots = n_slots
        self.aet = aet
        self.silence_interval = silence_interval
        #: Pre-assigned finality (paper section 2.2, after Aguilera &
        #: Strom 2000): a pubend that knows its expected publication
        #: period can assign F to that many seconds of *future* ticks
        #: with every message, so downstream merges never wait on it.
        #: The trade-off: a message arriving earlier than expected is
        #: stamped at the end of the pre-assigned window (ticks must stay
        #: monotone past finalized ranges).
        self.preassign_window = preassign_window
        entries = log.entries(pubend_id)
        #: Prefix acknowledged by *all* downstream paths: the durable
        #: truncation point, or — for a log never truncated — the first
        #: logged tick (nothing below it was ever assigned: the append
        #: precedes any advertisement).
        self.acked_up_to: Tick = log.truncated_below(pubend_id) or (
            entries[0].tick if entries else 0
        )
        #: First tick neither assigned nor silenced; everything at or
        #: above it is Q.
        self.horizon: Tick = max(
            self.acked_up_to, entries[-1].tick + 1 if entries else 0
        )
        self.publish_count = 0
        #: ``tick(now) - tick_of_time(now)``: set at the first reading
        #: after recovery, and again whenever ``now`` steps back.
        self._offset: Optional[Tick] = None
        self._last_now = 0.0
        #: Last time this pubend emitted anything — data or silence.
        #: Liveness detectors compare this against ``silence_interval``:
        #: a healthy idle pubend refreshes it via :meth:`maybe_silence`.
        self.last_emission: float = 0.0
        labels = {"pubend": pubend_id}
        self._m_publishes = instruments.counter(
            "repro_pubend_publishes_total",
            help="Messages published through this pubend.",
            **labels,
        )
        self._m_log_appends = instruments.counter(
            "repro_pubend_log_appends_total",
            help="Entries appended to the pubend's stable log.",
            **labels,
        )
        self._m_log_truncated = instruments.counter(
            "repro_pubend_log_truncated_ticks_total",
            help="Ticks garbage-collected from the stable log after "
            "consolidated acks.",
            **labels,
        )
        self._m_acked_tick = instruments.gauge(
            "repro_pubend_acked_tick",
            help="Prefix of ticks acknowledged by all downstream paths.",
            **labels,
        )
        self._m_publish_failures = instruments.counter(
            "repro_pubend_publish_failures_total",
            help="Publish attempts aborted because the stable log append "
            "failed (disk full, fsync error); the tick was never "
            "advertised.",
            **labels,
        )

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def tick(self, now: float) -> Tick:
        """This pubend's clock: ``tick_of_time(now)`` plus an offset that
        puts a recovered horizon no later than the current tick.

        The host clock need not run past the log — asyncio ticks are host
        uptime — so without the offset a pubend recovered behind its
        horizon would send no silence and no AckExpected probe until the
        host clock caught up.  A clock that starts at 0 with an empty log
        (the simulator) has offset 0.
        """
        raw = tick_of_time(now)
        if self._offset is None or now < self._last_now:
            self._offset = max(0, self.horizon - raw)
        self._last_now = now
        return raw + self._offset

    def assign_tick(self, now: float) -> Tick:
        """The tick for a message published at time ``now``.

        At or past the horizon (so strictly later than every tick already
        assigned or silenced), at or after real time, and congruent to
        ``slot`` modulo ``n_slots``.
        """
        floor = max(self.horizon, self.tick(now))
        remainder = floor % self.n_slots
        candidate = floor + (self.slot - remainder) % self.n_slots
        if candidate < floor:  # defensive; (a - b) % n is non-negative
            candidate += self.n_slots
        return candidate

    def publish(self, payload: Any, now: float) -> KnowledgeMessage:
        """Log a publication and return its first-time data message.

        The message is durable when this returns (callers model the commit
        latency by delaying the *send*, not the append).  The returned
        message finalizes the silent range since the previous D tick and
        carries the acked prefix, giving the ``F*Q*F*DF*Q*`` form.

        The append happens *before* any horizon or counter mutation: if
        stable storage fails (:class:`~repro.storage.log.LogAppendError`),
        the exception propagates with the pubend unchanged — the tick was
        never assigned, nothing is advertised downstream,
        and the publisher sees a failed attempt it may retry.
        """
        tick = self.assign_tick(now)
        prev_horizon = self.horizon
        try:
            self.log.append(LogEntry(self.pubend_id, tick, payload))
        except OSError:
            # LogAppendError (and any raw disk error): the message is not
            # published.  assign_tick changes nothing but the tick clock's
            # offset, which the next reading sets anyway: no rollback.
            self._m_publish_failures.inc()
            raise
        self._m_publishes.inc()
        self._m_log_appends.inc()
        f_ranges: List[TickRange] = []
        if tick > prev_horizon:
            f_ranges.append(TickRange(prev_horizon, tick))
        self.horizon = tick + 1
        if self.preassign_window > 0:
            self.horizon += tick_of_time(self.preassign_window)
            f_ranges.append(TickRange(tick + 1, self.horizon))
        self.publish_count += 1
        self.last_emission = now
        return KnowledgeMessage(
            pubend=self.pubend_id,
            fin_prefix=self.acked_up_to,
            f_ranges=tuple(r for r in f_ranges if r.stop > self.acked_up_to),
            data=(DataTick(tick, payload),),
        )

    # ------------------------------------------------------------------
    # Silence
    # ------------------------------------------------------------------

    def maybe_silence(self, now: float) -> Optional[KnowledgeMessage]:
        """Finalize the idle range, if long enough, and return its
        first-time silence message (``F*Q*F*Q*``).

        Returns ``None`` when the pubend has published recently.  The
        silence extends up to the current tick; :meth:`assign_tick` never
        assigns a tick below the horizon, so a message published
        immediately afterwards cannot collide with the silenced range.
        """
        now_tick = self.tick(now)
        if now_tick - self.horizon < tick_of_time(self.silence_interval):
            return None
        rng = TickRange(self.horizon, now_tick)
        self.horizon = now_tick
        self.last_emission = now
        return KnowledgeMessage(
            pubend=self.pubend_id,
            fin_prefix=self.acked_up_to,
            f_ranges=(rng,),
            data=(),
        )

    # ------------------------------------------------------------------
    # Acknowledgement and pubend-driven liveness
    # ------------------------------------------------------------------

    def record_ack(self, up_to: Tick) -> bool:
        """All downstream paths acknowledged ``[0, up_to)``.

        Advances the acked prefix, truncates the log, and returns True
        when the prefix advanced.  (The hosting broker calls
        this only after consolidating acks over *all* its downstream
        paths.)
        """
        if up_to <= self.acked_up_to:
            return False
        self._m_log_truncated.inc(up_to - self.acked_up_to)
        self.acked_up_to = up_to
        self._m_acked_tick.set(float(up_to))
        self.horizon = max(self.horizon, up_to)
        self.log.truncate(self.pubend_id, up_to)
        return True

    def ack_expected_tick(self, now: float) -> Optional[Tick]:
        """The AckExpected timestamp to probe with, or ``None``.

        Ticks more than AET before now are expected to be acked.  The
        probe never exceeds the horizon: a pubend that just
        recovered probes with the tick of the last message it logged
        before the crash (paper section 4.2, p1-crash experiment).
        """
        if self.aet == float("inf"):
            return None  # pubend-driven liveness disabled
        threshold = min(self.tick(now) - tick_of_time(self.aet), self.horizon)
        if threshold > self.acked_up_to:
            return threshold
        return None

    def make_ack_expected(self, up_to: Tick) -> AckExpectedMessage:
        return AckExpectedMessage(pubend=self.pubend_id, up_to=up_to)

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------

    def retransmission(self, ranges: List[TickRange]) -> Optional[KnowledgeMessage]:
        """A retransmitted knowledge message answering curiosity.

        The pubend is the authority: every tick below its horizon is
        either D (an entry in the log) or F.  Ticks at or above the
        horizon are genuinely unknown and stay Q.

        Nothing in ``src/`` calls this — the hosting engine answers nacks
        from its istream; it survives because the frozen load-benchmark
        ledger wraps it by name (ROADMAP item 4(a)).
        """
        entries = self.log.entries(self.pubend_id)
        ticks = [entry.tick for entry in entries]
        data: List[DataTick] = []
        f_ranges: List[TickRange] = []
        for rng in ranges:
            lo, stop = rng.start, min(rng.stop, self.horizon)
            for entry in entries[bisect_left(ticks, lo) : bisect_left(ticks, stop)]:
                if entry.tick > lo:
                    f_ranges.append(TickRange(lo, entry.tick))
                data.append(DataTick(entry.tick, entry.payload))
                lo = entry.tick + 1
            if stop > lo:
                f_ranges.append(TickRange(lo, stop))
        if not data and not f_ranges:
            return None
        return KnowledgeMessage(
            pubend=self.pubend_id,
            fin_prefix=self.acked_up_to,
            f_ranges=tuple(f_ranges),
            data=tuple(sorted(data, key=lambda d: d.tick)),
            retransmit=True,
        )
