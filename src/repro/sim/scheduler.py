"""Deterministic discrete-event scheduler.

The simulation substrate for all protocol experiments: a priority queue of
timestamped events with a strictly deterministic tie-break (insertion
sequence number), a simulated clock, and cancellable timers.  Given the
same seed and the same call sequence, every run is bit-identical — the
property the protocol tests rely on.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Set, Tuple

__all__ = ["Scheduler", "TimerHandle"]


class TimerHandle:
    """A cancellable scheduled callback.

    ``tracked_in`` is the set of pending timers an owner keeps the handle
    in (:class:`~repro.sim.process.SimProcess`); cancelling the handle
    takes it out, so the set never needs a sweep."""

    __slots__ = ("when", "fn", "cancelled", "tracked_in")

    def __init__(self, when: float, fn: Callable[[], None]):
        self.when = when
        self.fn = fn
        self.cancelled = False
        self.tracked_in: Optional[Set["TimerHandle"]] = None

    def cancel(self) -> None:
        self.cancelled = True
        if self.tracked_in is not None:
            self.tracked_in.discard(self)


class Scheduler:
    """Event loop over simulated time.

    Events scheduled for the same instant run in scheduling order.  The
    scheduler also owns the simulation's random generator so that every
    source of randomness (drops, jitter, workloads) derives from one seed.
    """

    def __init__(self, seed: int = 0):
        self._heap: List[Tuple[float, int, TimerHandle]] = []
        self._sequence = 0
        self._now = 0.0
        self.rng = random.Random(seed)
        self.events_run = 0

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    def call_at(self, when: float, fn: Callable[[], None]) -> TimerHandle:
        """Schedule ``fn`` at absolute simulated time ``when``.

        Times in the past run at the current time (immediately on the next
        step), never rewinding the clock.
        """
        handle = TimerHandle(max(when, self._now), fn)
        heapq.heappush(self._heap, (handle.when, self._sequence, handle))
        self._sequence += 1
        return handle

    def call_later(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        """Schedule ``fn`` after ``delay`` seconds of simulated time."""
        return self.call_at(self._now + max(delay, 0.0), fn)

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        while self._heap:
            when, __, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = when
            self.events_run += 1
            handle.fn()
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Run all events up to and including ``deadline``."""
        while self._heap:
            when, __, handle = self._heap[0]
            if when > deadline:
                break
            heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = when
            self.events_run += 1
            handle.fn()
        self._now = max(self._now, deadline)

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains (or the safety cap trips).

        Returns the number of events run.  Simulations with periodic
        timers never drain — use :meth:`run_until` for those.
        """
        count = 0
        while count < max_events and self.step():
            count += 1
        if count >= max_events:
            raise RuntimeError("scheduler run() exceeded max_events — runaway timers?")
        return count
