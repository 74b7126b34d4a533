"""Simulated processes: crash/restart-aware nodes with safe timers.

A :class:`SimProcess` is a network node that owns timers.  Crashing a
process must invalidate every timer it armed — a restarted broker must not
be poked by callbacks belonging to its previous incarnation.  Two
mechanisms cooperate:

* every timer carries an *epoch* check — :meth:`crash` bumps the epoch
  and older timers become no-ops even if they somehow still fire;
* pending timers are *tracked and cancelled* on crash, so the scheduler
  skips them entirely and ``Scheduler.events_run`` stays a stable
  cross-run work metric (dead-epoch timers firing as counted no-ops
  would make the counter depend on crash timing).
"""

from __future__ import annotations

from typing import Any, Callable, Set

from .network import Node, SimNetwork
from .scheduler import Scheduler, TimerHandle

__all__ = ["SimProcess"]


class SimProcess(Node):
    """Base class for brokers and clients living in the simulator."""

    def __init__(self, node_id: str, network: SimNetwork, scheduler: Scheduler):
        super().__init__(node_id)
        self.network = network
        self.scheduler = scheduler
        self.epoch = 0
        self._pending_timers: Set[TimerHandle] = set()

    # -- timers ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        """Arm a timer tied to this incarnation of the process."""
        return self._track(self.scheduler.call_later(delay, fn), fn)

    def every(self, interval: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` every ``interval`` seconds until crash."""

        def tick() -> None:
            fn()
            self.schedule(interval, tick)

        self.schedule(interval, tick)

    @property
    def pending_timers(self) -> Set[TimerHandle]:
        """The timers this incarnation armed that have not yet fired or
        been cancelled."""
        return self._pending_timers

    def _track(self, handle: TimerHandle, fn: Callable[[], None]) -> TimerHandle:
        """Gate ``handle`` on this incarnation and track it for crash
        cancellation: it is in the set exactly while it is pending, and
        leaves when it fires or is cancelled."""
        epoch = self.epoch
        pending = self._pending_timers

        def fire() -> None:
            pending.discard(handle)
            if self.epoch == epoch and self.alive:
                fn()

        handle.fn = fire
        handle.tracked_in = pending
        pending.add(handle)
        return handle

    def now(self) -> float:
        return self.scheduler.now

    # -- lifecycle --------------------------------------------------------

    def crash(self) -> None:
        """Kill the process: drop all soft state hooks and timers.

        Subclasses override :meth:`on_crash` to discard their soft state.
        """
        if not self.alive:
            return
        self.alive = False
        self.epoch += 1
        for handle in self._pending_timers:
            handle.cancelled = True
        self._pending_timers.clear()
        self.on_crash()

    def restart(self) -> None:
        """Bring the process back with a fresh epoch."""
        if self.alive:
            return
        self.alive = True
        self.epoch += 1
        self.on_restart()

    def on_crash(self) -> None:  # pragma: no cover - default no-op
        """Hook: release soft state."""

    def on_restart(self) -> None:  # pragma: no cover - default no-op
        """Hook: recover from stable storage, restart timers."""

    # -- messaging ---------------------------------------------------------

    def send(self, dst: str, message: Any, size_bytes: int = 100) -> bool:
        if not self.alive:
            return False
        return self.network.send(self.node_id, dst, message, size_bytes)

    def receive(self, src: str, message: Any) -> None:
        if not self.alive:
            return
        self.on_message(src, message)

    def on_message(self, src: str, message: Any) -> None:
        raise NotImplementedError
