"""Fault injection for simulated systems.

Reproduces the paper's failure-injection methodology (section 4.2):

* **Crash failures** kill a broker process: all soft state is lost, the
  pubend log survives, adjacent brokers detect the death immediately
  (the paper injected crashes by killing the JVM, and TCP reset the
  connections).
* **Link failures** close a connection; both endpoints notice.
* **Stall** is the paper's refinement: "the link or broker to be failed
  was stalled for about 2-3 seconds during which it accepted data but did
  not forward it, then it was failed" — without the stall, immediate
  detection meant "many such failures did not result in even a single
  message loss".  A stalled element looks healthy to its neighbours while
  silently absorbing traffic.

All injections can be scheduled at absolute simulation times, so fault
scripts are declarative and deterministic.

Every injection is recorded twice: as a human-readable line in
:attr:`FaultInjector.log` (the historical format the experiments print)
and as a structured :class:`FaultEvent` stamped with the scheduler time
*and* the corresponding protocol tick.  When the target system carries an
:class:`~repro.obs.observability.Observability` object (every
:meth:`~repro.topology.Topology.build` result does), events are also
pushed into ``system.obs`` — a ``repro_faults_injected_total`` counter
labelled by fault kind plus the structured event list — so fault activity
appears in the same snapshot as the protocol counters it perturbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from ..core.ticks import tick_of_time
from ..topology import System

__all__ = ["FaultInjector", "FaultEvent"]


@dataclass(frozen=True)
class FaultEvent:
    """One applied fault, stamped at the instant it took effect.

    ``time`` is the scheduler clock in seconds; ``tick`` is the same
    instant on the protocol's tick axis (1 tick = 1 ms), so fault events
    line up directly with stream horizons and knowledge ranges.
    """

    time: float
    tick: int
    kind: str
    target: str

    def __str__(self) -> str:
        return f"t={self.time:.3f} (tick {self.tick}) {self.kind} {self.target}"


class FaultInjector:
    """Schedules and applies faults on a built :class:`~repro.topology.System`."""

    def __init__(self, system: System, tracer: Optional[object] = None):
        self.system = system
        #: Optional :class:`~repro.obs.trace.Tracer` to co-record faults.
        self.tracer = tracer
        #: Human-readable fault log (one line per applied fault).
        self.log: List[str] = []
        #: Structured fault events, in application order.
        self.events: List[FaultEvent] = []
        #: Brokers currently stalled via :meth:`stall_broker`; consulted by
        #: :meth:`restart_broker` so a restart always clears the sickness.
        self._stalled_brokers: Set[str] = set()

    def _note(
        self, kind: str, target: str, legacy: str, lifecycle: bool = True
    ) -> None:
        now = self.system.scheduler.now
        event = FaultEvent(
            time=now, tick=tick_of_time(now), kind=kind, target=target
        )
        self.events.append(event)
        self.log.append(f"t={now:.3f} {legacy}")
        obs = getattr(self.system, "obs", None)
        if obs is not None:
            obs.record_fault_event(event)
            if lifecycle and obs.lifecycle.listeners:
                obs.lifecycle.fault(now, kind, target)
        if self.tracer is not None:
            self.tracer.record_fault(legacy)

    # -- immediate actions -------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        self.system.network.link(a, b).fail()
        self._note("fail_link", f"{a}-{b}", f"link {a}-{b} failed")

    def recover_link(self, a: str, b: str) -> None:
        self.system.network.link(a, b).recover()
        self._note("recover_link", f"{a}-{b}", f"link {a}-{b} recovered")

    def stall_link(self, a: str, b: str) -> None:
        self.system.network.link(a, b).stall()
        self._note("stall_link", f"{a}-{b}", f"link {a}-{b} stalled")

    def crash_broker(self, broker_id: str) -> None:
        # A crash supersedes any stall bookkeeping: the next restart
        # rebuilds the process, and _clear_stall below resets its links.
        self._stalled_brokers.discard(broker_id)
        self.system.brokers[broker_id].crash()
        # The lifecycle event of a crash/restart is the broker host's
        # (BrokerHost.on_crash/on_restart), the same on every backend.
        self._note(
            "crash_broker", broker_id, f"broker {broker_id} crashed", lifecycle=False
        )

    def restart_broker(self, broker_id: str) -> None:
        # Clear any lingering stall first — whether the broker was
        # stalled-then-crashed or merely stalled (no intervening crash),
        # a "restarted" process reads and forwards again.
        self._clear_stall(broker_id)
        self.system.brokers[broker_id].restart()
        self._note(
            "restart_broker", broker_id, f"broker {broker_id} restarted", lifecycle=False
        )

    def stall_broker(self, broker_id: str) -> None:
        """Make a broker sick: it accepts traffic but forwards nothing,
        and its neighbours cannot tell (links still look up)."""
        self._stalled_brokers.add(broker_id)
        for link in self.system.network.links_of(broker_id):
            link.stall()
        self._note("stall_broker", broker_id, f"broker {broker_id} stalled")

    def unstall_broker(self, broker_id: str) -> None:
        if self._clear_stall(broker_id):
            self._note(
                "unstall_broker", broker_id, f"broker {broker_id} unstalled"
            )

    def _clear_stall(self, broker_id: str) -> bool:
        """Recover every *stalled* link of the broker (failed links are a
        separate fault and stay down).  Returns True when anything was
        stalled."""
        was_stalled = broker_id in self._stalled_brokers
        self._stalled_brokers.discard(broker_id)
        for link in self.system.network.links_of(broker_id):
            if link.stalled:
                was_stalled = True
                if link.up:
                    link.recover()
                else:
                    link.stalled = False
        return was_stalled

    # -- scheduled scripts -------------------------------------------------

    def at(self, when: float, action: Callable[[], None]) -> None:
        self.system.scheduler.call_at(when, action)

    def drop_burst(
        self, a: str, b: str, at: float, duration: float, probability: float
    ) -> None:
        """Raise the link's random-drop probability for a window, then
        restore whatever it was before the burst."""
        saved: dict = {}

        def start() -> None:
            link = self.system.network.link(a, b)
            saved["p"] = link.drop_probability
            link.drop_probability = probability
            self._note(
                "drop_burst", f"{a}-{b}",
                f"link {a}-{b} drop burst p={probability:.2f}",
            )

        def stop() -> None:
            link = self.system.network.link(a, b)
            link.drop_probability = saved.get("p", 0.0)
            self._note(
                "drop_burst_end", f"{a}-{b}", f"link {a}-{b} drop burst over"
            )

        self.at(at, start)
        self.at(at + duration, stop)

    def reorder_burst(
        self, a: str, b: str, at: float, duration: float, jitter: float
    ) -> None:
        """Raise the link's jitter for a window (jitter produces genuine
        reordering on the wire), then restore the previous value."""
        saved: dict = {}

        def start() -> None:
            link = self.system.network.link(a, b)
            saved["j"] = link.jitter
            link.jitter = jitter
            self._note(
                "reorder_burst", f"{a}-{b}",
                f"link {a}-{b} reorder burst jitter={jitter:.3f}",
            )

        def stop() -> None:
            link = self.system.network.link(a, b)
            link.jitter = saved.get("j", 0.0)
            self._note(
                "reorder_burst_end", f"{a}-{b}",
                f"link {a}-{b} reorder burst over",
            )

        self.at(at, start)
        self.at(at + duration, stop)

    def stall_then_fail_link(
        self, a: str, b: str, at: float, stall: float = 2.5, outage: float = 10.0
    ) -> None:
        """The paper's two-step link failure: stall (losing traffic
        silently), then fail for ``outage`` seconds, then recover."""
        self.at(at, lambda: self.stall_link(a, b))
        self.at(at + stall, lambda: self.fail_link(a, b))
        self.at(at + stall + outage, lambda: self.recover_link(a, b))

    def stall_then_crash_broker(
        self,
        broker_id: str,
        at: float,
        stall: float = 2.5,
        downtime: Optional[float] = 30.0,
    ) -> None:
        """The paper's two-step broker crash: stall, crash, then restart
        after ``downtime`` seconds (pass ``None`` to leave it dead)."""

        def crash() -> None:
            self.unstall_broker(broker_id)
            self.crash_broker(broker_id)

        self.at(at, lambda: self.stall_broker(broker_id))
        self.at(at + stall, crash)
        if downtime is not None:
            self.at(at + stall + downtime, lambda: self.restart_broker(broker_id))
