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

Every injection is kept by the injector itself — a human-readable line
in :attr:`FaultInjector.log` (the historical format the experiments
print) and a structured :class:`~repro.obs.observability.FaultEvent`
stamped with the scheduler time *and* the corresponding protocol tick —
and reported once to the system's lifecycle hub as ``fault(t, kind,
target)``.  Everything else that wants to know (``system.obs``'s
``fault_events`` list and ``repro_faults_injected_total`` counter, the
tracers, the conformance recorder) listens there.  A broker crash or
restart is reported by the broker host under the kinds ``crash`` /
``restart`` — the same on the asyncio runtime — so the injector records
those kinds and reports them itself only when no host did (a
``restart_broker`` that merely clears a stall): ``system.obs.fault_events``
always equals :attr:`FaultInjector.events`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from ..broker.host import BrokerHost
from ..core.ticks import tick_of_time
from ..obs.observability import FaultEvent
from ..topology import System

__all__ = ["FaultInjector", "FaultEvent"]


class FaultInjector:
    """Schedules and applies faults on a built :class:`~repro.topology.System`."""

    def __init__(self, system: System):
        self.system = system
        #: Human-readable fault log (one line per applied fault).
        self.log: List[str] = []
        #: Structured fault events, in application order.
        self.events: List[FaultEvent] = []
        #: Brokers currently stalled via :meth:`stall_broker`; consulted by
        #: :meth:`restart_broker` so a restart always clears the sickness.
        self._stalled_brokers: Set[str] = set()

    def _note(self, kind: str, target: str, line: str, report: bool = True) -> None:
        """Keep the injector's own record of an applied fault and, unless
        the broker host already did, report it to the hub."""
        now = self.system.scheduler.now
        self.events.append(FaultEvent(now, tick_of_time(now), kind, target))
        self.log.append(f"t={now:.3f} {line}")
        if report:
            self.system.obs.report_fault(now, kind, target)

    def _set_broker(self, kind: str, broker_id: str, line: str) -> None:
        """Crash or restart a broker.  A :class:`BrokerHost` that changes
        state reports that itself; otherwise (already in that state, or a
        baseline broker) the verb is reported from here."""
        broker = self.system.brokers[broker_id]
        by_host = isinstance(broker, BrokerHost) and broker.alive == (kind == "crash")
        getattr(broker, kind)()
        self._note(kind, broker_id, line, report=not by_host)

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
        self._set_broker("crash", broker_id, f"broker {broker_id} crashed")

    def restart_broker(self, broker_id: str) -> None:
        # Clear any lingering stall first — whether the broker was
        # stalled-then-crashed or merely stalled (no intervening crash),
        # a "restarted" process reads and forwards again.
        self._clear_stall(broker_id)
        self._set_broker("restart", broker_id, f"broker {broker_id} restarted")

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
