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

Crash, restart, link failure/recovery and the link-pathology override are
:class:`~repro.facade.SystemFacade` verbs that exist on both backends;
the injector's methods of the same names delegate to the system and add
only a human-readable line to :attr:`FaultInjector.log` (the format the
experiments print).  What is simulator-only lives here: the **stall**
verbs — a methodology of the paper's testbed with no real-time analogue
(a process that reads its sockets and forwards nothing) — and the two
``stall_then_*`` scripts built on them.  Every verb, shared or stall,
reports itself once to the lifecycle hub as ``fault(t, kind, target)``;
:attr:`FaultInjector.events` is ``system.obs.fault_events``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Set

from ..obs.observability import FaultEvent
from ..topology import System

__all__ = ["FaultInjector", "FaultEvent"]


class FaultInjector:
    """Schedules and applies faults on a built :class:`~repro.topology.System`.

    The target of the simulator's fault-schedule executor
    (:func:`repro.check.runner.schedule_steps`): every verb a
    :meth:`~repro.check.scenario.FaultSpec.steps` expansion names is a
    method here."""

    def __init__(self, system: System):
        self.system = system
        #: Human-readable fault log (one line per applied fault).
        self.log: List[str] = []
        #: Brokers currently stalled via :meth:`stall_broker`; consulted by
        #: :meth:`restart_broker` so a restart always clears the sickness.
        self._stalled_brokers: Set[str] = set()

    @property
    def events(self) -> List[FaultEvent]:
        """Structured fault events, in application order."""
        return self.system.obs.fault_events

    def _log(self, line: str) -> None:
        self.log.append(f"t={self.system.scheduler.now:.3f} {line}")

    def _note(self, kind: str, target: str, line: str) -> None:
        """Report and log a stall verb (the shared verbs report themselves)."""
        self.system.obs.report_fault(self.system.scheduler.now, kind, target)
        self._log(line)

    # -- the system's verbs, logged ----------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        self.system.fail_link(a, b)
        self._log(f"link {a}-{b} failed")

    def recover_link(self, a: str, b: str) -> None:
        self.system.recover_link(a, b)
        self._log(f"link {a}-{b} recovered")

    def set_link_pathology(self, a: str, b: str, **pathology: Any) -> None:
        self.system.set_link_pathology(a, b, **pathology)
        values = " ".join(
            f"{k}={v:g}" for k, v in sorted(pathology.items()) if v is not None
        )
        self._log(f"link {a}-{b} pathology {values}")

    def clear_link_pathology(self, a: str, b: str) -> None:
        self.system.clear_link_pathology(a, b)
        self._log(f"link {a}-{b} pathology cleared")

    def crash_broker(self, broker_id: str) -> None:
        # A crash supersedes any stall bookkeeping: the next restart
        # rebuilds the process, and _clear_stall below resets its links.
        self._stalled_brokers.discard(broker_id)
        self.system.crash_broker(broker_id)
        self._log(f"broker {broker_id} crashed")

    def restart_broker(self, broker_id: str) -> None:
        # Clear any lingering stall first — whether the broker was
        # stalled-then-crashed or merely stalled (no intervening crash),
        # a "restarted" process reads and forwards again.
        self._clear_stall(broker_id)
        self.system.restart_broker(broker_id)
        self._log(f"broker {broker_id} restarted")

    # -- stalls (simulator only) -------------------------------------------

    def stall_link(self, a: str, b: str) -> None:
        self.system.network.link(a, b).stall()
        self._note("stall_link", f"{a}-{b}", f"link {a}-{b} stalled")

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
