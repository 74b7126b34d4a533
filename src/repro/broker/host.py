"""The runtime-agnostic broker host.

The paper's failure model is one state machine: every broker keeps only
soft state, stable storage exists *only* at the PHB (its pubend logs),
and recovery is "build a fresh engine, replay the logs".  Gryphon frames
its brokers as one dataflow graph executed on different substrates; the
code says the same thing here.  :class:`BrokerHost` owns what every
substrate does identically —

* the pubend-hosting records (:class:`PubendHosting`: the durable facts
  plus a *log factory* — a :class:`~repro.storage.log.MemoryLog` factory
  hands back the same object, the simulator's disk that outlives the
  process; :meth:`FileLog.factory` reopens the file);
* the one ``Pubend`` and the one ``GDBrokerEngine`` construction;
* the subscriber-client registry and ``publish``;
* the crash sequence (drop the engine — all istream/ostream/subend soft
  state — and close the log handles; the logs themselves survive) and the
  restart sequence (new engine, reopen each log, host it again — hosting
  *is* replaying the log — re-arm timers); the system's ``crash_broker`` /
  ``restart_broker`` fault verbs drive it and report it to the lifecycle
  hub.  Subscriber state at a crashed SHB is gone; the paper's guarantee
  only covers subscribers that remain connected, and its experiments
  never crash an SHB.

— and the two hosts subclass it adding only their substrate:
:class:`~repro.broker.simbroker.SimBroker` (CPU accountant, client-write
delay, :class:`~repro.sim.process.SimProcess` timers) and
:class:`~repro.aio.runtime.AioBroker` (inbox, asyncio timers, mutations).
It is a base class, not a delegate, so the per-message paths
(``services.send``, ``on_message``, ``deliver``) resolve on the subclass
and pay no extra frame.

A substrate provides ``alive`` and calls :meth:`BrokerHost.on_crash` /
:meth:`BrokerHost.on_restart` from its own ``crash()``/``restart()``
after flipping ``alive``, bumping its timer epoch and cancelling its
pending timers (these are :class:`SimProcess`'s hook names, so the
simulator's process lifecycle drives them unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..core.config import LivenessParams
from ..core.pubend import Pubend
from ..core.subend import Subscription
from ..core.ticks import Tick
from ..obs.observability import Observability
from ..storage.log import MessageLog
from .engine import BrokerServices, GDBrokerEngine
from .state import BrokerTopologyInfo

__all__ = ["BrokerHost", "PubendHosting", "SubscriberHooks"]


class SubscriberHooks:
    """Client-side delivery callback (duck-typed).

    ``on_delivery(pubend, tick, payload, time)`` is invoked when the SHB
    finishes writing the message to this subscriber's connection.
    """

    def on_delivery(self, pubend: str, tick: Tick, payload: Any, time: float) -> None:
        raise NotImplementedError


@dataclass
class PubendHosting:
    """Durable facts needed to re-host a pubend after a crash."""

    pubend_id: str
    #: Reopens the stable log (see :meth:`MessageLog.factory`).
    open_log: Callable[[], MessageLog]
    slot: int
    n_slots: int
    preassign_window: float
    #: The open handle; ``None`` while the host is down.
    log: Optional[MessageLog]


class BrokerHost:
    """One physical Gryphon broker, minus its substrate."""

    #: Provided by the substrate (``SimProcess`` / ``AioBroker``).
    alive: bool

    def __init__(
        self,
        broker_id: str,
        topo: BrokerTopologyInfo,
        params: LivenessParams,
        services: BrokerServices,
        obs: Optional[Observability] = None,
    ):
        self.broker_id = broker_id
        self.topo = topo
        self.params = params
        self.services = services
        self.obs = obs if obs is not None else Observability()
        self._hostings: Dict[str, PubendHosting] = {}
        self._clients: Dict[str, SubscriberHooks] = {}
        self._started = False
        #: Completed crash→restart cycles.
        self.restarts = 0
        self.engine: Optional[GDBrokerEngine] = self._new_engine()

    def _new_engine(self) -> GDBrokerEngine:
        # Every incarnation shares the system-wide lifecycle hub, so
        # tracers and detectors attached to system.obs see the broker
        # across restarts, on either substrate.
        return GDBrokerEngine(
            self.topo,
            self.params,
            self.services,
            instruments=self.obs.instruments,
            lifecycle=self.obs.lifecycle,
        )

    # -- configuration ---------------------------------------------------

    def host_pubend(
        self,
        pubend_id: str,
        log: MessageLog,
        slot: int = 0,
        n_slots: int = 1,
        preassign_window: Optional[float] = None,
    ) -> MessageLog:
        """Become the PHB for ``pubend_id`` with the given stable log."""
        if preassign_window is None:
            preassign_window = self.params.preassign_window
        hosting = PubendHosting(
            pubend_id, log.factory(), slot, n_slots, preassign_window, log
        )
        self._hostings[pubend_id] = hosting
        self._adopt(hosting)
        return log

    def _adopt(self, hosting: PubendHosting) -> None:
        pubend = Pubend(
            hosting.pubend_id,
            hosting.log,
            slot=hosting.slot,
            n_slots=hosting.n_slots,
            aet=self.params.aet,
            silence_interval=self.params.silence_interval,
            preassign_window=hosting.preassign_window,
            instruments=self.obs.instruments,
        )
        self.engine.host_pubend(pubend)

    def hosted_logs(self) -> Dict[str, MessageLog]:
        """pubend_id -> its open stable log (empty while down)."""
        return {
            pubend_id: hosting.log
            for pubend_id, hosting in self._hostings.items()
            if hosting.log is not None
        }

    def add_subscription(
        self, subscription: Subscription, client: Optional[SubscriberHooks] = None
    ) -> None:
        if client is not None:
            self._clients[subscription.subscriber] = client
        self.engine.add_subscription(subscription)

    def start(self) -> None:
        """Arm periodic protocol timers.  Call after configuration."""
        self._started = True
        self.engine.start()

    # -- publishing ------------------------------------------------------

    def publish(self, pubend_id: str, payload: Any) -> Optional[Tick]:
        """Client publish: log and propagate after commit.

        Returns ``None`` when the broker is down — the publishing client's
        message is *not published* and will never be delivered (paper
        section 2.2: only logged messages are published).
        """
        if not self.alive:
            return None
        return self.engine.publish(pubend_id, payload)

    # -- crash / recover -------------------------------------------------

    def on_crash(self) -> None:
        """All soft state dies with the process; the log *handles* die
        too, the logs survive."""
        self.engine = None
        for hosting in self._hostings.values():
            hosting.log.close()
            hosting.log = None

    def on_restart(self) -> None:
        """Recover from stable storage: each hosted pubend's log is
        reopened via its factory and replayed, so assigned ticks and the
        doubt horizon are re-advertised (paper §2: stable storage only at
        the PHB)."""
        self.restarts += 1
        self.engine = self._new_engine()
        for hosting in self._hostings.values():
            hosting.log = hosting.open_log()
            self._adopt(hosting)
        # NOTE: subscriptions at a crashed SHB are not restored — clients
        # must reconnect/resubscribe (outside the paper's failure model).
        if self._started:
            self.start()

