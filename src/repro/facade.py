"""The backend-agnostic system shell.

Two runtimes host the same :class:`~repro.broker.engine.GDBrokerEngine`:
the deterministic simulator (:class:`~repro.topology.System`, built by
:meth:`Topology.build`) and the real-time asyncio runtime
(:class:`~repro.aio.runtime.AioSystem`).  Experiments, the fuzzer, and
the chaos harness should not care which one they are driving, so both
subclass one concrete :class:`SystemFacade`, which implements once:

* ``subscribe`` — attach a subscriber client at an SHB; ``predicate`` is
  a subscription string, a parsed :class:`~repro.matching.ast.Predicate`,
  a plain callable, or ``None`` (match everything);
* ``publisher`` — attach a rate-driven publisher client at the pubend's
  PHB (``body_bytes`` pads every event; ``max_messages`` bounds its
  publish *attempts*, so a count-limited workload attempts the identical
  seq sequence on either backend; ``rate <= 0`` raises ``ValueError``);
* ``host_pubend`` — place a pubend on a broker; without a ``log`` it
  gets what the build gives every planned pubend (the build's log
  factory, else a :class:`~repro.storage.log.MemoryLog` with the build's
  commit latency);
* ``obs`` and the live registries ``brokers`` / ``subscribers`` /
  ``subscriptions`` / ``publishers`` that differential harnesses
  introspect;
* the **link fault verbs** — ``fail_link`` / ``recover_link``,
  ``set_link_pathology`` / ``clear_link_pathology`` (one timed override
  of the ambient loss/jitter/corruption; ``None`` keeps the ambient
  value) and the paper's §4.2 stall — ``stall_link``, ``stall_broker``
  (every link of the broker), ``unstall_broker``: a stalled link
  discards data but still looks healthy to both ends, until
  ``fail_link``, ``recover_link``, ``unstall_broker`` or
  ``restart_broker`` clears it.  They act on ``links``, the backend's
  wire: a :class:`~repro.sim.network.SimNetwork` or a
  :class:`~repro.aio.transport.Transport`, which answer the same six
  pair verbs.

A backend adds only what differs: ``now``, ``_new_publisher``,
``crash_broker`` / ``restart_broker`` (coroutines on asyncio, where
taking a broker on and off the wire awaits the transport), and
starting, running and stopping.  Every fault verb reports itself once to
the lifecycle hub as ``fault(t, kind, target)``.  A fault schedule is a
list of timed verbs ``(t, verb, args, kwargs)``
(:meth:`repro.check.scenario.FaultSpec.steps`) that an executor applies
with ``getattr(target, verb)(*args, **kwargs)``, awaiting the result
when it is awaitable — no caller branches on the backend.  (The asyncio
runtime adds three integrity verbs — ``corrupt_log``, ``corrupt_wire``,
``disk_full`` — that act on files and frames; the simulator has
neither, so its driver strips them from a scenario.)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .client import SubscriberClient
from .core.config import LivenessParams
from .core.edges import MATCH_ALL
from .core.subend import Subscription
from .matching.parser import parse
from .obs.observability import Observability
from .storage.log import MemoryLog, MessageLog

__all__ = ["SystemFacade", "resolve_predicate"]


def resolve_predicate(predicate: Any) -> Any:
    """Normalize the uniform ``predicate`` argument of ``subscribe``.

    Strings are parsed with the subscription grammar, ``None`` matches
    everything, and anything else (a parsed AST predicate or a plain
    callable) passes through unchanged.
    """
    if isinstance(predicate, str):
        return parse(predicate)
    if predicate is None:
        return MATCH_ALL
    return predicate


class SystemFacade:
    """One deployment of the protocol engine, minus its backend."""

    def __init__(
        self,
        links: Any,
        brokers: Dict[str, Any],
        params: LivenessParams,
        obs: Observability,
        log_commit_latency: float,
        log_factory: Optional[Callable[[str], MessageLog]],
    ):
        #: The wire the link verbs act on (``SimNetwork`` / ``Transport``).
        self.links = links
        #: broker_id -> broker host (``alive``; ``engine.stream_state()``).
        self.brokers = brokers
        self.params = params
        #: Unified observability: instrument registry, lifecycle hub,
        #: recorders, CPU accountants and tracers behind one object.
        self.obs = obs
        self.pubend_hosts: Dict[str, str] = {}
        #: Publisher clients attached via :meth:`publisher`.
        self.publishers: List[Any] = []
        self.subscribers: Dict[str, SubscriberClient] = {}
        self.subscriptions: Dict[str, Subscription] = {}
        self._log_commit_latency = log_commit_latency
        self._log_factory = log_factory

    @property
    def now(self) -> float:
        raise NotImplementedError

    @property
    def metrics(self) -> Any:
        """The series recorders (``obs.hub``): the read-only alias
        experiments and examples use."""
        return self.obs.hub

    # -- hosting -----------------------------------------------------------

    def _default_log(self, pubend_id: str) -> MessageLog:
        if self._log_factory is not None:
            return self._log_factory(pubend_id)
        return MemoryLog(commit_latency=self._log_commit_latency)

    def _host_planned_pubends(self, plan: Any) -> None:
        """Host every pubend of a :class:`~repro.topology.TopologyPlan`."""
        for pubend_id, host_broker, slot, n_slots, preassign in plan.pubends:
            self.host_pubend(
                pubend_id, host_broker, slot=slot, n_slots=n_slots,
                preassign_window=preassign,
            )

    def host_pubend(
        self,
        pubend_id: str,
        broker_id: str,
        log: Optional[MessageLog] = None,
        *,
        slot: int = 0,
        n_slots: int = 1,
        preassign_window: float = 0.0,
    ) -> MessageLog:
        """Place a pubend on its hosting broker; returns the log in use,
        so callers can inspect it.  Pubends declared on the
        :class:`~repro.topology.Topology` get their slots from the plan —
        a pubend hosted this way defaults to slot 0 of 1 and should only
        opt into total-order merges with explicit ``slot``/``n_slots``."""
        log = log if log is not None else self._default_log(pubend_id)
        self.brokers[broker_id].host_pubend(
            pubend_id, log, slot=slot, n_slots=n_slots,
            preassign_window=preassign_window,
        )
        self.pubend_hosts[pubend_id] = broker_id
        return log

    # -- clients -----------------------------------------------------------

    def subscribe(
        self,
        subscriber_id: str,
        broker_id: str,
        pubends: Tuple[str, ...],
        predicate: Any = None,
        *,
        total_order: bool = False,
    ) -> SubscriberClient:
        """Attach a subscriber client at an SHB.

        ``predicate`` may be a subscription string (parsed), an AST
        :class:`~repro.matching.ast.Predicate`, a plain callable, or
        ``None`` (match everything).
        """
        client = SubscriberClient(
            subscriber_id, metrics=self.metrics, check_total_order=total_order
        )
        subscription = Subscription(
            subscriber=subscriber_id,
            predicate=resolve_predicate(predicate),
            pubends=tuple(pubends),
            total_order=total_order,
        )
        self.brokers[broker_id].add_subscription(subscription, client)
        self.subscribers[subscriber_id] = client
        self.subscriptions[subscriber_id] = subscription
        return client

    def publisher(
        self,
        pubend: str,
        rate: float,
        make_attributes: Optional[Callable[[int], Dict[str, Any]]] = None,
        body_bytes: int = 0,
        max_messages: Optional[int] = None,
    ) -> Any:
        """Attach a rate-driven publisher client at the pubend's PHB.
        ``body_bytes`` pads every event with a body of that many bytes."""
        client = self._new_publisher(
            self.brokers[self.pubend_hosts[pubend]],
            pubend,
            rate,
            make_attributes=make_attributes,
            body_bytes=body_bytes,
            max_messages=max_messages,
        )
        self.publishers.append(client)
        return client

    def _new_publisher(self, broker: Any, pubend: str, rate: float, **kwargs: Any) -> Any:
        raise NotImplementedError

    # -- fault verbs ---------------------------------------------------------
    # Each verb acts, then reports itself once to the hub — also when it
    # changed nothing (a crash of a dead broker, a restart of a live one),
    # so observers see every injection.  An executor awaits whatever a
    # verb returns (crash and restart are coroutines on asyncio).

    def _report_fault(self, kind: str, target: str) -> None:
        self.obs.report_fault(self.now, kind, target)

    def crash_broker(self, broker_id: str) -> Any:
        """Kill the broker process: soft state gone, logs survive."""
        raise NotImplementedError

    def restart_broker(self, broker_id: str) -> Any:
        """Recover the broker from its stable storage (and clear any
        stall: a restarted process reads and forwards again)."""
        raise NotImplementedError

    def fail_link(self, a: str, b: str) -> None:
        """Close the link; both endpoints notice."""
        self.links.fail_link(a, b)
        self._report_fault("fail_link", f"{a}-{b}")

    def recover_link(self, a: str, b: str) -> None:
        self.links.recover_link(a, b)
        self._report_fault("recover_link", f"{a}-{b}")

    def stall_link(self, a: str, b: str) -> None:
        """The paper's pre-failure sickness (§4.2): the link discards
        traffic but still looks up, until ``fail_link``/``recover_link``."""
        self.links.stall(a, b)
        self._report_fault("stall_link", f"{a}-{b}")

    def stall_broker(self, broker_id: str) -> None:
        """Stall every link of the broker: it accepts traffic and forwards
        nothing, and its neighbours cannot tell."""
        for peer in self.brokers[broker_id].topo.neighbors:
            self.links.stall(broker_id, peer)
        self._report_fault("stall_broker", broker_id)

    def unstall_broker(self, broker_id: str) -> None:
        self._clear_stall(broker_id)
        self._report_fault("unstall_broker", broker_id)

    def _clear_stall(self, broker_id: str) -> None:
        # A failed link is a separate fault and stays down.
        for peer in self.brokers[broker_id].topo.neighbors:
            self.links.unstall(broker_id, peer)

    def set_link_pathology(
        self,
        a: str,
        b: str,
        *,
        drop_probability: Optional[float] = None,
        jitter: Optional[float] = None,
        corrupt_probability: Optional[float] = None,
    ) -> None:
        """Override the link's ambient pathology (``None`` keeps ambient).
        Raises on a wire that cannot inject below its stream (TCP)."""
        self.links.set_pathology(
            a, b, drop_probability, jitter, corrupt_probability
        )
        self._report_fault("set_link_pathology", f"{a}-{b}")

    def clear_link_pathology(self, a: str, b: str) -> None:
        """Drop the override: the link is back at its ambient values."""
        self.links.clear_pathology(a, b)
        self._report_fault("clear_link_pathology", f"{a}-{b}")
