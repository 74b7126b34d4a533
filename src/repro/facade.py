"""The backend-agnostic system facade.

Two runtimes host the same :class:`~repro.broker.engine.GDBrokerEngine`:
the deterministic simulator (:class:`~repro.topology.System`, built by
:meth:`Topology.build`) and the real-time asyncio runtime
(:class:`~repro.aio.runtime.AioSystem`).  Experiments, the fuzzer, and
the chaos harness should not care which one they are driving, so both
expose the same public surface, captured here as the
:class:`SystemFacade` protocol:

* ``subscribe(subscriber_id, broker_id, pubends, predicate=None, *,
  total_order=False)`` — attach a subscriber client at an SHB;
  ``predicate`` is accepted uniformly as a subscription string, a parsed
  :class:`~repro.matching.ast.Predicate`, a plain callable, or ``None``
  (match everything);
* ``publisher(pubend, rate, make_attributes=None, body_bytes=0,
  max_messages=None)`` — attach a rate-driven publisher client at the
  pubend's PHB (``body_bytes`` pads every event with a body of that
  size; ``max_messages`` bounds its publish *attempts*, so a
  count-limited workload attempts the identical seq sequence on either
  backend; ``rate <= 0`` raises ``ValueError``);
* ``host_pubend(pubend_id, broker_id, log=None, ...)`` — place a pubend
  on a broker after construction (the log defaults to the backend's
  stable-storage flavour);
* ``obs`` — the system's :class:`~repro.obs.observability.Observability`
  (instrument registry, lifecycle hub, recorders);
* ``brokers`` / ``subscribers`` / ``subscriptions`` / ``publishers`` —
  the live registries differential harnesses introspect: broker hosts
  (each with ``alive`` and, when up, an ``engine`` whose
  ``stream_state()`` reports the knowledge horizons), subscriber clients
  by id, their :class:`~repro.core.subend.Subscription` records, and the
  attached publisher clients;
* the **fault verbs** — ``crash_broker(id)`` / ``restart_broker(id)``
  (coroutines on the asyncio runtime, where taking a broker on and off
  the wire awaits the transport; plain methods on the simulator),
  ``fail_link(a, b)`` / ``recover_link(a, b)``, and
  ``set_link_pathology(a, b, *, drop_probability=None, jitter=None,
  corrupt_probability=None)`` / ``clear_link_pathology(a, b)`` — one
  timed override of the link's ambient loss/jitter/corruption (``None``
  keeps the ambient value, ``clear`` restores all of it), and the paper's
  §4.2 stall — ``stall_link(a, b)``, ``stall_broker(id)`` (every link of
  the broker) and ``unstall_broker(id)``: a stalled link discards data
  but still looks healthy to both ends, until ``fail_link``,
  ``recover_link``, ``unstall_broker`` or ``restart_broker`` clears it.
  Every verb reports itself once to the lifecycle hub as
  ``fault(t, kind, target)``.
  A fault schedule is a list of timed verbs ``(t, verb, args, kwargs)``
  (:meth:`repro.check.scenario.FaultSpec.steps`) that an executor applies
  with ``getattr(target, verb)(*args, **kwargs)``, awaiting the result
  when it is awaitable — no caller branches on the backend.  (The
  asyncio runtime adds three integrity verbs — ``corrupt_log``,
  ``corrupt_wire``, ``disk_full`` — that act on files and frames; the
  simulator has neither, so they are not part of this protocol and the
  simulator's driver strips them from a scenario.)

The protocol is ``runtime_checkable`` so harness code can assert
``isinstance(system, SystemFacade)`` against either backend — the
scenario drivers (:mod:`repro.check.runner`) do exactly that before
driving the simulator and the asyncio runtime through the same
scenario.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

from .client import SubscriberClient
from .core.edges import MATCH_ALL
from .core.subend import Subscription
from .matching.parser import parse

__all__ = ["SystemFacade", "SubscribeMixin", "resolve_predicate"]


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


class SubscribeMixin:
    """``subscribe``, implemented once for every backend's system (which
    provides ``obs`` and the ``brokers``/``subscribers``/``subscriptions``
    registries), so the accepted forms can never drift apart."""

    obs: Any
    brokers: Dict[str, Any]
    subscribers: Dict[str, SubscriberClient]
    subscriptions: Dict[str, Subscription]

    @property
    def metrics(self) -> Any:
        """The series recorders (``obs.hub``): the read-only alias
        experiments and examples use."""
        return self.obs.hub

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


@runtime_checkable
class SystemFacade(Protocol):
    """What every backend of the protocol engine must expose."""

    obs: Any
    #: broker_id -> broker host (``alive``; ``engine.stream_state()``).
    brokers: Dict[str, Any]
    #: subscriber_id -> attached SubscriberClient.
    subscribers: Dict[str, Any]
    #: subscriber_id -> Subscription record.
    subscriptions: Dict[str, Any]
    #: Publisher clients attached via :meth:`publisher`.
    publishers: Any

    def subscribe(
        self,
        subscriber_id: str,
        broker_id: str,
        pubends: Tuple[str, ...],
        predicate: Any = None,
        *,
        total_order: bool = False,
    ) -> Any:
        """Attach a subscriber client at an SHB."""
        ...

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
        ...

    def host_pubend(
        self,
        pubend_id: str,
        broker_id: str,
        log: Any = None,
        *,
        slot: int = 0,
        n_slots: int = 1,
        preassign_window: Optional[float] = None,
    ) -> Any:
        """Place a pubend on its hosting broker after construction."""
        ...

    # -- fault verbs (each reports ``fault(t, kind, target)`` once) --------

    def crash_broker(self, broker_id: str) -> Any:
        """Kill the broker process: soft state gone, logs survive."""
        ...

    def restart_broker(self, broker_id: str) -> Any:
        """Recover the broker from its stable storage."""
        ...

    def fail_link(self, a: str, b: str) -> None:
        """Close the link; both endpoints notice."""
        ...

    def recover_link(self, a: str, b: str) -> None:
        ...

    def stall_link(self, a: str, b: str) -> None:
        """Discard the link's data while it still looks healthy."""
        ...

    def stall_broker(self, broker_id: str) -> None:
        """Stall every link of the broker."""
        ...

    def unstall_broker(self, broker_id: str) -> None:
        ...

    def set_link_pathology(
        self,
        a: str,
        b: str,
        *,
        drop_probability: Optional[float] = None,
        jitter: Optional[float] = None,
        corrupt_probability: Optional[float] = None,
    ) -> None:
        """Override the link's ambient pathology (``None`` keeps ambient)."""
        ...

    def clear_link_pathology(self, a: str, b: str) -> None:
        """Drop the override: the link is back at its ambient values."""
        ...
