"""Lifecycle hook hub: the protocol's per-message event bus.

The broker engine, the broker host (either substrate), the subend manager
and the fault verbs report the *semantic* moments of a publication's life
— publish, log commit, link send, hop ingest, flush deferral, nack,
retransmission, client write, delivery, log truncation, faults — through
one :class:`LifecycleHub` owned by the system's
:class:`~repro.obs.observability.Observability`, and through nothing
else: every observer is a :class:`LifecycleListener` attached to that hub
and takes its timestamps from the hook's ``t``, so it runs unchanged on
the simulator and on the asyncio runtime.

The hub is a dumb fan-out; every call site guards with ``hub.listeners``.
A built system always carries two listeners (the
:class:`~repro.obs.hub.MetricsHub` nack series and the
:class:`~repro.obs.observability.Observability` fault log), so the guard
keeps only a bare engine free; a hook nobody overrides costs one call of
the inherited no-op.  docs/OBSERVABILITY.md lists the listeners.

This module deliberately imports nothing from the broker or core packages
so :mod:`repro.obs.observability` can own a hub without an import cycle;
message arguments are duck-typed protocol objects.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Sequence, Tuple

__all__ = ["HOOKS", "LifecycleHub", "LifecycleListener", "LifecycleRecorder"]


class LifecycleListener:
    """No-op base: override the hooks you need.

    Every hook's first argument ``t`` is the time at which the event
    happened on the emitting backend's clock (simulated seconds, or the
    event loop's clock); ``node`` is the physical broker id.  Every public
    method of this class is a hook: :class:`LifecycleHub` dispatches
    exactly the names declared here.
    """

    def published(self, t: float, node: str, pubend: str, tick: int) -> None:
        """A client publication was appended to the pubend log."""

    def committed(self, t: float, node: str, pubend: str, tick: int) -> None:
        """The log append committed; the message is now *published*."""

    def message_sent(self, t: float, node: str, dst: str, message: Any) -> None:
        """A host handed a broker-to-broker message (envelope or link
        status) to its link towards ``dst``."""

    def message_arrived(self, t: float, node: str, src: str, message: Any) -> None:
        """A broker-to-broker envelope reached a host (before CPU queue)."""

    def knowledge_ingested(
        self, t: float, node: str, src: str, message: Any, relay: bool = False
    ) -> None:
        """The engine accumulated a knowledge message into its streams."""

    def knowledge_sent(
        self,
        t: float,
        node: str,
        dst: str,
        cell: str,
        message: Any,
        kind: str,
        sideways: bool = False,
    ) -> None:
        """A knowledge message went on the wire.  ``kind`` is one of
        ``first`` / ``flush`` / ``silence`` / ``retransmit`` / ``relay``."""

    def flush_deferred(
        self,
        t: float,
        node: str,
        pubend: str,
        cell: str,
        ticks: Sequence[int],
        armed: bool,
        delay: float,
    ) -> None:
        """Batched propagation folded ticks into an ostream's pending
        flush; ``armed`` is True when this call scheduled the timer."""

    def knowledge_flushed(
        self,
        t: float,
        node: str,
        pubend: str,
        cell: str,
        ticks: Sequence[int],
        sent: bool,
    ) -> None:
        """A flush timer fired.  ``sent`` is False when the coalesced
        message turned out empty (the flush was effectively cancelled)."""

    def subend_nack(
        self,
        t: float,
        node: str,
        pubend: str,
        ranges: Sequence[Any],
        attempt: int,
    ) -> None:
        """A local subend asked for Q ticks (first send or NRT repeat)."""

    def nack_sent(
        self, t: float, node: str, pubend: str, ranges: Sequence[Any], message: Any
    ) -> None:
        """This broker put a consolidated nack message on the wire."""

    def nack_received(self, t: float, node: str, src: str, message: Any) -> None:
        """A downstream nack arrived; retransmissions sent before the
        matching :meth:`nack_done` are caused by it."""

    def nack_done(self, t: float, node: str) -> None:
        """The engine finished handling the last received nack."""

    def client_write(
        self,
        t: float,
        node: str,
        subscriber: str,
        pubend: str,
        tick: int,
        eta: float,
    ) -> None:
        """A delivery was queued on a subscriber connection; the client
        observes it ``eta`` seconds later."""

    def delivered(
        self, t: float, node: str, subscriber: str, pubend: str, tick: int
    ) -> None:
        """The subscriber client observed the delivery."""

    def silence_emitted(self, t: float, node: str, pubend: str, up_to: int) -> None:
        """A hosted pubend generated an idle-silence message."""

    def horizon_advanced(
        self, t: float, node: str, pubend: str, old: int, new: int
    ) -> None:
        """A subend's publisher-order delivery horizon moved forward."""

    def truncating(self, t: float, node: str, pubend: str, up_to: int) -> None:
        """The PHB is about to drop ``[0, up_to)`` from its stable log
        (fired *before* the entries are gone)."""

    def fault(self, t: float, kind: str, target: str) -> None:
        """A fault was applied.  ``kind`` is ``crash`` / ``restart``
        (emitted by the broker host on either backend, ``target`` the
        broker id) or a link/stall verb such as ``fail_link`` /
        ``recover_link`` (``target`` ``"a-b"``)."""


class LifecycleRecorder(LifecycleListener):
    """Order-insensitive multiset record of a run's semantic events.

    The scenario drivers (:mod:`repro.check.runner`) attach one per
    backend, and the conformance harness compares the projections that
    must agree across the simulator and the asyncio runtime regardless
    of wall-clock interleaving: how many times each publication
    *committed* and how many times each (subscriber, publication)
    *delivery* fired.  Counters
    rather than sets, so a duplicated commit or delivery — which the
    protocol forbids — shows up as a count above one instead of
    vanishing into set semantics.  Injected faults are listed as context
    for divergence reports.
    """

    def __init__(self) -> None:
        #: (pubend, tick) -> times the log append committed.
        self.committed_events: Counter = Counter()
        #: (subscriber, pubend, tick) -> times the client saw delivery.
        self.delivered_events: Counter = Counter()
        #: (kind, target) fault applications, in observation order.
        self.faults: List[Tuple[str, str]] = []

    def committed(self, t: float, node: str, pubend: str, tick: int) -> None:
        self.committed_events[(pubend, tick)] += 1

    def delivered(
        self, t: float, node: str, subscriber: str, pubend: str, tick: int
    ) -> None:
        self.delivered_events[(subscriber, pubend, tick)] += 1

    def fault(self, t: float, kind: str, target: str) -> None:
        self.faults.append((kind, target))


#: Derived from the class, so a hook cannot be declared but never dispatched.
HOOKS = tuple(
    name
    for name, value in vars(LifecycleListener).items()
    if callable(value) and not name.startswith("_")
)


def _make_fanout(methods: Sequence[Any]):
    def fanout(*args: Any, **kwargs: Any) -> None:
        for method in methods:
            method(*args, **kwargs)

    return fanout


class LifecycleHub(LifecycleListener):
    """Fan-out of lifecycle events to attached listeners.

    Call sites guard with ``if hub.listeners:`` so a hub with nothing
    attached costs nothing but the check.  Per hook, the hub binds an
    *instance* attribute shadowing the inherited no-op: the listener's
    bound method directly when exactly one listener overrides the hook
    (no dispatch frame at all — the common case is a single
    :class:`~repro.obs.causal.CausalTracer`), a fan-out closure when
    several do, and the inherited no-op when none does.
    """

    def __init__(self) -> None:
        self.listeners: List[LifecycleListener] = []

    def attach(self, listener: LifecycleListener) -> LifecycleListener:
        if listener not in self.listeners:
            self.listeners.append(listener)
            self._rebuild()
        return listener

    def detach(self, listener: LifecycleListener) -> None:
        if listener in self.listeners:
            self.listeners.remove(listener)
            self._rebuild()

    def _rebuild(self) -> None:
        for name in HOOKS:
            base = getattr(LifecycleListener, name)
            methods = [
                getattr(listener, name)
                for listener in self.listeners
                if getattr(type(listener), name, base) is not base
            ]
            if len(methods) == 1:
                setattr(self, name, methods[0])
            elif methods:
                setattr(self, name, _make_fanout(methods))
            elif name in self.__dict__:
                delattr(self, name)  # fall back to the inherited no-op
