"""Publisher and subscriber clients, plus exactly-once verification.

Clients are thin: a publisher stamps each event with its publish time and
hands it to its PHB; a subscriber records deliveries, measures end-to-end
latency, and *checks the paper's service specification online*:

* Safety (a): every delivered message matches the subscription;
* Safety (b): per subend stream, delivery in strictly increasing tick
  order (and therefore at-most-once);
* Liveness: every published matching message eventually delivered —
  checked offline by :class:`DeliveryChecker` against the ground-truth
  publication record, including the *gapless* property (between two
  adjacently delivered events, no skipped matching event).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .broker.host import SubscriberHooks
from .core.subend import Subscription
from .core.ticks import Tick
from .matching.events import Event
from .obs.hub import MetricsHub
from .sim.scheduler import Scheduler
from .storage.log import LogAppendError

__all__ = [
    "PublisherClient",
    "SimPublisher",
    "SubscriberClient",
    "DeliveryChecker",
    "OrderViolation",
    "DuplicateDelivery",
]


class OrderViolation(AssertionError):
    """A message was delivered out of tick order within a subend stream."""


class DuplicateDelivery(AssertionError):
    """The same tick was delivered twice to one subscriber."""


class PublisherClient:
    """Publishes a stream of events to one pubend, one attempt per call.

    Every event is stamped with a ``ts`` attribute (its publish time on
    the injected ``clock``), which subscribers use to measure end-to-end
    latency, and a ``seq`` attribute for ground-truth bookkeeping.  When
    the PHB is down, or its stable log cannot make the append durable,
    the message is, by definition, never published (it is recorded as a
    failed attempt).

    This class is the bookkeeping every backend shares; pacing at
    ``rate`` is the backend's (:class:`SimPublisher` on the scheduler,
    :class:`~repro.aio.runtime.AioPublisher` on an asyncio task).
    """

    def __init__(
        self,
        broker: Any,
        pubend: str,
        clock: Callable[[], float],
        rate: float,
        make_attributes: Optional[Callable[[int], Dict[str, Any]]] = None,
        body_bytes: int = 0,
        max_messages: Optional[int] = None,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.broker = broker
        self.pubend = pubend
        self.clock = clock
        self.interval = 1.0 / rate
        self.make_attributes = make_attributes
        self.body = "x" * body_bytes if body_bytes else None
        #: Stop after exactly this many publish *attempts* (failed
        #: attempts count): a count-limited workload attempts the same
        #: seq sequence on any backend, which is what the conformance
        #: harness keys its cross-stack comparison on.
        self.max_messages = max_messages
        self.seq = 0
        #: (seq, tick, event) for successfully published messages.
        self.published: List[Tuple[int, Tick, Event]] = []
        self.failed_attempts = 0

    def publish_once(self) -> Optional[Tick]:
        attributes: Dict[str, Any] = {"pub": self.pubend, "seq": self.seq}
        if self.make_attributes is not None:
            attributes.update(self.make_attributes(self.seq))
        attributes["ts"] = self.clock()
        event = Event(attributes, body=self.body)
        try:
            tick = self.broker.publish(self.pubend, event)
        except LogAppendError:
            # The stable log could not be made durable (disk full, fsync
            # failure): the tick was rolled back before anything was
            # advertised, so this is a failed attempt the publisher may
            # retry — never a silently-lost published message.
            tick = None
        if tick is None:
            self.failed_attempts += 1
        else:
            self.published.append((self.seq, tick, event))
        self.seq += 1
        return tick

    @property
    def done(self) -> bool:
        """True once a count-limited publisher has made all its attempts."""
        return self.max_messages is not None and self.seq >= self.max_messages


class SimPublisher(PublisherClient):
    """A :class:`PublisherClient` paced by simulator timers."""

    def __init__(
        self, broker: Any, pubend: str, scheduler: Scheduler, rate: float, **kwargs: Any
    ):
        super().__init__(broker, pubend, lambda: scheduler.now, rate, **kwargs)
        self.scheduler = scheduler
        self._running = False

    def start(self, at: Optional[float] = None) -> None:
        self._running = True
        start_time = at if at is not None else self.scheduler.now
        self.scheduler.call_at(start_time, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        if self.done:
            self._running = False
            return
        self.publish_once()
        self.scheduler.call_later(self.interval, self._tick)


class SubscriberClient(SubscriberHooks):
    """Records deliveries and enforces the online safety checks."""

    def __init__(
        self,
        subscriber_id: str,
        metrics: Optional[MetricsHub] = None,
        check_total_order: bool = False,
    ):
        self.subscriber_id = subscriber_id
        self.metrics = metrics
        self.check_total_order = check_total_order
        #: (pubend, tick, event, deliver_time) in delivery order.
        self.received: List[Tuple[str, Tick, Any, float]] = []
        self._last_tick_per_pubend: Dict[str, Tick] = {}
        self._last_tick_global: Tick = -1
        self._seen: Set[Tuple[str, Tick]] = set()

    def on_delivery(self, pubend: str, tick: Tick, payload: Any, time: float) -> None:
        key = (pubend, tick)
        if key in self._seen:
            raise DuplicateDelivery(
                f"{self.subscriber_id}: tick {tick} of {pubend} delivered twice"
            )
        self._seen.add(key)
        last = self._last_tick_per_pubend.get(pubend, -1)
        if tick <= last:
            raise OrderViolation(
                f"{self.subscriber_id}: tick {tick} of {pubend} after {last}"
            )
        self._last_tick_per_pubend[pubend] = tick
        if self.check_total_order:
            if tick <= self._last_tick_global:
                raise OrderViolation(
                    f"{self.subscriber_id}: total order broken: "
                    f"{tick} after {self._last_tick_global}"
                )
            self._last_tick_global = tick
        self.received.append((pubend, tick, payload, time))
        if self.metrics is not None:
            send_time = _send_time_of(payload)
            if send_time is not None:
                self.metrics.latency.record(self.subscriber_id, send_time, time)

    def delivered_ticks(self, pubend: str) -> List[Tick]:
        return [t for (p, t, __, ___) in self.received if p == pubend]

    def count(self) -> int:
        return len(self.received)


def _send_time_of(payload: Any) -> Optional[float]:
    if isinstance(payload, Event):
        value = payload.get_attr("ts")
        return float(value) if value is not None else None
    if isinstance(payload, dict):
        value = payload.get("ts")
        return float(value) if value is not None else None
    return None


@dataclass
class CheckReport:
    """Outcome of an offline exactly-once verification."""

    subscriber: str
    matching_published: int
    delivered: int
    missing: List[Tuple[str, Tick]] = field(default_factory=list)
    unexpected: List[Tuple[str, Tick]] = field(default_factory=list)

    @property
    def exactly_once(self) -> bool:
        return not self.missing and not self.unexpected


class DeliveryChecker:
    """Offline verifier of the paper's service specification.

    Given the ground truth (everything successfully published, per
    publisher client) and a subscriber's delivery record, checks:

    * every delivered message was published and matches the predicate
      (safety a);
    * no published matching message is missing (liveness + gaplessness —
      a complete in-order subsequence has no internal gaps by
      construction, because the online checks enforce order and the
      set-difference here catches anything skipped).
    """

    def __init__(self, publishers: Sequence[PublisherClient]):
        self.publishers = list(publishers)

    def check(
        self, client: SubscriberClient, subscription: Subscription
    ) -> CheckReport:
        expected: Set[Tuple[str, Tick]] = set()
        for publisher in self.publishers:
            if publisher.pubend not in subscription.pubends:
                continue
            for __, tick, event in publisher.published:
                if subscription.predicate(event):
                    expected.add((publisher.pubend, tick))
        delivered = {(p, t) for (p, t, __, ___) in client.received}
        missing = sorted(expected - delivered)
        unexpected = sorted(delivered - expected)
        return CheckReport(
            subscriber=client.subscriber_id,
            matching_published=len(expected),
            delivered=len(delivered),
            missing=missing,
            unexpected=unexpected,
        )
