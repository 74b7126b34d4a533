"""Shared subscriber fan-out for the baseline brokers.

Both baselines deliver to locally connected subscribers through the very
class the GD SHB uses — :class:`~repro.core.subend.SubscriptionIndex`:
one matching pass per event over the indexed subscription set, then one
CPU-charged socket write per matching subscriber — so that CPU and
latency comparisons against GD isolate the *protocol* difference, not a
difference in fan-out implementations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..broker.host import SubscriberHooks
from ..core.subend import Subscription, SubscriptionIndex

__all__ = ["LocalFanout"]


class LocalFanout:
    """Local delivery of the baseline brokers: the subscription index,
    one candidate set per pubend, plus the subscribers' client hooks."""

    def __init__(self) -> None:
        self._index = SubscriptionIndex()
        self._clients: Dict[str, SubscriberHooks] = {}

    def add(self, subscription: Subscription, client: Optional[SubscriberHooks]) -> None:
        self._index.add(subscription, subscription.pubends)
        if client is not None:
            self._clients[subscription.subscriber] = client

    def has_subscribers(self, pubend: str) -> bool:
        return bool(self._index.members(pubend))

    def matching(self, pubend: str, payload: Any) -> List[Subscription]:
        return self._index.match(pubend, payload)

    def client_of(self, subscriber: str) -> Optional[SubscriberHooks]:
        return self._clients.get(subscriber)
