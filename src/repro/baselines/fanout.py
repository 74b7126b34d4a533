"""Shared subscriber fan-out for the baseline brokers.

Both baselines deliver to locally connected subscribers exactly like the
GD SHB does — one matching pass per event over an indexed subscription
set, one CPU-charged socket write per matching subscriber — so that CPU
and latency comparisons against GD isolate the *protocol* difference, not
a difference in fan-out implementations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..broker.host import SubscriberHooks
from ..core.subend import Subscription
from ..matching.ast import Predicate as AstPredicate
from ..matching.tree import MatchingTree

__all__ = ["LocalFanout"]


class LocalFanout:
    """Indexed local delivery used by the baseline brokers."""

    def __init__(self) -> None:
        self._subscriptions: List[Subscription] = []
        self._clients: Dict[str, SubscriberHooks] = {}
        self._matcher = MatchingTree()
        self._indexed: set = set()
        self._by_pubend: Dict[str, List[Subscription]] = {}

    def add(self, subscription: Subscription, client: Optional[SubscriberHooks]) -> None:
        self._subscriptions.append(subscription)
        if client is not None:
            self._clients[subscription.subscriber] = client
        if isinstance(subscription.predicate, AstPredicate):
            self._matcher.add(subscription.subscriber, subscription.predicate)
            self._indexed.add(subscription.subscriber)
        for pubend in subscription.pubends:
            self._by_pubend.setdefault(pubend, []).append(subscription)

    def has_subscribers(self, pubend: str) -> bool:
        return bool(self._by_pubend.get(pubend))

    def matching(self, pubend: str, payload: Any) -> List[Subscription]:
        candidates = self._by_pubend.get(pubend, ())
        if not candidates:
            return []
        matched_ids = None
        if isinstance(payload, Mapping):
            matched_ids = self._matcher.match(payload)
        out: List[Subscription] = []
        for subscription in candidates:
            if subscription.subscriber in self._indexed:
                if matched_ids is not None and subscription.subscriber in matched_ids:
                    out.append(subscription)
            elif subscription.predicate(payload):
                out.append(subscription)
        return out

    def client_of(self, subscriber: str) -> Optional[SubscriberHooks]:
        return self._clients.get(subscriber)
