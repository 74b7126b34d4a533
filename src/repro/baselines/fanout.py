"""The shell the baseline brokers share.

Both baselines are :class:`~repro.broker.simbroker.SimBroker`-compatible
simulator processes (same ``host_pubend`` / ``add_subscription`` /
``publish`` / ``start`` surface), so the same topology builder, clients
and workloads drive every protocol — the experiment harness only swaps
the broker factory.  They deliver to locally connected subscribers through
the very class the GD SHB uses —
:class:`~repro.core.subend.SubscriptionIndex`: one matching pass per event
over the indexed subscription set, then one CPU-charged socket write per
matching subscriber — so that CPU and latency comparisons against GD
isolate the *protocol* difference, not a difference in fan-out
implementations.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..broker.engine import stable_hash
from ..broker.host import SubscriberHooks
from ..broker.state import BrokerTopologyInfo
from ..core.config import LivenessParams
from ..core.subend import Subscription, SubscriptionIndex
from ..core.ticks import Tick, tick_of_time
from ..metrics.cpu import CostModel, CpuAccountant
from ..obs.observability import Observability
from ..sim.network import SimNetwork
from ..sim.process import SimProcess
from ..sim.scheduler import Scheduler
from ..storage.log import MessageLog

__all__ = ["BaselineBroker"]


class BaselineBroker(SimProcess):
    """Configuration surface, tick assignment, local fan-out and link
    choice of a baseline broker; the protocol is the subclass's."""

    def __init__(
        self,
        node_id: str,
        network: SimNetwork,
        scheduler: Scheduler,
        topo: BrokerTopologyInfo,
        params: LivenessParams,
        cost_model: Optional[CostModel] = None,
        client_latency: float = 0.0005,
        obs: Optional[Observability] = None,
    ):
        super().__init__(node_id, network, scheduler)
        self.topo = topo
        self.params = params
        self.obs = obs if obs is not None else Observability()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.client_latency = client_latency
        self.accountant = CpuAccountant(lambda: scheduler.now)
        self.obs.register_accountant(node_id, self.accountant)
        #: One candidate set per pubend, plus the subscribers' client hooks.
        self._index = SubscriptionIndex()
        self._clients: Dict[str, SubscriberHooks] = {}
        self._last_tick: Dict[str, Tick] = {}

    def host_pubend(
        self,
        pubend_id: str,
        log: MessageLog,
        slot: int = 0,
        n_slots: int = 1,
        preassign_window: float = 0.0,
    ) -> None:
        """Accepted for interface compatibility; a baseline keeps no
        pubend log."""
        self._last_tick.setdefault(pubend_id, -1)

    def add_subscription(
        self, subscription: Subscription, client: Optional[SubscriberHooks] = None
    ) -> None:
        self._index.add(subscription, subscription.pubends)
        if client is not None:
            self._clients[subscription.subscriber] = client

    def _assign_tick(self, pubend_id: str) -> Tick:
        tick = max(
            tick_of_time(self.scheduler.now), self._last_tick.get(pubend_id, -1) + 1
        )
        self._last_tick[pubend_id] = tick
        return tick

    def _deliver_local(self, message: Any) -> None:
        """Fan a ``(pubend, tick, payload)`` message out to the local
        subscribers it matches."""
        if not self._index.members(message.pubend):
            return
        # One matching pass per message (same consolidated cost structure
        # as GD's SHB, minus the GD bookkeeping).
        self.accountant.charge(self.cost_model.match, "match")
        for subscription in self._index.match(message.pubend, message.payload):
            completion = self.accountant.charge(self.cost_model.client_send, "fanout")
            client = self._clients.get(subscription.subscriber)
            if client is None:
                continue
            delay = (completion - self.scheduler.now) + self.client_latency
            self.schedule(
                delay,
                lambda c=client, m=message: c.on_delivery(
                    m.pubend, m.tick, m.payload, self.scheduler.now
                ),
            )

    def _send_to_cell(self, cell: str, message: Any) -> None:
        """Send over the usable link to ``cell`` the pubend hashes onto
        (nothing when none is usable)."""
        candidates = [
            n
            for n in self.topo.adjacent_in_cell(cell)
            if self.network.link_is_usable(self.node_id, n)
        ]
        if not candidates:
            return
        target = candidates[stable_hash(message.pubend) % len(candidates)]
        self.accountant.charge(self.cost_model.broker_send, "send")
        self.send(target, message, 100)
