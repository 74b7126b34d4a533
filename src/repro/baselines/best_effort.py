"""Best-effort delivery baseline.

The comparison protocol of the paper's overhead experiments (section 4.1):
"The best-effort delivery protocol used for comparison does not perform
any knowledge accumulation, curiosity propagation, message logging or
retransmission, and only sends downstream D tick messages."

:class:`BestEffortBroker` is interface-compatible with
:class:`~repro.broker.simbroker.SimBroker` (same ``host_pubend`` /
``add_subscription`` / ``publish`` / ``start`` surface), so the same
topology builder, clients and workloads drive both protocols — the
experiment harness only swaps the broker factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..broker.engine import stable_hash
from ..broker.host import SubscriberHooks
from .fanout import LocalFanout
from ..broker.state import BrokerTopologyInfo
from ..core.config import LivenessParams
from ..core.subend import Subscription
from ..core.ticks import Tick, tick_of_time
from ..metrics.cpu import CostModel, CpuAccountant
from ..obs.observability import Observability
from ..sim.network import SimNetwork
from ..sim.process import SimProcess
from ..sim.scheduler import Scheduler
from ..storage.log import MessageLog

__all__ = ["BestEffortBroker", "BEMessage"]


@dataclass(frozen=True)
class BEMessage:
    """A bare D-tick message: pubend, tick, payload — nothing else."""

    pubend: str
    tick: Tick
    payload: Any

    def to_wire(self) -> Dict[str, Any]:
        return {"kind": "be", "pubend": self.pubend, "t": self.tick, "p": self.payload}


class BestEffortBroker(SimProcess):
    """A broker that forwards data messages and remembers nothing."""

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
        self._fanout = LocalFanout()
        self._last_tick: Dict[str, Tick] = {}

    # -- SimBroker-compatible configuration surface -------------------------

    def host_pubend(
        self,
        pubend_id: str,
        log: MessageLog,
        slot: int = 0,
        n_slots: int = 1,
        preassign_window: Optional[float] = None,
    ) -> None:
        """Accepted for interface compatibility; best effort never logs."""
        self._last_tick.setdefault(pubend_id, -1)

    def add_subscription(
        self, subscription: Subscription, client: Optional[SubscriberHooks] = None
    ) -> None:
        self._fanout.add(subscription, client)

    def start(self) -> None:
        """Best effort has no timers."""

    # -- data path ---------------------------------------------------------

    def publish(self, pubend_id: str, payload: Any) -> Optional[Tick]:
        if not self.alive:
            return None
        self.accountant.charge(self.cost_model.msg_receive, "publish")
        tick = max(tick_of_time(self.scheduler.now), self._last_tick.get(pubend_id, -1) + 1)
        self._last_tick[pubend_id] = tick
        self._handle(BEMessage(pubend_id, tick, payload))
        return tick

    def on_message(self, src: str, message: Any) -> None:
        if not isinstance(message, BEMessage):
            return
        self.accountant.charge(self.cost_model.msg_receive, "receive")
        self._handle(message)

    def _handle(self, message: BEMessage) -> None:
        self._deliver_local(message)
        self._forward(message)

    def _deliver_local(self, message: BEMessage) -> None:
        if not self._fanout.has_subscribers(message.pubend):
            return
        # One matching pass per message (same consolidated cost structure
        # as GD's SHB, minus the GD bookkeeping).
        self.accountant.charge(self.cost_model.match, "match")
        for subscription in self._fanout.matching(message.pubend, message.payload):
            completion = self.accountant.charge(self.cost_model.client_send, "fanout")
            client = self._fanout.client_of(subscription.subscriber)
            if client is None:
                continue
            delay = (completion - self.scheduler.now) + self.client_latency
            self.schedule(
                delay,
                lambda c=client, m=message: c.on_delivery(
                    m.pubend, m.tick, m.payload, self.scheduler.now
                ),
            )

    def _forward(self, message: BEMessage) -> None:
        route = self.topo.routes.get(message.pubend)
        if route is None:
            return
        for cell, filter_edge in route.downstream.items():
            if not filter_edge.matches(message.payload):
                continue
            candidates = [
                n
                for n in self.topo.adjacent_in_cell(cell)
                if self.network.link_is_usable(self.node_id, n)
            ]
            if not candidates:
                continue
            target = candidates[stable_hash(message.pubend) % len(candidates)]
            self.accountant.charge(self.cost_model.broker_send, "send")
            self.send(target, message, 100)
