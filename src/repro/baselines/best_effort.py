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

from ..core.ticks import Tick
from .fanout import BaselineBroker

__all__ = ["BestEffortBroker", "BEMessage"]


@dataclass(frozen=True)
class BEMessage:
    """A bare D-tick message: pubend, tick, payload — nothing else."""

    pubend: str
    tick: Tick
    payload: Any

    def to_wire(self) -> Dict[str, Any]:
        return {"kind": "be", "pubend": self.pubend, "t": self.tick, "p": self.payload}


class BestEffortBroker(BaselineBroker):
    """A broker that forwards data messages and remembers nothing."""

    def start(self) -> None:
        """Best effort has no timers."""

    # -- data path ---------------------------------------------------------

    def publish(self, pubend_id: str, payload: Any) -> Optional[Tick]:
        if not self.alive:
            return None
        self.accountant.charge(self.cost_model.msg_receive, "publish")
        tick = self._assign_tick(pubend_id)
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

    def _forward(self, message: BEMessage) -> None:
        route = self.topo.routes.get(message.pubend)
        if route is None:
            return
        for cell, filter_edge in route.downstream.items():
            if not filter_edge.matches(message.payload):
                continue
            self._send_to_cell(cell, message)
