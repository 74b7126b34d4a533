"""Store-and-forward (DCP-like) hop-by-hop reliable baseline.

The related-work comparison (paper section 5): message-queueing systems
and DCP guarantee delivery by making each hop a reliable sender for the
next — every broker logs each message and reconstructs a *gapless* stream
before forwarding, so "the entire stream is delayed when a single gap is
found", and logging cost is paid at every hop rather than only at the
publishing broker.

The implementation is deliberately structured like that description:

* per (pubend, hop) sequence numbers, a cursor of the next sequence
  expected, and an out-of-order hold-back buffer;
* per-hop acknowledgements; the sender retransmits unacked messages on a
  timer (hop-by-hop reliability);
* per-hop logging cost charged to the CPU accountant, and per-hop commit
  latency added to the forwarding path;
* in-order-only forwarding/delivery: a gap stalls everything behind it.

Interface-compatible with :class:`~repro.broker.simbroker.SimBroker` so
the shared topology/workload harness drives it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..broker.state import BrokerTopologyInfo
from ..core.config import LivenessParams
from ..core.ticks import Tick
from ..metrics.cpu import CostModel
from ..obs.observability import Observability
from ..sim.network import SimNetwork
from ..sim.scheduler import Scheduler
from .fanout import BaselineBroker

__all__ = ["StoreForwardBroker", "SFMessage", "SFAck"]


@dataclass(frozen=True)
class SFMessage:
    """A sequenced hop-by-hop message."""

    pubend: str
    seq: int
    tick: Tick
    payload: Any


@dataclass(frozen=True)
class SFAck:
    """Cumulative per-hop acknowledgement: all seq < ``up_to`` received."""

    pubend: str
    up_to: int


class _HopSender:
    """Reliable sender state towards one downstream cell."""

    __slots__ = ("cell", "next_seq", "unacked")

    def __init__(self, cell: str):
        self.cell = cell
        self.next_seq = 0
        #: seq -> message awaiting cumulative ack.
        self.unacked: Dict[int, SFMessage] = {}


class _HopReceiver:
    """Gapless reassembly state from the upstream hop."""

    __slots__ = ("next_expected", "buffer")

    def __init__(self) -> None:
        self.next_expected = 0
        #: seq -> message held back because of a gap below it.
        self.buffer: Dict[int, SFMessage] = {}


class StoreForwardBroker(BaselineBroker):
    """Hop-by-hop reliable store-and-forward broker."""

    #: Retransmission timer for unacked hop messages.
    RETRANSMIT_INTERVAL = 0.3

    def __init__(
        self,
        node_id: str,
        network: SimNetwork,
        scheduler: Scheduler,
        topo: BrokerTopologyInfo,
        params: LivenessParams,
        cost_model: Optional[CostModel] = None,
        client_latency: float = 0.0005,
        hop_commit_latency: float = 0.02,
        obs: Optional[Observability] = None,
    ):
        super().__init__(
            node_id, network, scheduler, topo, params, cost_model, client_latency, obs
        )
        self.hop_commit_latency = hop_commit_latency
        self._senders: Dict[Tuple[str, str], _HopSender] = {}
        self._receivers: Dict[str, _HopReceiver] = {}
        self.retransmissions = 0
        self._started = False

    def start(self) -> None:
        self._started = True
        self.every(self.RETRANSMIT_INTERVAL, self._retransmit_unacked)

    # -- data path ------------------------------------------------------------

    def publish(self, pubend_id: str, payload: Any) -> Optional[Tick]:
        if not self.alive:
            return None
        self.accountant.charge(
            self.cost_model.msg_receive + self.cost_model.log_append, "publish"
        )
        tick = self._assign_tick(pubend_id)
        message = SFMessage(pubend_id, -1, tick, payload)
        # The publishing hop also pays commit latency before forwarding.
        self.schedule(self.hop_commit_latency, lambda: self._emit(message))
        return tick

    def _emit(self, message: SFMessage) -> None:
        self._deliver_local(message)
        self._forward(message)

    def on_message(self, src: str, message: Any) -> None:
        if isinstance(message, SFAck):
            self._on_ack(src, message)
            return
        if not isinstance(message, SFMessage):
            return
        self.accountant.charge(
            self.cost_model.msg_receive + self.cost_model.log_append, "receive"
        )
        receiver = self._receivers.setdefault(message.pubend, _HopReceiver())
        if message.seq < receiver.next_expected:
            # Duplicate of something already reassembled; re-ack.
            self._ack_upstream(src, message.pubend, receiver.next_expected)
            return
        receiver.buffer[message.seq] = message
        released: List[SFMessage] = []
        while receiver.next_expected in receiver.buffer:
            released.append(receiver.buffer.pop(receiver.next_expected))
            receiver.next_expected += 1
        self._ack_upstream(src, message.pubend, receiver.next_expected)
        for ready in released:
            # Gapless reconstruction: each hop logs, then forwards after
            # its own commit latency.
            self.schedule(self.hop_commit_latency, lambda m=ready: self._emit(m))

    def _ack_upstream(self, src: str, pubend: str, up_to: int) -> None:
        self.accountant.charge(self.cost_model.control, "ack")
        self.send(src, SFAck(pubend, up_to), 48)

    def _on_ack(self, src: str, ack: SFAck) -> None:
        cell = self.topo.cell_of.get(src)
        if cell is None:
            return
        sender = self._senders.get((ack.pubend, cell))
        if sender is None:
            return
        for seq in [s for s in sender.unacked if s < ack.up_to]:
            del sender.unacked[seq]

    def _forward(self, message: SFMessage) -> None:
        route = self.topo.routes.get(message.pubend)
        if route is None:
            return
        for cell, filter_edge in route.downstream.items():
            if not filter_edge.matches(message.payload):
                continue
            sender = self._senders.setdefault(
                (message.pubend, cell), _HopSender(cell)
            )
            hop_message = SFMessage(
                message.pubend, sender.next_seq, message.tick, message.payload
            )
            sender.next_seq += 1
            sender.unacked[hop_message.seq] = hop_message
            self._send_to_cell(cell, hop_message)

    def _retransmit_unacked(self) -> None:
        for (pubend, cell), sender in self._senders.items():
            for seq in sorted(sender.unacked):
                self.retransmissions += 1
                self._send_to_cell(cell, sender.unacked[seq])
