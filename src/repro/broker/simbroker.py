"""A physical broker hosted in the discrete-event simulator.

Wraps :class:`~repro.broker.engine.GDBrokerEngine` in a
:class:`~repro.sim.process.SimProcess`: network I/O goes through the
simulated links, timers through the scheduler, CPU work through a
:class:`~repro.metrics.cpu.CpuAccountant`, and client deliveries are
scheduled at CPU-work completion time plus the client link latency (which
is what makes SHB fan-out latency grow with subscriber count, Figure 5).

Everything that is not substrate — pubend hosting, the engine
lifecycle, the crash/recover sequence — is inherited from
:class:`~repro.broker.host.BrokerHost`;
:class:`~repro.sim.process.SimProcess` drives its ``on_crash``/
``on_restart`` hooks.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Set, Tuple

from ..core.config import LivenessParams
from ..core.ticks import Tick
from ..metrics.cpu import CostModel, CpuAccountant
from ..obs.observability import Observability
from ..sim.network import SimNetwork
from ..sim.process import SimProcess
from ..sim.scheduler import Scheduler
from .engine import BrokerServices
from .host import BrokerHost
from .state import BrokerTopologyInfo

__all__ = ["SimBroker"]


class _SimServices(BrokerServices):
    def __init__(self, broker: "SimBroker"):
        self.broker = broker

    def now(self) -> float:
        return self.broker.scheduler.now

    def schedule(self, delay: float, fn: Callable[[], None]):
        return self.broker.schedule(delay, fn)

    def send(self, dst: str, message: Any, size: int = 100) -> bool:
        broker = self.broker
        broker.accountant.charge(broker.cost_model.broker_send, "send")
        hub = broker.obs.lifecycle
        if hub.listeners:
            hub.message_sent(broker.scheduler.now, broker.node_id, dst, message)
        return broker.send(dst, message, size)

    def link_usable(self, neighbor: str) -> bool:
        # Models the TCP connection state: an adjacent failure (closed
        # connection / dead process) is observed immediately, but a
        # *stalled* peer looks healthy (paper section 4.2).
        network = self.broker.network
        if not network.has_link(self.broker.node_id, neighbor):
            return False
        link = network.link(self.broker.node_id, neighbor)
        return link.up and link.other(self.broker.node_id).alive

    def deliver(self, subscriber: str, pubend: str, tick: Tick, payload: Any) -> None:
        self.broker.deliver_to_client(subscriber, pubend, tick, payload)

    def charge(self, cost: float, category: str) -> None:
        self.broker.charge_category(category)


class SimBroker(BrokerHost, SimProcess):
    """One physical Gryphon broker in the simulator."""

    def __init__(
        self,
        node_id: str,
        network: SimNetwork,
        scheduler: Scheduler,
        topo: BrokerTopologyInfo,
        params: LivenessParams,
        cost_model: Optional[CostModel] = None,
        client_latency: float = 0.0005,
        restart_warmup: float = 0.3,
        obs: Optional[Observability] = None,
    ):
        SimProcess.__init__(self, node_id, network, scheduler)
        BrokerHost.__init__(self, node_id, topo, params, _SimServices(self), obs)
        #: CPU-seconds of extra work charged right after a restart —
        #: models the paper's observation that a freshly restarted broker
        #: is briefly slow ("extra computation in the broker machine just
        #: when it starts up, such as to run the Java JIT compiler",
        #: section 4.2), which produces Figure 7's second latency peak.
        self.restart_warmup = restart_warmup
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.client_latency = client_latency
        self.accountant = CpuAccountant(lambda: scheduler.now)
        self.obs.register_accountant(node_id, self.accountant)
        #: Client writes handed to the connection but not yet completed:
        #: (subscriber, pubend, tick).  Only an SHB crash can void these,
        #: which is what makes "acked but still in flight" safe to truncate
        #: behind — and what the truncation oracle introspects.
        self._inflight_client_writes: Set[Tuple[str, str, Tick]] = set()

    # ------------------------------------------------------------------
    # Publishing and delivery
    # ------------------------------------------------------------------

    def publish(self, pubend_id: str, payload: Any) -> Optional[Tick]:
        """Client publish, charged as receive + log append (the GD cost)."""
        if self.alive:
            self.accountant.charge(
                self.cost_model.msg_receive + self.cost_model.log_append, "publish"
            )
        return super().publish(pubend_id, payload)

    def deliver_to_client(
        self, subscriber: str, pubend: str, tick: Tick, payload: Any
    ) -> None:
        """Queue the per-subscriber socket write; the client sees the
        message when the write completes (CPU queue + client link)."""
        completion = self.accountant.charge(self.cost_model.client_send, "fanout")
        client = self._clients.get(subscriber)
        if client is None:
            return
        delay = (completion - self.scheduler.now) + self.client_latency
        key = (subscriber, pubend, tick)
        self._inflight_client_writes.add(key)
        lifecycle = self.obs.lifecycle
        if lifecycle.listeners:
            lifecycle.client_write(
                self.scheduler.now, self.node_id, subscriber, pubend, tick, delay
            )

        def complete() -> None:
            self._inflight_client_writes.discard(key)
            if lifecycle.listeners:
                lifecycle.delivered(
                    self.scheduler.now, self.node_id, subscriber, pubend, tick
                )
            client.on_delivery(pubend, tick, payload, self.scheduler.now)

        self.schedule(delay, complete)

    def client_write_inflight(self, subscriber: str, pubend: str, tick: Tick) -> bool:
        """Whether a delivery is queued on the subscriber's connection
        (scheduled but not yet observed by the client)."""
        return (subscriber, pubend, tick) in self._inflight_client_writes

    def charge_category(self, category: str) -> None:
        model = self.cost_model
        if category == "knowledge_receive":
            cost = model.msg_receive + model.knowledge_update
            if self.engine.subend is not None:
                # Consolidated per-message (not per-subscriber) GD subend
                # bookkeeping — the reason the GD-vs-BE gap stays constant
                # as subscribers grow (paper section 4.1).
                cost += model.gd_subend_update + model.match
        elif category == "knowledge_send":
            cost = 0.0  # charged in _SimServices.send
        elif category == "knowledge_flush":
            cost = model.knowledge_flush
        elif category == "publish":
            cost = model.knowledge_update
        else:
            cost = model.control
        if cost:
            self.accountant.charge(cost, category)

    # ------------------------------------------------------------------
    # SimProcess plumbing
    # ------------------------------------------------------------------

    def on_message(self, src: str, message: Any) -> None:
        # Messages are processed when the CPU gets to them: a busy or
        # freshly restarted broker delays its queue, which is visible as
        # end-to-end latency (Figures 5 and 7).
        lifecycle = self.obs.lifecycle
        if lifecycle.listeners:
            # Raw arrival time, before the CPU work queue: the gap to the
            # engine's ingest is attributable queueing delay.
            lifecycle.message_arrived(self.scheduler.now, self.node_id, src, message)
        completion = self.accountant.charge(self.cost_model.msg_receive, "receive")
        delay = completion - self.scheduler.now
        if delay > 1e-6:
            self.schedule(delay, lambda: self._process(src, message))
        else:
            self.engine.on_message(src, message)

    def _process(self, src: str, message: Any) -> None:
        if self.alive and self.engine is not None:
            self.engine.on_message(src, message)

    def on_crash(self) -> None:
        # Queued client writes are voided with the process (their timers
        # are epoch-gated), so they must not keep reading as "in flight".
        self._inflight_client_writes.clear()
        super().on_crash()

    def on_restart(self) -> None:
        if self.restart_warmup:
            self.accountant.charge(self.restart_warmup, "warmup")
        super().on_restart()
