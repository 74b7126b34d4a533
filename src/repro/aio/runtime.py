"""Asyncio broker runtime: the GD engine in real time.

Hosts the same :class:`~repro.broker.engine.GDBrokerEngine` used by the
simulator on an asyncio event loop, with wall-clock liveness timers and a
pluggable transport (:class:`~repro.aio.transport.LocalTransport` or
:class:`~repro.aio.transport.TcpTransport`).

The runtime is a production-grade second backend for the protocol, not
just a demo: pubends persist to :class:`~repro.storage.log.FileLog` when
the system is given a ``data_dir`` (a crashed broker reopens and replays
its logs on restart, recovering assigned ticks and its doubt horizon),
broker inboxes are bounded with a configurable slow-consumer policy,
scheduled protocol timers are tracked and cancelled on crash/shutdown,
and the :class:`~repro.obs.lifecycle.LifecycleHub`/Instruments pipeline
observes the real-time path exactly as it does the simulator.

Throughput numbers from this runtime are *not* the evaluation substrate
(the repro band notes asyncio throughput is less faithful than the
simulator); use ``python -m repro bench`` for the gated counters and the
simulator for the paper's figures.
"""

from __future__ import annotations

import asyncio
import inspect
import os
from collections import Counter
from typing import Any, Callable, Iterable, Optional, Set, Tuple

from ..broker.engine import BrokerServices
from ..broker.host import BrokerHost
from ..broker.state import BrokerTopologyInfo
from ..client import PublisherClient
from ..core.config import LivenessParams
from ..core.ticks import Tick
from ..facade import SystemFacade
from ..obs.observability import Observability
from ..storage.faults import corrupt_log_file
from ..storage.log import FileLog, MessageLog
from ..topology import Topology, TopologyPlan
from .transport import LocalTransport, Transport

__all__ = [
    "AioBroker",
    "AioSystem",
    "AioPublisher",
    "KNOWN_MUTATIONS",
    "run_schedule",
]

#: Deliberate protocol defects the runtime can be built with, for
#: harness self-tests (the conformance harness must *detect* a mutated
#: runtime diverging from the simulator; see docs/TESTING.md):
#:
#: * ``"suppress-retransmit"`` — every retransmission envelope is
#:   silently discarded at the sending broker instead of hitting the
#:   wire, so curiosity is never answered and dropped guaranteed traffic
#:   stays lost.
KNOWN_MUTATIONS = frozenset({"suppress-retransmit"})

#: Micro-batch size of the inbox drain task: each wakeup processes up to
#: this many queued messages before yielding to the loop, instead of
#: paying a full task switch per message.
_INBOX_BATCH = 64


class _Timer:
    """A broker timer: runs ``fn`` only in the incarnation that armed it,
    keeping a raise in the broker's :attr:`~AioBroker.failure` as
    :meth:`AioBroker._process` does, and is in the broker's tracking set
    exactly while it is pending — it leaves when it fires or is
    cancelled, so the set never needs a sweep and arming stays O(1)
    however many timers are live."""

    __slots__ = ("broker", "epoch", "fn", "handle")

    def __init__(self, broker: "AioBroker", delay: float, fn: Callable[[], None]):
        self.broker = broker
        self.epoch = broker.epoch
        self.fn = fn
        self.handle = asyncio.get_running_loop().call_later(delay, self._fire)
        broker._pending_timers.add(self)

    def _fire(self) -> None:
        broker = self.broker
        broker._pending_timers.discard(self)
        if broker.alive and broker.epoch == self.epoch:
            try:
                self.fn()
            except Exception as exc:
                if broker.failure is None:
                    broker.failure = exc

    def cancel(self) -> None:
        self.handle.cancel()
        self.broker._pending_timers.discard(self)

    def cancelled(self) -> bool:
        return self.handle.cancelled()


class _AioServices(BrokerServices):
    def __init__(self, broker: "AioBroker"):
        self.broker = broker

    def now(self) -> float:
        return asyncio.get_running_loop().time()

    def schedule(self, delay: float, fn: Callable[[], None]) -> _Timer:
        return _Timer(self.broker, delay, fn)

    def send(self, dst: str, message: Any, size: int = 100) -> bool:
        broker = self.broker
        if not broker.alive:
            return False
        payload = getattr(message, "payload", None)
        if broker.mutations and "suppress-retransmit" in broker.mutations:
            if getattr(payload, "retransmit", False):
                broker.mutation_counts["suppress-retransmit"] += 1
                return True  # claims success; the frame never leaves
        hub = broker.obs.lifecycle
        if hub.listeners:
            hub.message_sent(self.now(), broker.broker_id, dst, message)
        # Piggyback: when a data-carrying message joins the transport's
        # end-of-turn flush, the knowledge deltas waiting on an engine
        # flush timer can ride in the same frame instead of paying their
        # own one flush_delay later.  The check is deferred via call_soon
        # — the engine is mid-dispatch right now — and queued at the
        # first send made while deltas wait, whatever it carries, so it
        # runs ahead of every transport flush this turn's sends schedule.
        engine = broker.engine
        if (
            engine is not None
            and engine.dirty_ostreams
            and not broker._piggyback_scheduled
        ):
            broker._piggyback_scheduled = True
            asyncio.get_running_loop().call_soon(
                broker._piggyback_flush, broker.epoch
            )
        ok = broker.transport.send(broker.broker_id, dst, message)
        if (
            ok
            and broker._piggyback_scheduled
            and getattr(payload, "data", None)
            and not getattr(payload, "retransmit", False)
        ):
            broker._piggyback_due = True
        return ok

    def link_usable(self, neighbor: str) -> bool:
        return self.broker.transport.link_usable(self.broker.broker_id, neighbor)

    def deliver(self, subscriber: str, pubend: str, tick: Tick, payload: Any) -> None:
        self.broker.deliver(subscriber, pubend, tick, payload)


class AioBroker(BrokerHost):
    """One broker process on the event loop.

    Pubend hosting, the engine lifecycle and the crash/recover sequence
    are :class:`~repro.broker.host.BrokerHost`'s; this class adds the
    asyncio substrate — the bounded inbox, wall-clock timers tracked for
    cancellation, and the self-test mutations.

    ``inbox_limit`` bounds the broker's receive queue; ``slow_consumer``
    picks what happens when it fills:

    * ``"backpressure"`` (default) — async senders (the TCP reader) wait
      for space, which suspends the socket reader and lets TCP flow
      control push back on the remote broker; in-process senders fall
      back to inline processing (bounded memory, nothing dropped).
    * ``"shed"`` — the newest arrival is discarded and counted in the
      ``aio_inbox_shed`` instrument.  Never silent: guaranteed traffic
      shed here is recovered by the protocol's curiosity/retransmission
      machinery, but the counter makes the pressure visible.
    """

    def __init__(
        self,
        broker_id: str,
        info: BrokerTopologyInfo,
        params: LivenessParams,
        transport: Transport,
        obs: Optional[Observability] = None,
        inbox_limit: int = 1024,
        slow_consumer: str = "backpressure",
        mutations: frozenset = frozenset(),
    ):
        if slow_consumer not in ("backpressure", "shed"):
            raise ValueError(
                f"slow_consumer must be 'backpressure' or 'shed', "
                f"got {slow_consumer!r}"
            )
        self.transport = transport
        self.alive = True
        self.epoch = 0
        self.inbox_limit = inbox_limit
        self.slow_consumer = slow_consumer
        #: True while a deferred piggyback check is queued on the loop.
        self._piggyback_scheduled = False
        #: A first-time data message was sent since the last check: the
        #: check flushes the pending deltas to ride its frame.
        self._piggyback_due = False
        #: Active deliberate defects (subset of KNOWN_MUTATIONS) and how
        #: often each one fired — self-test instrumentation, never set in
        #: production deployments.
        self.mutations = mutations
        self.mutation_counts: Counter = Counter()
        self._pending_timers: Set[_Timer] = set()
        self._inbox: Optional["asyncio.Queue[Tuple[str, Any]]"] = None
        self._drain_task: Optional[asyncio.Task] = None
        #: First exception raised while processing the inbox (e.g. a
        #: client's DuplicateDelivery) — surfaced by shutdown()/chaos.
        self.failure: Optional[BaseException] = None
        self.shed_count = 0
        super().__init__(broker_id, info, params, _AioServices(self), obs)

    def start(self) -> None:
        """Spin up the inbox drain task and arm protocol timers."""
        self._inbox = asyncio.Queue(maxsize=self.inbox_limit)
        self._drain_task = asyncio.get_running_loop().create_task(self._drain())
        super().start()

    # -- timer tracking ----------------------------------------------------

    def _cancel_timers(self) -> None:
        for timer in self._pending_timers:
            timer.handle.cancel()
        self._pending_timers.clear()

    # -- data path ---------------------------------------------------------

    def on_receive(self, src: str, message: Any) -> None:
        """Synchronous receive (LocalTransport): enqueue, applying the
        slow-consumer policy when the inbox is full."""
        if not self.alive or self._inbox is None:
            return
        try:
            self._inbox.put_nowait((src, message))
        except asyncio.QueueFull:
            if self.slow_consumer == "shed":
                self.shed_count += 1
                self.obs.instruments.counter(
                    "aio_inbox_shed",
                    "messages discarded by a full broker inbox",
                    broker=self.broker_id,
                ).inc()
            else:
                # In-process senders have no socket to push back on;
                # process inline so nothing is dropped and memory stays
                # bounded by the queue.  Its acks leave before this
                # returns — or, when this send began in one of this
                # broker's own drain batches, when that batch's turn ends.
                self._process(src, message)

    async def on_receive_async(self, src: str, message: Any) -> None:
        """Awaitable receive (TcpTransport): a full inbox suspends the
        caller — the socket reader — so TCP flow control backpressures
        the remote broker."""
        if not self.alive or self._inbox is None:
            return
        if self.slow_consumer == "shed":
            self.on_receive(src, message)
            return
        await self._inbox.put((src, message))

    async def _drain(self) -> None:
        """Inbox pump: block for the first message, then greedily drain
        up to ``_INBOX_BATCH`` already-queued messages in the same wakeup
        — one task switch amortized over the whole micro-batch.  The
        micro-batch is one engine turn: the acks it makes due leave once,
        when it ends."""
        inbox = self._inbox
        assert inbox is not None
        try:
            while True:
                src, message = await inbox.get()
                self.engine.open_turn()
                try:
                    self._process(src, message)
                finally:
                    inbox.task_done()
                for _ in range(_INBOX_BATCH - 1):
                    try:
                        src, message = inbox.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    try:
                        self._process(src, message)
                    finally:
                        inbox.task_done()
                self._close_turn()
        except asyncio.CancelledError:
            pass

    def _piggyback_flush(self, epoch: int) -> None:
        """Deferred piggyback check queued by :meth:`_AioServices.send`:
        flush the pending deltas eagerly if a data message went out."""
        due = self._piggyback_due
        self._piggyback_scheduled = self._piggyback_due = False
        if due and self.alive and self.epoch == epoch and self.engine is not None:
            self.engine.flush_dirty_ostreams()

    def _process(self, src: str, message: Any) -> None:
        """Handle one message.  This is the boundary that must keep
        running: a handler exception is kept in :attr:`failure` (the first
        one; chaos and conformance report it) and the broker goes on to
        the next message — one poisoned message must not kill the drain
        task, block the TCP reader behind a full inbox and lose every
        delivery queued after it."""
        if not self.alive:
            return
        try:
            hub = self.obs.lifecycle
            if hub.listeners:
                hub.message_arrived(
                    asyncio.get_running_loop().time(), self.broker_id, src, message
                )
            self.engine.on_message(src, message)
        except Exception as exc:
            if self.failure is None:
                self.failure = exc

    def _close_turn(self) -> None:
        """Send the micro-batch's acks inside the :meth:`_process`
        boundary: a raise is kept in :attr:`failure`, and the drain task
        goes on to the next batch."""
        try:
            self.engine.close_turn()
        except Exception as exc:
            if self.failure is None:
                self.failure = exc

    def deliver(self, subscriber: str, pubend: str, tick: Tick, payload: Any) -> None:
        now = asyncio.get_running_loop().time()
        hub = self.obs.lifecycle
        if hub.listeners:
            hub.delivered(now, self.broker_id, subscriber, pubend, tick)
        client = self._clients.get(subscriber)
        if client is not None:
            client.on_delivery(pubend, tick, payload, now)

    # -- lifecycle -----------------------------------------------------------

    def crash(self) -> None:
        """Kill the broker: soft state gone, timers cancelled, log file
        handles closed (the files survive on disk).  Taking it off the
        wire is the system's half (:meth:`AioSystem.crash_broker`)."""
        if not self.alive:
            return
        self.alive = False
        self.epoch += 1
        self._cancel_timers()
        if self._drain_task is not None:
            self._drain_task.cancel()
            self._drain_task = None
        self._inbox = None
        self.on_crash()

    def restart(self) -> None:
        """Recover from stable storage (see :meth:`BrokerHost.on_restart`)."""
        if self.alive:
            return
        self.alive = True
        self.epoch += 1
        self.on_restart()

    async def shutdown(self) -> None:
        """Graceful stop: drain the inbox, cancel timers, close logs."""
        if not self.alive:
            return
        if self._inbox is not None and self._drain_task is not None:
            if not self._drain_task.done():
                await self._inbox.join()
        self.alive = False
        self.epoch += 1
        self._cancel_timers()
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except (asyncio.CancelledError, Exception):
                pass
            self._drain_task = None
        self._inbox = None
        for log in self.hosted_logs().values():
            log.close()


class AioPublisher(PublisherClient):
    """A :class:`~repro.client.PublisherClient` paced by an asyncio task."""

    def __init__(self, broker: AioBroker, pubend: str, rate: float, **kwargs: Any):
        super().__init__(broker, pubend, broker.services.now, rate, **kwargs)
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        try:
            while not self.done:
                self.publish_once()
                await asyncio.sleep(self.interval)
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None


class AioSystem(SystemFacade):
    """A whole deployment on one event loop, built from a Topology.

    The shared surface is :class:`~repro.facade.SystemFacade`'s, with
    ``run_for`` returning elapsed time.  ``data_dir`` turns on
    durability: every pubend gets a :class:`~repro.storage.log.FileLog`
    under that directory, and a crashed broker replays it on restart.
    """

    def __init__(
        self,
        topology: Topology,
        params: Optional[LivenessParams] = None,
        transport: Optional[Transport] = None,
        log_commit_latency: float = 0.0,
        log_factory: Optional[Callable[[str], MessageLog]] = None,
        *,
        data_dir: Optional[str] = None,
        inbox_limit: int = 1024,
        slow_consumer: str = "backpressure",
        mutations: Any = (),
    ):
        mutations = frozenset(mutations)
        unknown = mutations - KNOWN_MUTATIONS
        if unknown:
            raise ValueError(
                f"unknown mutation(s) {sorted(unknown)}; "
                f"known: {sorted(KNOWN_MUTATIONS)}"
            )
        self.mutations = mutations
        params = params if params is not None else LivenessParams()
        self.transport = transport if transport is not None else LocalTransport()
        obs = Observability()
        self.transport.bind_instruments(obs.instruments)
        self.plan: TopologyPlan = topology.plan()
        self._data_dir = data_dir
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            if log_factory is None:
                log_factory = self._file_log
        brokers = {
            broker_id: AioBroker(
                broker_id,
                info,
                params,
                self.transport,
                obs=obs,
                inbox_limit=inbox_limit,
                slow_consumer=slow_consumer,
                mutations=mutations,
            )
            for broker_id, info in self.plan.infos.items()
        }
        super().__init__(
            self.transport, brokers, params, obs, log_commit_latency, log_factory
        )
        self._host_planned_pubends(self.plan)

    @property
    def now(self) -> float:
        return asyncio.get_running_loop().time()

    def _new_publisher(
        self, broker: AioBroker, pubend: str, rate: float, **kwargs: Any
    ) -> AioPublisher:
        return AioPublisher(broker, pubend, rate, **kwargs)

    def _log_path(self, pubend_id: str) -> str:
        return os.path.join(self._data_dir, f"{pubend_id}.log")

    def _file_log(self, pubend_id: str) -> FileLog:
        """Default durable log: one checksummed record file per pubend
        under ``data_dir`` (see docs/DEPLOYMENT.md for the layout).
        Instruments are threaded through so replay quarantines and
        append failures surface as ``log_records_quarantined`` /
        ``log_append_errors``."""
        return FileLog(
            self._log_path(pubend_id),
            commit_latency=self._log_commit_latency,
            instruments=self.obs.instruments,
        )

    async def start(self) -> None:
        """Bring every broker online (TCP transports start listening)."""
        for broker in self.brokers.values():
            await self._attach(broker)
        for broker in self.brokers.values():
            broker.start()

    async def _attach(self, broker: AioBroker) -> None:
        await self.transport.attach(
            broker.broker_id, broker.on_receive, broker.on_receive_async
        )

    async def run_for(self, duration: float) -> float:
        """Let the system run; returns elapsed wall-clock time (the
        real-time analogue of the simulator's returned sim time)."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        await asyncio.sleep(duration)
        return loop.time() - start

    # -- fault verbs -------------------------------------------------------
    # Crash and restart await the transport, so they are coroutines here;
    # the other verbs are the shell's.

    async def crash_broker(self, broker_id: str) -> None:
        """Crash a broker: its listening socket closes, connections drop,
        soft state and log handles are gone; log *files* survive."""
        self.brokers[broker_id].crash()
        await self.transport.detach(broker_id)
        self._report_fault("crash", broker_id)

    async def restart_broker(self, broker_id: str) -> None:
        """Restart a crashed broker: a new listening socket (new port —
        peers re-resolve it through their connection supervisors), then
        log replay and doubt-horizon re-advertisement.  A live broker is
        only cleared of any stall."""
        self._clear_stall(broker_id)
        broker = self.brokers[broker_id]
        if not broker.alive:
            await self._attach(broker)
            broker.restart()
        self._report_fault("restart", broker_id)

    # Frozen spellings benchmarks/load/workloads.py:816-818 still calls
    # (that tree only changes in a [benchmark] PR; ROADMAP item 4 removes
    # these two lines).  Nothing else may use them.
    sever_link = SystemFacade.fail_link
    heal_link = SystemFacade.recover_link

    # The three integrity verbs act on files and frames, so they exist on
    # this backend only.  Each reports itself only when it injected
    # something: the report is what the "every injected corruption was
    # detected" check (repro.check.scenario.INTEGRITY_KINDS) counts.

    def corrupt_log(self, broker_id: str) -> None:
        """At-rest corruption: flip one bit in the *oldest* record of each
        log file of a crashed broker, to be quarantined on replay.  A live
        broker is left alone — damage under an open append handle models
        nothing a real disk does."""
        if self._data_dir is None or self.brokers[broker_id].alive:
            return
        hit = [
            corrupt_log_file(self._log_path(pubend_id))
            for pubend_id, host in sorted(self.pubend_hosts.items())
            if host == broker_id
        ]
        if any(hit):
            self._report_fault("corrupt_log", broker_id)

    def corrupt_wire(self) -> None:
        """In-flight corruption: the next frame on the wire is damaged and
        must be rejected by the receiving checksum, never delivered."""
        self.transport.corrupt_next_messages(1)
        self._report_fault("corrupt_wire", "wire")

    def disk_full(self, broker_id: str) -> None:
        """The next stable append of each file log the broker hosts hits
        ENOSPC: the publish must fail visibly, not advertise an unlogged
        tick."""
        logs = [
            log
            for log in self.brokers[broker_id].hosted_logs().values()
            if isinstance(log, FileLog)
        ]
        for log in logs:
            log.inject_fault("enospc")
        if logs:
            self._report_fault("disk_full", broker_id)

    # -- teardown ----------------------------------------------------------

    async def shutdown(self) -> None:
        """Graceful stop: publishers first, then the transport's outboxes
        are drained (sends still waiting for their flush), then brokers
        (each drains its inbox, cancels timers, closes its logs), then a
        second transport drain for the acks/knowledge that final
        processing produced, then close."""
        for publisher in self.publishers:
            await publisher.stop()
        await self.transport.drain()
        for broker in self.brokers.values():
            await broker.shutdown()
        await self.transport.drain()
        await self.transport.close()


async def run_schedule(
    target: Any,
    steps: Iterable[Tuple[float, str, tuple, dict]],
    t0: float,
) -> None:
    """The asyncio schedule executor: sleep until loop time ``t0 + t``,
    then apply ``getattr(target, verb)(*args, **kwargs)``, awaiting the
    verbs that are coroutines here.  ``steps`` must be in time order
    (:meth:`repro.check.scenario.Scenario.fault_steps`)."""
    loop = asyncio.get_running_loop()
    for t, verb, args, kwargs in steps:
        await asyncio.sleep(max(0.0, t0 + t - loop.time()))
        result = getattr(target, verb)(*args, **kwargs)
        if inspect.isawaitable(result):
            await result
