"""Asyncio broker runtime: the GD engine in real time.

Hosts the same :class:`~repro.broker.engine.GDBrokerEngine` used by the
simulator on an asyncio event loop, with wall-clock liveness timers and a
pluggable transport (:class:`~repro.aio.transport.LocalTransport` or
:class:`~repro.aio.transport.TcpTransport`).

The runtime is a production-grade second backend for the protocol, not
just a demo: pubends persist to :class:`~repro.storage.log.FileLog` when
the system is given a ``data_dir`` (a crashed broker reopens and replays
its logs on restart, recovering assigned ticks and its doubt horizon),
each arriving message is handled in the transport callback that
delivers it (one delivery or one TCP read is one engine turn, and a
broker that falls behind is pushed back on by TCP flow control),
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


class _Timer:
    """A broker timer: runs ``fn`` only in the incarnation that armed it,
    keeping a raise in the broker's :attr:`~AioBroker.failure` as
    :meth:`AioBroker.on_receive` does, and is in the broker's tracking set
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
    asyncio substrate — receiving in the transport's callback, one
    engine turn per delivery or TCP read (:meth:`turn`), wall-clock
    timers tracked for cancellation, and the self-test mutations.
    There is no receive queue: the loop reads a socket only as fast as
    the broker handles what it read, so a broker that falls behind is
    pushed back on by TCP flow control, and its sender's bounded outbox
    (``TcpTransport.OUTBOX_LIMIT``) sheds what does not fit.
    """

    def __init__(
        self,
        broker_id: str,
        info: BrokerTopologyInfo,
        params: LivenessParams,
        transport: Transport,
        obs: Optional[Observability] = None,
        mutations: frozenset = frozenset(),
    ):
        self.transport = transport
        self.alive = True
        self.epoch = 0
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
        #: First exception raised while handling a message or a timer
        #: (e.g. a client's DuplicateDelivery) — surfaced by
        #: shutdown()/chaos.
        self.failure: Optional[BaseException] = None
        super().__init__(broker_id, info, params, _AioServices(self), obs)

    # -- timer tracking ----------------------------------------------------

    def _cancel_timers(self) -> None:
        for timer in self._pending_timers:
            timer.handle.cancel()
        self._pending_timers.clear()

    # -- data path ---------------------------------------------------------

    def on_receive(self, src: str, message: Any) -> None:
        """Handle one message, in the transport callback that delivered
        it.  This is the boundary that must keep running: a handler
        exception is kept in :attr:`failure` (the first one; chaos and
        conformance report it) and the broker goes on to the next
        message — one poisoned message must not close the connection it
        came on or lose the rest of its read."""
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

    # The frozen load ledger (benchmarks/load/ledger.py:221) replaces this
    # name; nothing calls it.  Delete it with ROADMAP item 1(a).
    on_receive_async = on_receive

    def turn(self, run: Callable[..., None], *args: Any) -> None:
        """Run ``run(*args)`` — one delivery callback of the transport, or
        everything one TCP read decoded — as one engine turn: the acks
        its messages make due leave once, when it ends.  A raise in that
        flush is kept in :attr:`failure` like a handler's."""
        engine = self.engine
        if engine is None:  # crashed: on_receive drops what arrives
            run(*args)
            return
        engine.open_turn()
        try:
            run(*args)
        finally:
            try:
                engine.close_turn()
            except Exception as exc:
                if self.failure is None:
                    self.failure = exc

    def _piggyback_flush(self, epoch: int) -> None:
        """Deferred piggyback check queued by :meth:`_AioServices.send`:
        flush the pending deltas eagerly if a data message went out."""
        due = self._piggyback_due
        self._piggyback_scheduled = self._piggyback_due = False
        if due and self.alive and self.epoch == epoch and self.engine is not None:
            self.engine.flush_dirty_ostreams()

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
        self.on_crash()

    def restart(self) -> None:
        """Recover from stable storage (see :meth:`BrokerHost.on_restart`)."""
        if self.alive:
            return
        self.alive = True
        self.epoch += 1
        self.on_restart()

    async def shutdown(self) -> None:
        """Graceful stop: cancel timers, close logs."""
        if not self.alive:
            return
        self.alive = False
        self.epoch += 1
        self._cancel_timers()
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
        await self.transport.attach(broker.broker_id, broker.on_receive, broker.turn)

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
        (each cancels its timers and closes its logs), then a second
        transport drain for what the last deliveries produced, then
        close."""
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
