"""The guaranteed-delivery protocol engine of one physical broker.

This is the transport-agnostic heart of the system: it owns the broker's
soft state (istreams, ostreams), runs knowledge propagation downstream and
curiosity propagation upstream (paper section 3.1), hosts pubends (PHB
role) and subends (SHB role), chooses physical links out of link bundles,
and performs sideways routing inside a cell (section 3.1, "Propagation
through Link Bundles").

The engine talks to the world through :class:`BrokerServices` (clock,
timers, link sends, client delivery, CPU charging), so the same engine
runs unchanged in the deterministic simulator and in the asyncio runtime.

Key protocol behaviours implemented here:

* knowledge accumulation into istreams, filtered propagation to ostreams;
* *lazy silence*: first-time data messages bracket all F knowledge since
  the ostream's sent watermark, so filtered-out ticks ride along with the
  next matching message instead of needing their own messages;
* retransmissions sent only on paths with overlapping curiosity, with D
  ticks the path is not curious about removed;
* nack satisfaction from local soft state, with unsatisfied ticks marked
  C in ostream and istream and *fresh* C ticks (not already curious)
  forwarded upstream — the nack-consolidation rule;
* curiosity forgetting every minimum repetition interval so repeated
  nacks appear fresh;
* ack consolidation: an istream tick becomes anti-curious only when every
  ostream (and every local subend) is anti-curious for it, at which point
  the ack is forwarded upstream and the local soft state garbage-collected
  — inside a host turn (see :meth:`GDBrokerEngine.open_turn`) with the
  next link-status tick, unless the turn is the first to make an ack due
  after an idle tick or a backlog of :data:`ACK_BACKLOG` messages built up;
* link-bundle selection by pubend hash over operational candidate links,
  preferring brokers that advertise reachability to the whole subtree;
* sideways routing to a cell peer when no direct link to a downstream
  cell is usable.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.config import LivenessParams
from ..core.lattice import K
from ..core.messages import (
    AckExpectedMessage,
    AckMessage,
    DataTick,
    KnowledgeMessage,
    NackMessage,
)
from ..core.pubend import Pubend
from ..core.subend import SubendManager, SubendServices, Subscription
from ..core.ticks import Tick, TickRange
from ..matching.ast import (
    Predicate as AstPredicate,
    TrueP,
    predicate_from_wire,
    predicate_to_wire,
)
from ..matching.covering import summarize_subscriptions
from ..core.edges import FilterEdge
from ..obs.instruments import NULL_INSTRUMENTS, TICK_RANGE_BUCKETS
from ..obs.lifecycle import LifecycleHub
from .state import (
    BrokerTopologyInfo,
    Envelope,
    IStream,
    LinkStatusMessage,
    OStream,
    SubscriptionSummaryMessage,
)

__all__ = ["ACK_BACKLOG", "BrokerServices", "GDBrokerEngine", "stable_hash"]

#: Messages handled since the last ack flush after which a turn flushes
#: its acks without waiting for the link-status tick (a backlog drains
#: with its acks keeping pace, as when every turn flushed).
ACK_BACKLOG = 64


def stable_hash(text: str) -> int:
    """Deterministic, well-mixed cross-run hash (link-bundle selection).

    Hashing the pubend id onto one of the available links spreads pubends
    across a bundle (paper section 3.1: "whenever both the links p1-b1
    and p1-b2 are operational, messages from about half the pubends ...
    will flow along p1-b1, and half along p1-b2").
    """
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _ingest_data(ist: IStream, data_ticks: Tuple[DataTick, ...]) -> None:
    """Accumulate data ticks into the istream; a data arrival satisfies
    istream curiosity for its tick."""
    stream = ist.stream
    for data in data_ticks:
        stream.accumulate_data(data.tick, data.payload)
    if stream.curiosity.run_count():
        for data in data_ticks:
            stream.curiosity.clear_curious(TickRange.single(data.tick))


def _payload_size(payload: Any) -> int:
    """Rough wire size of a data payload, for link bandwidth modelling."""
    body = getattr(payload, "body", None)
    if isinstance(body, str):
        return 40 + len(body)
    if isinstance(payload, dict):
        return 40 + 8 * len(payload)
    if isinstance(payload, str):
        return 20 + len(payload)
    return 40


def _knowledge_size(message: KnowledgeMessage) -> int:
    """Rough wire size of a knowledge message."""
    return (
        60
        + 16 * len(message.f_ranges)
        + sum(16 + _payload_size(d.payload) for d in message.data)
    )


class BrokerServices:
    """Everything the engine needs from its host (simulator or asyncio).

    Subclass and override; the defaults make unit tests terse.
    """

    def now(self) -> float:
        raise NotImplementedError

    def schedule(self, delay: float, fn: Callable[[], None]) -> Any:
        raise NotImplementedError

    def send(self, dst: str, message: Any, size: int = 100) -> bool:
        """Send an :class:`Envelope` or :class:`LinkStatusMessage` to an
        adjacent broker.  Returns False when the link is locally known to
        be unusable."""
        raise NotImplementedError

    def link_usable(self, neighbor: str) -> bool:
        """Local knowledge of link health (e.g. TCP connection state)."""
        return True

    def deliver(self, subscriber: str, pubend: str, tick: Tick, payload: Any) -> None:
        """Hand a message to a locally connected subscriber client."""

    def charge(self, cost: float, category: str) -> None:
        """Account CPU work (no-op outside CPU experiments)."""


class _EngineSubendServices(SubendServices):
    """Adapter giving the SubendManager access to the engine."""

    def __init__(self, engine: "GDBrokerEngine"):
        self.engine = engine

    def now(self) -> float:
        return self.engine.services.now()

    def schedule(self, delay: float, fn: Callable[[], None]) -> Any:
        return self.engine.services.schedule(delay, fn)

    def send_nack(self, pubend: str, ranges: List[TickRange]) -> None:
        self.engine.local_nack(pubend, ranges)

    def send_ack(self, pubend: str, up_to: Tick) -> None:
        self.engine._ack_due(pubend)

    def deliver(self, subscriber: str, pubend: str, tick: Tick, payload: Any) -> None:
        self.engine.services.deliver(subscriber, pubend, tick, payload)


class GDBrokerEngine:
    """Guaranteed-delivery protocol state machine of one physical broker."""

    def __init__(
        self,
        topo: BrokerTopologyInfo,
        params: LivenessParams,
        services: BrokerServices,
        instruments: Any = NULL_INSTRUMENTS,
        lifecycle: Optional[LifecycleHub] = None,
    ):
        self.topo = topo
        self.params = params
        self.services = services
        self.instruments = instruments
        #: Per-message lifecycle event bus (see repro.obs.lifecycle).  A
        #: private empty hub when the host passes none, so hot paths can
        #: guard on ``self.lifecycle.listeners`` unconditionally.
        self.lifecycle = lifecycle if lifecycle is not None else LifecycleHub()
        self._resolve_instruments(instruments)
        self.istreams: Dict[str, IStream] = {}
        #: pubend -> downstream cell -> OStream
        self.ostreams: Dict[str, Dict[str, OStream]] = {}
        #: Locally hosted pubends (PHB role).
        self.pubends: Dict[str, Pubend] = {}
        #: Local subend manager (SHB role), created on first subscription.
        self.subend: Optional[SubendManager] = None
        #: neighbor broker -> cells it advertises as directly reachable
        #: (None = no report yet; assume full reachability).
        self.peer_reachable: Dict[str, Optional[FrozenSet[str]]] = {}
        self.counters: Dict[str, int] = {}
        #: Ostreams whose coalesced flush timer is armed (flush_pending).
        #: A cheap guard for hosts that want to piggyback pending
        #: knowledge deltas onto outgoing traffic (see
        #: :meth:`flush_dirty_ostreams`) without scanning the maps.
        self.dirty_ostreams = 0
        #: Pubends whose consolidated ack may have advanced since the last
        #: flush, in the order they became due (empty outside a turn and
        #: right after a link-status tick).
        self.acks_due: Dict[str, None] = {}
        #: Whether the host holds a turn open (:meth:`open_turn`).
        self.turn_open = False
        #: Whether an ack flush ran since the last link-status tick began
        #: (the tick's own flush counts: it closes the leading edge).
        self._acked_this_period = False
        #: Messages handled since the last ack flush.
        self._handled_since_ack = 0
        for pubend, route in topo.routes.items():
            self._ensure_streams(pubend)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _resolve_instruments(self, instruments: Any) -> None:
        """Resolve this broker's instrument children once, up front.

        Hot-path events then cost one bound-method call; against
        :data:`NULL_INSTRUMENTS` the calls are no-ops.  Children are
        keyed by broker id, so a restarted engine (fresh soft state)
        keeps accumulating into the same counters.
        """
        broker = self.topo.broker_id
        self._m_knowledge_sent = instruments.counter(
            "repro_broker_knowledge_sent_total",
            "Knowledge messages this broker put on broker-to-broker links",
            broker=broker,
        )
        self._m_knowledge_received = instruments.counter(
            "repro_broker_knowledge_received_total",
            "Knowledge messages received from adjacent brokers",
            broker=broker,
        )
        self._m_nacks_sent = instruments.counter(
            "repro_broker_nacks_sent_total",
            "Nack (curiosity) messages this broker sent upstream",
            broker=broker,
        )
        self._m_nacks_received = instruments.counter(
            "repro_broker_nacks_received_total",
            "Nack messages received from downstream brokers",
            broker=broker,
        )
        self._m_nacks_consolidated = instruments.counter(
            "repro_broker_nacks_consolidated_total",
            "Nacks suppressed because the requested ticks were already curious",
            broker=broker,
        )
        self._m_nack_range_ticks = instruments.histogram(
            "repro_broker_nack_range_ticks",
            "Ticks requested per nack message sent upstream (the paper's nack range)",
            boundaries=TICK_RANGE_BUCKETS,
            broker=broker,
        )
        self._m_acks_sent = instruments.counter(
            "repro_broker_acks_sent_total",
            "Consolidated ack messages this broker sent upstream",
            broker=broker,
        )
        self._m_acks_received = instruments.counter(
            "repro_broker_acks_received_total",
            "Ack messages received from downstream brokers",
            broker=broker,
        )
        self._m_retransmissions = instruments.counter(
            "repro_broker_retransmissions_total",
            "Retransmitted knowledge messages answering downstream curiosity",
            broker=broker,
        )
        self._m_silence_messages = instruments.counter(
            "repro_broker_silence_messages_total",
            "Idle-silence knowledge messages generated by locally hosted pubends",
            broker=broker,
        )
        self._m_knowledge_flushes = instruments.counter(
            "repro_broker_knowledge_flushes_total",
            "Coalesced knowledge flushes sent by batched propagation (flush_delay > 0)",
            broker=broker,
        )

    def _ensure_streams(self, pubend: str) -> IStream:
        ist = self.istreams.get(pubend)
        if ist is None:
            ist = IStream(pubend)
            self.istreams[pubend] = ist
            route = self.topo.routes.get(pubend)
            cells = self.ostreams.setdefault(pubend, {})
            if route is not None:
                for cell, filter_edge in route.downstream.items():
                    cells[cell] = OStream(pubend, cell, filter_edge)
        return ist

    def _ostream_of(self, pubend: str, src: str) -> Optional[OStream]:
        """The path a downstream neighbour speaks for: its cell's ostream."""
        return self.ostreams.get(pubend, {}).get(self.topo.cell_of.get(src))

    def _note_upstream_sender(self, ist: IStream, src: str) -> None:
        """Acks and nacks go back to whichever upstream broker last sent
        this pubend's traffic (paper section 3.1)."""
        route = self.topo.routes.get(ist.pubend)
        if (
            src
            and route is not None
            and self.topo.cell_of.get(src) == route.upstream_cell
        ):
            ist.last_upstream_sender = src

    def host_pubend(self, pubend: Pubend) -> None:
        """Adopt a pubend (PHB role) by replaying its log into the istream.

        The istream is the pubend's one materialised knowledge stream: a
        publication enters it (and thus reaches local subends and
        downstream paths) only when its log append has committed — "those
        that are not logged are considered not published" (paper section
        2.2).  Every hosting — first start, cold start over an existing
        log, restart after a crash — is the same replay: the acked prefix
        is F, each logged entry is D and the gaps between them were
        silent, so nack satisfaction answers from the log.  Nothing is
        sent; downstream learns from the next publication or silence.
        """
        self.pubends[pubend.pubend_id] = pubend
        stream = self._ensure_streams(pubend.pubend_id).stream
        lo = pubend.acked_up_to
        if lo > 0:
            stream.accumulate_final(TickRange(0, lo))
        for entry in pubend.log.entries(pubend.pubend_id):
            if entry.tick > lo:
                stream.accumulate_final(TickRange(lo, entry.tick))
            stream.accumulate_data(entry.tick, entry.payload)
            lo = entry.tick + 1

    def ensure_subend(self) -> SubendManager:
        if self.subend is None:
            self.subend = SubendManager(
                _EngineSubendServices(self),
                self.params,
                instruments=self.instruments,
                node=self.topo.broker_id,
                lifecycle=self.lifecycle,
            )
        return self.subend

    def add_subscription(self, subscription: Subscription) -> None:
        """Register a local subscriber (SHB role)."""
        manager = self.ensure_subend()
        for pubend in subscription.pubends:
            ist = self._ensure_streams(pubend)
            manager.attach_stream(pubend, ist.stream)
        manager.subscribe(subscription)
        if self.params.subscription_propagation:
            for pubend in subscription.pubends:
                self._advertise_summary(pubend)

    def remove_subscription(self, subscriber: str) -> None:
        """Withdraw a local subscriber, narrowing summaries upstream."""
        if self.subend is None:
            return
        subscription = self.subend.unsubscribe(subscriber)
        if self.params.subscription_propagation and subscription is not None:
            for pubend in subscription.pubends:
                self._advertise_summary(pubend)

    def start(self) -> None:
        """Arm the engine's periodic timers (call once per incarnation)."""
        self._arm_periodic(self.params.nrt_min, self._curiosity_sweep)
        self._arm_periodic(self.params.link_status_interval, self._send_link_status)
        if self.pubends:
            self._arm_periodic(self.params.aet_check_interval, self._aet_check)
            self._arm_periodic(
                max(self.params.silence_interval / 2.0, 0.05), self._silence_check
            )
        if self.subend is not None and self.params.dct != float("inf"):
            self._arm_periodic(self.params.subend_check_interval, self._subend_check)

    def _arm_periodic(self, interval: float, fn: Callable[[], None]) -> None:
        def tick() -> None:
            try:
                fn()
            finally:  # a raise (kept by the host) must not end the period
                self.services.schedule(interval, tick)

        self.services.schedule(interval, tick)

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    # ------------------------------------------------------------------
    # Publishing (PHB role)
    # ------------------------------------------------------------------

    def publish(self, pubend_id: str, payload: Any) -> Tick:
        """Log a publication and schedule its downstream propagation
        after the log's commit latency.  Returns the assigned tick."""
        pubend = self.pubends[pubend_id]
        now = self.services.now()
        message = pubend.publish(payload, now)
        self.services.charge(0.0, "publish")  # cost charged by host wrapper
        tick = message.data[0].tick
        lc = self.lifecycle
        if lc.listeners:
            lc.published(now, self.topo.broker_id, pubend_id, tick)
        delay = pubend.log.commit_latency
        if delay > 0:

            def commit() -> None:
                if lc.listeners:
                    lc.committed(
                        self.services.now(), self.topo.broker_id, pubend_id, tick
                    )
                self._ingest_local(message)

            self.services.schedule(delay, commit)
        else:
            if lc.listeners:
                lc.committed(now, self.topo.broker_id, pubend_id, tick)
            self._ingest_local(message)
        return tick

    def _ingest_local(self, message: KnowledgeMessage) -> None:
        """Feed a locally generated knowledge message (publish or silence)
        through the normal arrival path (local subends see it, ostreams
        propagate it)."""
        self.on_envelope("", Envelope(message))

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def on_message(self, src: str, message: Any) -> None:
        self._handled_since_ack += 1
        if isinstance(message, Envelope):
            self.on_envelope(src, message)
        elif isinstance(message, LinkStatusMessage):
            self._on_link_status(message)
        else:
            raise TypeError(f"unexpected message type {type(message).__name__}")

    def on_envelope(self, src: str, envelope: Envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, KnowledgeMessage):
            self._on_knowledge(src, envelope)
        elif isinstance(payload, AckMessage):
            self._on_ack(src, payload)
        elif isinstance(payload, NackMessage):
            self._on_nack(src, payload)
        elif isinstance(payload, AckExpectedMessage):
            self._on_ack_expected(src, payload, envelope)
        elif isinstance(payload, SubscriptionSummaryMessage):
            self._on_subscription_summary(src, payload)
        else:
            raise TypeError(f"unexpected GD message {type(payload).__name__}")

    # ------------------------------------------------------------------
    # Knowledge propagation (downstream)
    # ------------------------------------------------------------------

    def _on_knowledge(self, src: str, envelope: Envelope) -> None:
        message = envelope.payload
        pubend = message.pubend
        route = self.topo.routes.get(pubend)
        if route is None and pubend not in self.istreams:
            self.bump("knowledge_unroutable")
            return
        if envelope.sideways and envelope.target_cell is not None:
            self._relay_sideways(src, envelope)
            return
        ist = self._ensure_streams(pubend)
        self._note_upstream_sender(ist, src)
        self.services.charge(0.0, "knowledge_receive")
        self.bump("knowledge_received")
        self._m_knowledge_received.inc()

        for rng in message.merged_f_ranges():
            ist.stream.accumulate_final(rng)
        _ingest_data(ist, message.data)

        if self.lifecycle.listeners:
            self.lifecycle.knowledge_ingested(
                self.services.now(), self.topo.broker_id, src, message
            )

        if self.subend is not None and self.subend.has_pubend(pubend):
            self.subend.on_knowledge(pubend)
        elif not self.ostreams.get(pubend):
            # Consumer-less sink: acknowledge on arrival so upstream soft
            # state and the pubend log can be collected.
            self._ack_due(pubend)

        for ost in list(self.ostreams.get(pubend, {}).values()):
            self._propagate(ist, ost, message)

    def _relay_sideways(self, src: str, envelope: Envelope) -> None:
        """Forward a cell peer's knowledge message toward its target cell.

        A sideways envelope carries the *peer's per-path view* toward the
        target cell: its F ranges include finality induced by that path's
        acks (the F <-> A linkage) and by that path's filters.  Those are
        assertions about one path, not about the pubend's stream, so the
        relay must not merge them into its own istream — doing so can
        turn a tick whose data this broker never received into dataless
        finality, which then answers downstream curiosity with silence
        and lets the pubend truncate an undelivered message.  Data ticks
        are absolute facts and are cached locally for redundancy; the
        message itself is forwarded verbatim.
        """
        message = envelope.payload
        self.services.charge(0.0, "knowledge_receive")
        self.bump("knowledge_relayed")
        if message.data and (
            message.pubend in self.istreams
            or self.topo.routes.get(message.pubend) is not None
        ):
            _ingest_data(self._ensure_streams(message.pubend), message.data)
        if self.lifecycle.listeners:
            self.lifecycle.knowledge_ingested(
                self.services.now(), self.topo.broker_id, src, message, relay=True
            )
        self._send_towards(
            message.pubend,
            envelope.target_cell,
            message,
            _knowledge_size(message),
            allow_sideways=False,
            kind="relay",
        )

    def _propagate(
        self, ist: IStream, ost: OStream, message: KnowledgeMessage
    ) -> None:
        # Capture the path's outstanding curiosity *before* accumulating:
        # finality arriving for a curious tick makes it anti-curious here
        # (A is F), but the downstream still has to be told the answer.
        curious = ost.stream.curiosity.curious_ranges()
        filtered = ost.apply(message)
        for rng in filtered.merged_f_ranges():
            ost.stream.accumulate_final(rng)
        for data in filtered.data:
            ost.stream.accumulate_data(data.tick, None)

        if message.retransmit:
            # Retransmissions flow only towards curious paths.
            self._answer_curiosity(ist, ost, curious)
            return

        # flush_delay decides *when* the path is told what is new, never
        # *what*: both arms send the one _delta.
        if filtered.data or (self.params.silence_broadcast and message.is_silence):
            if self.params.flush_delay > 0:
                self._mark_dirty(ost, filtered)
            else:
                out = self._delta(ost, filtered.max_tick(), filtered.data)
                if out is not None:
                    kind = "first" if filtered.data else "silence"
                    self._send_knowledge(ost, out, kind)
        # Whatever just arrived may also satisfy older curiosity on this
        # path (first-time silence for curious ticks, paper section 3.1).
        # Curiosity answers are never delayed by batching.
        self._answer_curiosity(ist, ost, curious)

    def _delta(
        self, ost: OStream, hi: Tick, offered: Sequence[DataTick]
    ) -> Optional[KnowledgeMessage]:
        """What the path has not been told yet, below ``hi`` — the one
        first-time message, whichever arm sends it.

        *Lazy silence*: all F knowledge between the ostream's sent
        watermark and ``hi`` rides along, so paths that had data filtered
        out still advance their doubt horizon without dedicated silence
        messages.  Of the ``offered`` data ticks (sorted) only those still
        D on the path travel: one the downstream cell has acked meanwhile
        (a duplicated envelope, an ack over a sideways path) is final
        here, and its finality is in the prefix or the F runs already.
        ``None`` when the path has been told all of it.
        """
        knowledge = ost.stream.knowledge
        fin = knowledge.final_prefix()
        f_runs = knowledge.final_ranges(max(min(ost.sent_watermark, hi), fin), hi)
        data = tuple(d for d in offered if knowledge.value_at(d.tick) == K.D)
        if not data and not f_runs and fin <= ost.sent_watermark:
            return None
        ost.sent_watermark = max(ost.sent_watermark, hi)
        return KnowledgeMessage(
            pubend=ost.pubend, fin_prefix=fin, f_ranges=tuple(f_runs), data=data
        )

    def _mark_dirty(self, ost: OStream, filtered: KnowledgeMessage) -> None:
        """Fold one incoming update into the ostream's pending flush."""
        # Capture the DataTicks (payloads included) now: a local subend
        # sharing the istream may ack-finalize it — dropping the payloads
        # — before the flush fires, so they cannot be re-read later.
        ost.pending_data.extend(filtered.data)
        armed = False
        if not ost.flush_pending:
            ost.flush_pending = True
            self.dirty_ostreams += 1
            armed = True
            pubend, cell = ost.pubend, ost.cell
            self.services.schedule(
                self.params.flush_delay,
                lambda: self._flush_ostream(pubend, cell),
            )
        if self.lifecycle.listeners:
            self.lifecycle.flush_deferred(
                self.services.now(),
                self.topo.broker_id,
                ost.pubend,
                ost.cell,
                [d.tick for d in filtered.data],
                armed,
                self.params.flush_delay,
            )

    def _flush_ostream(self, pubend: str, cell: str) -> None:
        """Send one coalesced first-time message covering every update
        folded into the ostream since the last flush.

        The message walks only ticks above the sent watermark (the
        neighbor already holds everything below it), so N publications
        ingested within one flush window cost one knowledge message with
        N data ticks and merged F brackets instead of N messages.
        """
        ost = self.ostreams.get(pubend, {}).get(cell)
        if ost is None or not ost.flush_pending:
            return
        ost.flush_pending = False
        self.dirty_ostreams -= 1
        pending = {d.tick: d for d in ost.pending_data}
        ost.pending_data = []
        self.services.charge(0.0, "knowledge_flush")
        out = self._delta(
            ost,
            ost.stream.knowledge.horizon(),
            [pending[tick] for tick in sorted(pending)],
        )
        if self.lifecycle.listeners:
            self.lifecycle.knowledge_flushed(
                self.services.now(),
                self.topo.broker_id,
                pubend,
                cell,
                out.data_ticks if out is not None else (),
                out is not None,
            )
        if out is None:
            # Everything pending was finalized or acked meanwhile: the
            # timer's work was cancelled out.
            return
        self.bump("knowledge_flushes")
        self._m_knowledge_flushes.inc()
        self._send_knowledge(ost, out, kind="flush")

    def flush_dirty_ostreams(self, cell: Optional[str] = None) -> int:
        """Eagerly flush every ostream with a pending coalesced message
        (optionally only those towards ``cell``), ahead of their timers.

        This is the piggyback hook for transports with their own
        batching: a host about to put a data frame on the wire towards a
        neighbor can fold the pending knowledge deltas for that neighbor
        into the same batch instead of paying a second frame one
        flush-delay later.  The armed timers still fire but find
        ``flush_pending`` cleared and no-op.  Guard calls on the cheap
        :attr:`dirty_ostreams` counter.  Returns the number of ostreams
        flushed.
        """
        if not self.dirty_ostreams:
            return 0
        pending: List[Tuple[str, str]] = [
            (pubend, ost_cell)
            for pubend, cells in self.ostreams.items()
            for ost_cell, ost in cells.items()
            if ost.flush_pending and (cell is None or ost_cell == cell)
        ]
        for pubend, ost_cell in pending:
            self._flush_ostream(pubend, ost_cell)
        return len(pending)

    def _answer_curiosity(
        self, ist: IStream, ost: OStream, curious: List[TickRange]
    ) -> None:
        """Answer the path's outstanding C ticks from local soft state.

        The ostream's filtered view is refreshed from the istream over the
        curious ranges first (it may be stale after a restart), then every
        satisfiable tick is sent in a retransmission and its curiosity is
        reset to N (the path will re-nack if the retransmission is lost).
        """
        if not curious:
            return
        # Refresh the filtered view from the istream over curious ranges.
        for rng in curious:
            for run, value in ist.stream.knowledge.iter_runs(rng.start, rng.stop):
                if value == K.F:
                    ost.stream.accumulate_final(run)
                elif value == K.D:
                    for tick in run:
                        payload = ist.stream.knowledge.payload_at(tick)
                        if ost.matches(payload):
                            ost.stream.accumulate_data(tick, None)
                        else:
                            ost.stream.accumulate_final(TickRange.single(tick))
        # Collect what is now satisfiable.  F pieces are no longer curious
        # (A is F), so read the requested ranges' knowledge directly: D
        # ticks to resend and the finalized pieces to answer with silence.
        data: List[DataTick] = []
        f_ranges: List[TickRange] = []
        serviced: List[TickRange] = []
        for rng in curious:
            for run, value in ost.stream.knowledge.iter_runs(rng.start, rng.stop):
                if value == K.F:
                    f_ranges.append(run)
                elif value == K.D:
                    for tick in run:
                        if ist.stream.knowledge.has_payload(tick):
                            data.append(
                                DataTick(tick, ist.stream.knowledge.payload_at(tick))
                            )
                            serviced.append(TickRange.single(tick))
        if not data and not f_ranges:
            return
        for rng in serviced:
            ost.stream.curiosity.clear_curious(rng)
        out = KnowledgeMessage(
            pubend=ost.pubend,
            fin_prefix=ost.stream.knowledge.final_prefix(),
            f_ranges=tuple(f_ranges),
            data=tuple(sorted(data, key=lambda d: d.tick)),
            retransmit=True,
        )
        self.bump("retransmissions_sent")
        self._m_retransmissions.inc()
        self._send_knowledge(ost, out, kind="retransmit")

    def _send_knowledge(
        self, ost: OStream, message: KnowledgeMessage, kind: str
    ) -> None:
        self.services.charge(0.0, "knowledge_send")
        self._send_towards(
            ost.pubend, ost.cell, message, _knowledge_size(message), kind=kind
        )

    def _send_towards(
        self,
        pubend: str,
        cell: str,
        payload: Any,
        size: int,
        allow_sideways: bool = True,
        kind: str = "",
    ) -> None:
        """The one way out towards a downstream cell: a direct link picked
        from the bundle, else (when allowed) sideways through a cell peer
        that re-targets the cell.  ``kind`` labels a knowledge message for
        the counters and the lifecycle hub; control traffic (AckExpected
        probes) passes none and is neither counted nor reported."""
        target = self._pick_downstream_broker(pubend, cell)
        sideways = target is None and allow_sideways
        if sideways:
            target = self._pick_sideways_peer(cell)
        if target is None:
            if kind:
                self.bump("knowledge_undeliverable")
            return
        if sideways:
            envelope = Envelope(payload, target_cell=cell, sideways=True)
        else:
            envelope = Envelope(payload)
        self.services.send(target, envelope, size)
        if not kind:
            return
        if kind != "relay":  # a relay is counted once, on arrival
            self.bump("knowledge_sideways" if sideways else "knowledge_sent")
        self._m_knowledge_sent.inc()
        if self.lifecycle.listeners:
            self.lifecycle.knowledge_sent(
                self.services.now(),
                self.topo.broker_id,
                target,
                cell,
                payload,
                kind,
                sideways=sideways,
            )

    # ------------------------------------------------------------------
    # Curiosity (nack) handling — upstream
    # ------------------------------------------------------------------

    def _on_nack(self, src: str, nack: NackMessage) -> None:
        self.services.charge(0.0, "control")
        self.bump("nacks_received")
        self._m_nacks_received.inc()
        lc = self.lifecycle
        if lc.listeners:
            # Scope marker: retransmissions sent before nack_done are
            # causally children of this nack.
            lc.nack_received(self.services.now(), self.topo.broker_id, src, nack)
        try:
            pubend = nack.pubend
            ist = self.istreams.get(pubend)
            if ist is None:
                return
            ost = self._ostream_of(pubend, src)
            if ost is None:
                return
            for rng in nack.ranges:
                ost.stream.set_curious(rng)
            # Answer over the *requested* ranges, not just the ticks that
            # set_curious marked: ticks that are already final here (A,
            # never marked) are exactly the ones we can answer with
            # silence.
            self._answer_curiosity(ist, ost, list(nack.ranges))
            # Whatever is still curious on the path could not be satisfied
            # locally; accumulate into the istream and forward only the
            # fresh part upstream (nack consolidation).
            unsatisfied: List[TickRange] = []
            for rng in nack.ranges:
                unsatisfied.extend(ost.stream.curiosity.curious_ranges(rng))
            if unsatisfied:
                self._escalate_curiosity(pubend, ist, unsatisfied)
        finally:
            if lc.listeners:
                lc.nack_done(self.services.now(), self.topo.broker_id)

    def local_nack(self, pubend: str, ranges: List[TickRange]) -> None:
        """Curiosity initiated by a local subend."""
        ist = self.istreams.get(pubend)
        if ist is None:
            return
        self._escalate_curiosity(pubend, ist, ranges)

    def _escalate_curiosity(
        self, pubend: str, ist: IStream, ranges: List[TickRange]
    ) -> None:
        pb = self.pubends.get(pubend)
        if pb is not None:
            # We are the PHB: answer authoritatively from the log-backed
            # stream by refreshing each requesting path.  (The local
            # subend case cannot happen: local knowledge is complete.)
            for ost in self.ostreams.get(pubend, {}).values():
                self._answer_curiosity(ist, ost, ost.stream.curiosity.curious_ranges())
            return
        fresh: List[TickRange] = []
        for rng in ranges:
            fresh.extend(ist.stream.set_curious(rng))
        if not self.params.nack_consolidation:
            # Ablation: forward the request verbatim (no suppression).
            fresh = list(ranges)
        if not fresh:
            self.bump("nacks_consolidated")
            self._m_nacks_consolidated.inc()
            return
        message = NackMessage(pubend=pubend, ranges=tuple(fresh))
        self.bump("nacks_sent")
        self._m_nacks_sent.inc()
        self._m_nack_range_ticks.observe(float(sum(len(r) for r in fresh)))
        if self.lifecycle.listeners:
            self.lifecycle.nack_sent(
                self.services.now(), self.topo.broker_id, pubend, fresh, message
            )
        self._send_upstream(pubend, ist, Envelope(message), size=64)

    def _curiosity_sweep(self) -> None:
        """Forget istream C ticks so repeated nacks appear fresh."""
        for ist in self.istreams.values():
            ist.stream.curiosity.forget_curiosity()

    # ------------------------------------------------------------------
    # Acknowledgement — upstream
    # ------------------------------------------------------------------

    def _on_ack(self, src: str, ack: AckMessage) -> None:
        self.services.charge(0.0, "control")
        self._m_acks_received.inc()
        ost = self._ostream_of(ack.pubend, src)
        if ost is None:
            return
        if ack.up_to > 0:
            # Prefix-form: a compare when stale, else one front-trim.
            ost.stream.set_ack(TickRange(0, ack.up_to))
        self._ack_due(ack.pubend)

    def open_turn(self) -> None:
        """Start a turn: until :meth:`close_turn`, an ack made due only
        marks its pubend.

        The host decides where a turn ends (the asyncio runtime: around
        each inbox micro-batch).  When it does, the marked acks leave only
        on a leading edge — no ack left since the last link-status tick,
        which found none due (so a fresh system's upstream links open at
        once) — or once :data:`ACK_BACKLOG` messages were handled since the
        last flush.  Otherwise they wait for :meth:`_send_link_status`,
        which flushes them first: paced traffic sends one ack per pubend
        per hop per period, and an ack is at most one
        ``link_status_interval`` late per hop.  Outside a turn an ack
        leaves as soon as it is due, so a host that opens none — the
        simulator — sends what it always sent.  Deferring is safe because
        an ack is a cumulative prefix: the one that leaves carries the
        maximum of those it replaces, and a lost or late ack is
        re-asserted on the next AckExpected probe (paper section 3.2)."""
        self.turn_open = True

    def close_turn(self) -> None:
        """End the turn: flush the marked acks on a leading edge or after
        a backlog, else leave them for the link-status tick."""
        self.turn_open = False
        if self.acks_due and (
            not self._acked_this_period or self._handled_since_ack >= ACK_BACKLOG
        ):
            self._flush_acks()

    def _ack_due(self, pubend: str) -> None:
        """The pubend's consolidated ack may have advanced."""
        self.acks_due[pubend] = None
        if not self.turn_open:
            self._flush_acks()

    def _flush_acks(self) -> None:
        due = self.acks_due
        while due:  # one pubend at a time: a raise leaves the others due
            pubend = next(iter(due))
            del due[pubend]
            self._acked_this_period, self._handled_since_ack = True, 0
            self.consolidate_ack(pubend)

    def consolidate_ack(self, pubend: str, force: bool = False) -> None:
        """Advance the istream's anti-curious prefix to the minimum over
        all downstream paths and local subends, then propagate.  Every
        prefix read here is a stream's cursor, every advance a front-trim:
        the cost does not depend on how deep the unacked window is.

        ``force`` re-sends the current ack even if it has not advanced —
        needed after an upstream restart (the probe implies the upstream
        lost its soft ack state and must be told again).  That probe path
        is the one caller besides the turn flush, and it does not wait
        for the turn to end."""
        ist = self.istreams.get(pubend)
        if ist is None:
            return
        prefix: Optional[Tick] = None
        for ost in self.ostreams.get(pubend, {}).values():
            p = ost.ack_prefix()
            prefix = p if prefix is None else min(prefix, p)
        if self.subend is not None and self.subend.has_pubend(pubend):
            p = self.subend.ack_horizon(pubend)
            prefix = p if prefix is None else min(prefix, p)
        if prefix is None:
            # No consumers at all — no ostreams and no local subend (an
            # SHB nobody subscribed at).  Nothing downstream can ever need
            # these ticks, so acknowledge everything known; otherwise a
            # consumer-less leaf blocks garbage collection (and log
            # truncation) for the whole tree.
            prefix = ist.stream.knowledge.horizon()
        if prefix <= 0:
            return
        pb = self.pubends.get(pubend)
        if pb is not None:
            if prefix > pb.acked_up_to and self.lifecycle.listeners:
                # Observers (the truncation oracle) must see the log
                # while the entries are still there.
                self.lifecycle.truncating(
                    self.services.now(), self.topo.broker_id, pubend, prefix
                )
            if pb.record_ack(prefix):
                self.bump("log_truncations")
                # GC the istream copy too (payloads below the prefix).
                ist.stream.set_ack(TickRange(0, prefix))
            return
        if prefix > ist.acked_upstream or (force and prefix > 0):
            ist.acked_upstream = max(prefix, ist.acked_upstream)
            # Garbage-collect: the prefix is final everywhere downstream.
            ist.stream.set_ack(TickRange(0, prefix))
            self.bump("acks_sent")
            self._m_acks_sent.inc()
            self._send_upstream(
                pubend, ist, Envelope(AckMessage(pubend, prefix)), size=48
            )

    # ------------------------------------------------------------------
    # Pubend-driven liveness
    # ------------------------------------------------------------------

    def _aet_check(self) -> None:
        now = self.services.now()
        for pubend_id, pb in self.pubends.items():
            threshold = pb.ack_expected_tick(now)
            if threshold is None:
                continue
            probe = pb.make_ack_expected(threshold)
            if self.subend is not None and self.subend.has_pubend(pubend_id):
                self.subend.on_ack_expected(pubend_id, threshold)
            for ost in self.ostreams.get(pubend_id, {}).values():
                if ost.ack_prefix() < threshold:
                    self.bump("ack_expected_sent")
                    self._send_towards(pubend_id, ost.cell, probe, size=48)

    def _on_ack_expected(
        self, src: str, probe: AckExpectedMessage, envelope: Envelope
    ) -> None:
        self.services.charge(0.0, "control")
        pubend = probe.pubend
        ist = self.istreams.get(pubend)
        if ist is None:
            return
        self._note_upstream_sender(ist, src)
        if self.subend is not None and self.subend.has_pubend(pubend):
            self.subend.on_ack_expected(pubend, probe.up_to)
        cells = self.ostreams.get(pubend, {})
        targets = (
            [envelope.target_cell]
            if envelope.target_cell is not None and envelope.target_cell in cells
            else list(cells)
        )
        for cell in targets:
            ost = cells[cell]
            if ost.ack_prefix() < probe.up_to:
                self._send_towards(pubend, cell, probe, size=48)
        # Re-assert whatever is already consolidated here: a probing
        # upstream has lost its soft ack state (restart) and must be told
        # again even though our ack value did not advance.
        self.consolidate_ack(pubend, force=True)

    # ------------------------------------------------------------------
    # Subscription propagation
    # ------------------------------------------------------------------

    def _local_summary(self, pubend: str) -> Optional[AstPredicate]:
        """The union of this broker's own subscriptions for a pubend.

        Opaque (callable) predicates cannot be introspected and collapse
        the summary to match-everything — conservative by construction.
        Returns ``None`` when there is no local subend for the pubend.
        """
        if self.subend is None or not self.subend.has_pubend(pubend):
            return None
        predicates = []
        for subscription in self.subend.subscriptions_for(pubend):
            if isinstance(subscription.predicate, AstPredicate):
                predicates.append(subscription.predicate)
            else:
                return TrueP()
        return summarize_subscriptions(predicates)

    def _upward_summary(self, pubend: str) -> AstPredicate:
        """What this broker needs from upstream: the union of its local
        summary and every downstream cell's advertised summary.  A cell
        that has not advertised yet contributes match-everything."""
        parts: List[AstPredicate] = []
        local = self._local_summary(pubend)
        if local is not None:
            parts.append(local)
        for ost in self.ostreams.get(pubend, {}).values():
            if ost.summary_edge is None:
                return TrueP()  # unknown downstream: stay conservative
            parts.append(ost.summary_edge.predicate)
        return summarize_subscriptions(parts)

    def _advertise_summary(self, pubend: str) -> None:
        ist = self.istreams.get(pubend)
        route = self.topo.routes.get(pubend)
        if ist is None or route is None or route.upstream_cell is None:
            return
        summary = self._upward_summary(pubend)
        message = SubscriptionSummaryMessage(
            sender=self.topo.broker_id,
            pubend=pubend,
            summary=predicate_to_wire(summary),
        )
        self.bump("summaries_sent")
        self._send_upstream(pubend, ist, Envelope(message), size=96)

    def _on_subscription_summary(
        self, src: str, message: SubscriptionSummaryMessage
    ) -> None:
        if not self.params.subscription_propagation:
            return
        self.services.charge(0.0, "control")
        ost = self._ostream_of(message.pubend, src)
        if ost is None:
            return
        predicate = predicate_from_wire(message.summary)
        previous = (
            ost.summary_edge.predicate if ost.summary_edge is not None else None
        )
        if predicate == previous:
            return
        ost.summary_edge = FilterEdge(predicate, name=f"summary:{ost.cell}")
        # Our own upward need may have changed; tell upstream.
        self._advertise_summary(message.pubend)

    def _readvertise_summaries(self) -> None:
        """Periodic re-advertisement (piggybacking the link-status
        cadence) so summaries survive upstream restarts — they are soft
        state like everything else."""
        for pubend in self.istreams:
            route = self.topo.routes.get(pubend)
            if route is not None and route.upstream_cell is not None:
                self._advertise_summary(pubend)

    # ------------------------------------------------------------------
    # Link selection, sideways routing, link status
    # ------------------------------------------------------------------

    def _pick_downstream_broker(self, pubend: str, cell: str) -> Optional[str]:
        candidates = [
            n
            for n in self.topo.adjacent_in_cell(cell)
            if self.services.link_usable(n)
        ]
        if not candidates:
            return None
        route = self.topo.routes.get(pubend)
        needed = route.subtree.get(cell, frozenset()) if route else frozenset()
        if needed:
            preferred = [n for n in candidates if self._reaches(n, needed)]
            pool = preferred or candidates
        else:
            pool = candidates
        return pool[stable_hash(pubend) % len(pool)]

    def _reaches(self, neighbor: str, cells: FrozenSet[str]) -> bool:
        report = self.peer_reachable.get(neighbor)
        if report is None:
            return True
        return cells <= report

    def _pick_sideways_peer(self, cell: str) -> Optional[str]:
        peers = [p for p in self.topo.peers() if self.services.link_usable(p)]
        if not peers:
            return None
        for peer in peers:
            report = self.peer_reachable.get(peer)
            if report is None or cell in report:
                return peer
        return None

    def _send_upstream(
        self, pubend: str, ist: IStream, envelope: Envelope, size: int
    ) -> None:
        """Acks/nacks go to whichever upstream broker last sent us this
        pubend's traffic; if that is unknown or unusable, broadcast to all
        physical brokers of the upstream cell (paper section 3.1)."""
        route = self.topo.routes.get(pubend)
        if route is None or route.upstream_cell is None:
            return
        sender = ist.last_upstream_sender
        if sender is not None and self.services.link_usable(sender):
            self.services.send(sender, envelope, size)
            return
        sent_any = False
        for neighbor in self.topo.adjacent_in_cell(route.upstream_cell):
            if self.services.link_usable(neighbor):
                self.services.send(neighbor, envelope, size)
                sent_any = True
        if not sent_any:
            self.bump("upstream_unreachable")

    def _send_link_status(self) -> None:
        # Held acks go first (on TCP they share the link-status frame);
        # only a period whose tick found none due opens on a leading edge.
        self._acked_this_period = False
        self._flush_acks()
        reachable = frozenset(
            self.topo.cell_of[n]
            for n in self.topo.neighbors
            if self.services.link_usable(n)
            and self.topo.cell_of.get(n) != self.topo.cell
        )
        status = LinkStatusMessage(sender=self.topo.broker_id, reachable_cells=reachable)
        for neighbor in sorted(self.topo.neighbors):
            if self.services.link_usable(neighbor):
                self.services.send(neighbor, status, 48)
        if self.params.subscription_propagation:
            self._readvertise_summaries()

    def _on_link_status(self, status: LinkStatusMessage) -> None:
        self.peer_reachable[status.sender] = status.reachable_cells

    # ------------------------------------------------------------------
    # Pubend silence + subend periodic drivers
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A point-in-time snapshot of this broker's soft-state footprint.

        The protocol's memory claim is that acknowledgement-driven garbage
        collection keeps every stream's run-length representation small no
        matter how long the system runs; these numbers are what the
        boundedness tests assert on.
        """
        streams: Dict[str, Any] = {}
        for pubend, ist in self.istreams.items():
            entry = {
                "istream_runs": ist.stream.knowledge.run_count(),
                "istream_payloads": ist.stream.knowledge.d_tick_count(),
                "curiosity_runs": ist.stream.curiosity.run_count(),
                "acked_upstream": ist.acked_upstream,
                "ostreams": {},
            }
            for cell, ost in self.ostreams.get(pubend, {}).items():
                entry["ostreams"][cell] = {
                    "runs": ost.stream.knowledge.run_count(),
                    "payload_marks": ost.stream.knowledge.d_tick_count(),
                    "ack_prefix": ost.ack_prefix(),
                }
            streams[pubend] = entry
        return {
            "broker": self.topo.broker_id,
            "counters": dict(self.counters),
            "pubends_hosted": sorted(self.pubends),
            "log_entries": {
                pubend_id: len(pb.log.entries(pubend_id))
                for pubend_id, pb in self.pubends.items()
            },
            "streams": streams,
        }

    def stream_state(self) -> Dict[str, Dict[str, Any]]:
        """Per-pubend protocol horizons for external correctness checkers.

        Unlike :meth:`stats` (memory footprint), this reports the
        *semantic* watermarks the knowledge lattice makes monotone within
        one broker incarnation: istream/ostream doubt horizons and final
        prefixes, upstream-acked prefixes, and — when this broker hosts a
        subend for the pubend — its delivery and ack horizons.  The
        ``repro.check`` oracle suite sweeps these during fuzz runs and
        fails loudly on any regression.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for pubend, ist in self.istreams.items():
            knowledge = ist.stream.knowledge
            entry: Dict[str, Any] = {
                "istream": {
                    "doubt_horizon": knowledge.doubt_horizon(),
                    "final_prefix": knowledge.final_prefix(),
                    "horizon": knowledge.horizon(),
                    "acked_upstream": ist.acked_upstream,
                },
                "ostreams": {},
                "subend": None,
                "pubend": None,
            }
            for cell, ost in self.ostreams.get(pubend, {}).items():
                ost_knowledge = ost.stream.knowledge
                entry["ostreams"][cell] = {
                    "doubt_horizon": ost_knowledge.doubt_horizon(),
                    "final_prefix": ost_knowledge.final_prefix(),
                    "ack_prefix": ost.ack_prefix(),
                    "sent_watermark": ost.sent_watermark,
                }
            if self.subend is not None and self.subend.has_pubend(pubend):
                state = self.subend.state_of(pubend)
                entry["subend"] = {
                    "delivered_horizon": state.delivered_horizon,
                    "acked_up_to": state.acked_up_to,
                }
            pb = self.pubends.get(pubend)
            if pb is not None:
                entry["pubend"] = {
                    "acked_up_to": pb.acked_up_to,
                    "horizon": pb.horizon,
                }
            out[pubend] = entry
        return out

    def _silence_check(self) -> None:
        now = self.services.now()
        for pb in self.pubends.values():
            message = pb.maybe_silence(now)
            if message is not None:
                self._m_silence_messages.inc()
                if self.lifecycle.listeners:
                    self.lifecycle.silence_emitted(
                        now,
                        self.topo.broker_id,
                        pb.pubend_id,
                        pb.horizon,
                    )
                self._ingest_local(message)

    def _subend_check(self) -> None:
        if self.subend is not None:
            self.subend.on_periodic()
