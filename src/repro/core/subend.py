"""Subends: sink nodes that deliver messages to subscribing clients.

A subend (paper section 2.3) consumes the knowledge stream of one or more
pubends and delivers D messages to clients, in *publisher order* (per
pubend-stream order, streams interleaved arbitrarily) or in *total order*
(a deterministic merge of the pubend streams, identical for every
subscriber of the same merge).

The implementation follows the paper's SHB consolidation optimization:
all subscribers at a broker share the broker's per-pubend istream; each
subscriber only adds a content filter and membership in a delivery group.
Delivery is driven by the **doubt horizon** ``t_D`` — the first tick still
in doubt — so a message is never delivered out of order: D ticks above a
Q gap wait until the gap resolves to D or F.

Subends also *initiate* the upstream flows: acks for delivered/final
prefixes, and nacks (curiosity) for gaps, governed by the GCT / NRT / DCT
parameters of :class:`~repro.core.config.LivenessParams` and answered
according to the AckExpected probes of pubend-driven liveness.

The class is transport-agnostic: the hosting broker supplies a
:class:`SubendServices` implementation (clock, timers, upstream sends,
client delivery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..matching.ast import Predicate as AstPredicate
from ..matching.tree import MatchingTree
from ..obs.instruments import NULL_INSTRUMENTS
from .config import LivenessParams
from .edges import MergeView, Predicate, MATCH_ALL
from .lattice import K
from .rto import RtoEstimator
from .streams import Stream
from .ticks import Tick, TickRange, merge_ranges, subtract_ranges, tick_of_time

__all__ = [
    "SubendServices",
    "SubendManager",
    "Subscription",
    "SubscriptionIndex",
    "Delivery",
]


class SubendServices:
    """What a subend needs from its hosting broker.

    Duck-typed; the simulator, the asyncio runtime and the unit tests each
    provide their own implementation.
    """

    def now(self) -> float:
        """Current time in seconds."""
        raise NotImplementedError

    def schedule(self, delay: float, fn: Callable[[], None]) -> Any:
        """Run ``fn`` after ``delay`` seconds; returns a cancellable handle
        (an object with a ``cancel()`` method)."""
        raise NotImplementedError

    def send_nack(self, pubend: str, ranges: List[TickRange]) -> None:
        """Propagate curiosity upstream."""
        raise NotImplementedError

    def send_ack(self, pubend: str, up_to: Tick) -> None:
        """Propagate anti-curiosity upstream."""
        raise NotImplementedError

    def deliver(
        self, subscriber: str, pubend: str, tick: Tick, payload: Any
    ) -> None:
        """Hand one message to a subscribing client."""
        raise NotImplementedError


@dataclass(frozen=True)
class Subscription:
    """A client's subscription at this subend."""

    subscriber: str
    predicate: Predicate = MATCH_ALL
    pubends: Tuple[str, ...] = ()
    total_order: bool = False


@dataclass(frozen=True)
class Delivery:
    """One delivered message (returned by test/client hooks)."""

    subscriber: str
    pubend: str
    tick: Tick
    payload: Any


_Members = Dict[str, Subscription]
_NO_MEMBERS: Tuple[_Members, _Members] = ({}, {})


class SubscriptionIndex:
    """How a broker turns ``(candidate set, payload)`` into the ordered
    list of local subscriptions to deliver to.

    A *candidate set* is named by a hashable key — a pubend id for
    publisher-order delivery, a total-order group's pubend tuple for a
    merge — and holds the subscriptions consuming that stream, keyed by
    subscriber.  The AST predicates of every set share one
    :class:`MatchingTree` (the PODC '99 parallel search tree, Gryphon's
    own matching algorithm: an event is matched once against the whole
    subscription set, not once per subscriber).  :meth:`match` iterates
    the *tree's result* and looks each id up in the candidate set, never
    the set itself, so it costs one tree pass + O(matches · log matches)
    whatever the number of subscribers.  Opaque callables (``MATCH_ALL``
    is one) cannot be indexed: each candidate set keeps its own and every
    call evaluates all of them, O(opaque candidates).

    Results come in subscription order (a re-subscribe counts as new),
    which is part of the delivery contract: the tree returns a ``set``
    whose iteration order moves with ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self._tree = MatchingTree()
        #: subscriber -> (subscription sequence number — the sort key —,
        #: subscription, keys of the sets it belongs to).
        self._entries: Dict[str, Tuple[int, Subscription, Tuple[Hashable, ...]]] = {}
        self._subscribed = 0
        #: key -> (its members, those of them the tree cannot hold), both
        #: subscriber -> subscription in subscription order.
        self._sets: Dict[Hashable, Tuple[_Members, _Members]] = {}

    def add(self, subscription: Subscription, keys: Sequence[Hashable]) -> None:
        """Put ``subscription`` into the candidate sets ``keys``,
        replacing any subscription its subscriber already has."""
        subscriber = subscription.subscriber
        self.remove(subscriber)
        self._subscribed += 1
        self._entries[subscriber] = (self._subscribed, subscription, tuple(keys))
        indexed = isinstance(subscription.predicate, AstPredicate)
        if indexed:
            self._tree.add(subscriber, subscription.predicate)
        for key in keys:
            members, opaque = self._sets.setdefault(key, ({}, {}))
            members[subscriber] = subscription
            if not indexed:
                opaque[subscriber] = subscription

    def remove(self, subscriber: str) -> Optional[Subscription]:
        """Drop ``subscriber`` from every set; returns what it had."""
        entry = self._entries.pop(subscriber, None)
        if entry is None:
            return None
        __, subscription, keys = entry
        if isinstance(subscription.predicate, AstPredicate):
            self._tree.remove(subscriber)
        for key in keys:
            for table in self._sets[key]:
                table.pop(subscriber, None)
        return subscription

    def members(self, key: Hashable) -> Mapping[str, Subscription]:
        """The candidate set ``key``, in subscription order."""
        return self._sets.get(key, _NO_MEMBERS)[0]

    def match(self, key: Hashable, payload: Any) -> List[Subscription]:
        """Members of candidate set ``key`` whose predicate accepts
        ``payload``.  A non-``Mapping`` payload is seen by opaque
        predicates only; an id the tree matched that is not in this set
        (another pubend's or group's subscriber) is skipped."""
        candidates, opaque = self._sets.get(key, _NO_MEMBERS)
        if not candidates:
            return []
        out: List[Subscription] = []
        if isinstance(payload, Mapping):
            for subscriber in self._tree.match(payload):
                subscription = candidates.get(subscriber)
                if subscription is not None:
                    out.append(subscription)
        for subscription in opaque.values():
            if subscription.predicate(payload):
                out.append(subscription)
        if len(out) > 1:
            entries = self._entries
            out.sort(key=lambda subscription: entries[subscription.subscriber][0])
        return out


@dataclass
class _NackRecord:
    """An outstanding nack awaiting satisfaction."""

    ranges: List[TickRange]
    first_sent: float
    last_sent: float
    attempts: int = 1
    timer: Any = None

    def trim(self, stream: Stream) -> None:
        """Drop sub-ranges whose knowledge is no longer Q."""
        live: List[TickRange] = []
        for rng in self.ranges:
            live.extend(stream.knowledge.q_ranges(rng.start, rng.stop))
        self.ranges = live

    @property
    def satisfied(self) -> bool:
        return not self.ranges


@dataclass
class _PendingGap:
    """A Q-gap waiting out its GCT before being nacked."""

    ranges: List[TickRange]
    timer: Any = None


class _PubendState:
    """Per-pubend subend state at one SHB (shared by all its subscribers)."""

    def __init__(self, pubend: str, stream: Stream, params: LivenessParams):
        self.pubend = pubend
        self.stream = stream
        self.params = params
        #: Horizon up to which publisher-order delivery has been performed.
        self.delivered_horizon: Tick = 0
        #: Prefix acked upstream.
        self.acked_up_to: Tick = 0
        self.estimator = RtoEstimator(
            min_interval=params.nrt_min, max_interval=params.nrt_max
        )
        self.pending_gaps: List[_PendingGap] = []
        self.outstanding: List[_NackRecord] = []
        #: Ticks already covered by a pending GCT timer or outstanding
        #: nack, so gaps are not double-tracked.
        self.tracked: List[TickRange] = []
        self.nacks_sent = 0
        self.nack_ticks_sent = 0
        #: Doubt-horizon gauge child; replaced by the owning manager when
        #: it runs with a live instrument registry.
        self.m_doubt_horizon: Any = NULL_INSTRUMENTS.gauge("")

    def untracked(self, ranges: Sequence[TickRange]) -> List[TickRange]:
        return subtract_ranges(ranges, self.tracked)

    def track(self, ranges: Sequence[TickRange]) -> None:
        self.tracked = merge_ranges(list(self.tracked) + list(ranges))

    def refresh_tracked(self) -> None:
        """Recompute tracked ticks from live pending gaps and nacks."""
        ranges: List[TickRange] = []
        for gap in self.pending_gaps:
            ranges.extend(gap.ranges)
        for record in self.outstanding:
            ranges.extend(record.ranges)
        self.tracked = merge_ranges(ranges)


class _TotalOrderGroup:
    """Subscribers sharing one deterministic merge of pubend streams."""

    def __init__(self, pubends: Tuple[str, ...], view: MergeView):
        self.pubends = pubends
        self.view = view
        self.delivered_horizon: Tick = 0


class SubendManager:
    """All subend logic of one subscriber-hosting broker.

    The hosting broker owns the per-pubend istreams and calls
    :meth:`on_knowledge` after accumulating each knowledge message,
    :meth:`on_ack_expected` for AckExpected probes, and
    :meth:`on_periodic` from a coarse timer for DCT checks.
    """

    def __init__(
        self,
        services: SubendServices,
        params: LivenessParams,
        instruments: Any = NULL_INSTRUMENTS,
        node: str = "",
        lifecycle: Any = None,
    ):
        self.services = services
        self.params = params
        self._instruments = instruments
        self._node = node
        #: Per-message lifecycle bus (duck-typed LifecycleHub or None):
        #: reports horizon advances and subend-initiated curiosity.
        self._lifecycle = lifecycle
        labels = {"broker": node}
        self._m_deliveries = instruments.counter(
            "repro_subend_deliveries_total",
            help="Messages delivered to subscribing clients at this SHB.",
            **labels,
        )
        self._m_gaps = instruments.counter(
            "repro_subend_gaps_detected_total",
            help="Fresh Q gaps that started a GCT timer.",
            **labels,
        )
        self._m_nacks_sent = instruments.counter(
            "repro_subend_nacks_sent_total",
            help="Nack messages sent upstream (first sends and NRT repeats).",
            **labels,
        )
        self._m_nack_ticks = instruments.counter(
            "repro_subend_nack_ticks_total",
            help="Cumulative ticks requested by nacks (the paper's "
            "nack range).",
            **labels,
        )
        self._states: Dict[str, _PubendState] = {}
        #: Total-order groups by their (sorted) pubend tuple.
        self._groups: Dict[Tuple[str, ...], _TotalOrderGroup] = {}
        #: Local subscriptions; a publisher-order candidate set is keyed by
        #: its pubend, a total-order group's by the group's pubend tuple.
        self._index = SubscriptionIndex()
        self.delivered_count = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_stream(self, pubend: str, stream: Stream) -> None:
        """Register the broker's istream for ``pubend`` with this subend."""
        if pubend not in self._states:
            state = _PubendState(pubend, stream, self.params)
            state.m_doubt_horizon = self._instruments.gauge(
                "repro_subend_doubt_horizon_tick",
                help="First tick still in doubt for this istream.",
                broker=self._node,
                pubend=pubend,
            )
            self._states[pubend] = state

    def has_pubend(self, pubend: str) -> bool:
        return pubend in self._states

    def pubends(self) -> List[str]:
        return sorted(self._states)

    def subscribe(self, subscription: Subscription) -> None:
        """Add a subscription, replacing the one its subscriber already
        has.  All its pubends must be attached first."""
        for pubend in subscription.pubends:
            if pubend not in self._states:
                raise KeyError(f"pubend {pubend!r} not attached")
        self.unsubscribe(subscription.subscriber)
        keys: Sequence[Hashable] = subscription.pubends
        if subscription.total_order:
            key = tuple(sorted(subscription.pubends))
            if key not in self._groups:
                view = MergeView([self._states[p].stream.knowledge for p in key])
                self._groups[key] = _TotalOrderGroup(key, view)
            keys = (key,)
        self._index.add(subscription, keys)

    def unsubscribe(self, subscriber: str) -> Optional[Subscription]:
        """Remove ``subscriber``'s subscription and return it (``None``
        if it had none)."""
        subscription = self._index.remove(subscriber)
        if subscription is not None and subscription.total_order:
            key = tuple(sorted(subscription.pubends))
            if not self._index.members(key):
                del self._groups[key]
        return subscription

    # ------------------------------------------------------------------
    # Knowledge arrival: delivery, acks, gap detection
    # ------------------------------------------------------------------

    def on_knowledge(self, pubend: str) -> None:
        """React to new knowledge accumulated into ``pubend``'s istream."""
        state = self._states.get(pubend)
        if state is None:
            return
        self._settle_curiosity(state)
        self._deliver_publisher_order(state)
        self._deliver_total_order(pubend)
        state.m_doubt_horizon.set(float(state.stream.knowledge.doubt_horizon()))
        # A total-order group's horizon may have advanced, unblocking acks
        # for *other* member pubends, so re-evaluate every state.
        for other in self._states.values():
            self._maybe_ack(other)
        self._watch_gaps(state)

    def _fan_out(self, key: Hashable, pubend: str, tick: Tick, payload: Any) -> None:
        """Deliver one D tick to the matching members of candidate set
        ``key``: one index pass, then one client send per match."""
        for subscription in self._index.match(key, payload):
            self.services.deliver(subscription.subscriber, pubend, tick, payload)
            self.delivered_count += 1
            self._m_deliveries.inc()

    def _deliver_publisher_order(self, state: _PubendState) -> None:
        horizon = state.stream.knowledge.doubt_horizon()
        if horizon <= state.delivered_horizon:
            return
        if self._lifecycle is not None and self._lifecycle.listeners:
            self._lifecycle.horizon_advanced(
                self.services.now(),
                self._node,
                state.pubend,
                state.delivered_horizon,
                horizon,
            )
        if self._index.members(state.pubend):
            window = TickRange(state.delivered_horizon, horizon)
            for tick, payload in state.stream.knowledge.d_ticks(window):
                self._fan_out(state.pubend, state.pubend, tick, payload)
        state.delivered_horizon = horizon

    def _deliver_total_order(self, pubend: str) -> None:
        for group in self._groups.values():
            if pubend not in group.pubends:
                continue
            horizon = group.view.doubt_horizon()
            if horizon <= group.delivered_horizon:
                continue
            pairs = group.view.d_ticks_below(horizon, group.delivered_horizon)
            for tick, payload in pairs:
                source = self._pubend_of_tick(group, tick)
                self._fan_out(group.pubends, source, tick, payload)
            group.delivered_horizon = horizon

    def _pubend_of_tick(self, group: _TotalOrderGroup, tick: Tick) -> str:
        for pubend in group.pubends:
            if self._states[pubend].stream.knowledge.value_at(tick) == K.D:
                return pubend
        return group.pubends[0]

    def _consumption_horizon(self, state: _PubendState) -> Tick:
        """How far every local consumer of this pubend has consumed.

        Publisher-order consumers consume up to the istream doubt horizon;
        total-order groups only up to the *merged* horizon (which may lag,
        since a merge waits for all inputs).  The ack — and the garbage
        collection it allows — must not outrun the slowest consumer.
        """
        horizon = state.delivered_horizon
        for group in self._groups.values():
            if state.pubend in group.pubends:
                horizon = min(horizon, group.delivered_horizon)
        return horizon

    def _maybe_ack(self, state: _PubendState) -> None:
        horizon = self._consumption_horizon(state)
        if horizon > state.acked_up_to:
            state.acked_up_to = horizon
            # Acking *is* advancing the final-prefix cursor locally (D -> F,
            # payloads GC'd, one front-trim): anti-curiosity is knowledge
            # finality, not a second mark.
            state.stream.set_ack(TickRange(0, horizon))
            self.services.send_ack(state.pubend, horizon)

    # ------------------------------------------------------------------
    # Curiosity: GCT gaps, NRT repetition, DCT, AckExpected
    # ------------------------------------------------------------------

    def _settle_curiosity(self, state: _PubendState) -> None:
        """Trim satisfied ticks from tracked gaps and outstanding nacks."""
        now = self.services.now()
        for record in state.outstanding:
            record.trim(state.stream)
            if record.satisfied:
                if record.timer is not None:
                    record.timer.cancel()
                if record.attempts == 1:
                    # Karn's rule: only unambiguous (non-retransmitted)
                    # exchanges produce RTT samples.
                    state.estimator.sample(max(now - record.last_sent, 0.0))
        state.outstanding = [r for r in state.outstanding if not r.satisfied]
        for gap in state.pending_gaps:
            live: List[TickRange] = []
            for rng in gap.ranges:
                live.extend(state.stream.knowledge.q_ranges(rng.start, rng.stop))
            gap.ranges = live
            if not gap.ranges and gap.timer is not None:
                gap.timer.cancel()
        state.pending_gaps = [g for g in state.pending_gaps if g.ranges]
        state.refresh_tracked()

    def _watch_gaps(self, state: _PubendState) -> None:
        if self.params.gct == float("inf"):
            return  # subend-driven gap curiosity disabled (ablation)
        gaps = state.stream.knowledge.gaps()
        fresh = state.untracked(gaps)
        if not fresh:
            return
        self._m_gaps.inc(len(fresh))
        pending = _PendingGap(ranges=fresh)
        pending.timer = self.services.schedule(
            self.params.gct, lambda: self._gct_expired(state, pending)
        )
        state.pending_gaps.append(pending)
        state.track(fresh)

    def _gct_expired(self, state: _PubendState, pending: _PendingGap) -> None:
        if pending in state.pending_gaps:
            state.pending_gaps.remove(pending)
        still_q: List[TickRange] = []
        for rng in pending.ranges:
            still_q.extend(state.stream.knowledge.q_ranges(rng.start, rng.stop))
        state.refresh_tracked()
        if still_q:
            self._send_nacks(state, still_q)

    def _send_nacks(self, state: _PubendState, ranges: List[TickRange]) -> None:
        """Nack the given Q ranges, chopped, and arm NRT repetition."""
        chopped: List[TickRange] = []
        for rng in ranges:
            chopped.extend(rng.split(self.params.nack_chop))
        now = self.services.now()
        for piece in chopped:
            if self._lifecycle is not None and self._lifecycle.listeners:
                self._lifecycle.subend_nack(
                    now, self._node, state.pubend, [piece], 1
                )
            self.services.send_nack(state.pubend, [piece])
            state.nacks_sent += 1
            state.nack_ticks_sent += len(piece)
            self._m_nacks_sent.inc()
            self._m_nack_ticks.inc(len(piece))
            record = _NackRecord(ranges=[piece], first_sent=now, last_sent=now)
            record.timer = self.services.schedule(
                state.estimator.interval(),
                lambda record=record: self._nrt_expired(state, record),
            )
            state.outstanding.append(record)
        state.refresh_tracked()

    def _repetition_interval(self, state: _PubendState, record: _NackRecord) -> float:
        """Exponential backoff *per outstanding nack*, on top of the
        shared RTT estimate (a shared-backoff estimator would let many
        concurrent unsatisfied nacks multiply each other's delays)."""
        base = state.estimator.interval()
        backoff = 2.0 ** min(record.attempts - 1, 6)
        return min(base * backoff, self.params.nrt_max)

    def _nrt_expired(self, state: _PubendState, record: _NackRecord) -> None:
        record.trim(state.stream)
        if record.satisfied:
            if record in state.outstanding:
                state.outstanding.remove(record)
            state.refresh_tracked()
            return
        now = self.services.now()
        for rng in record.ranges:
            if self._lifecycle is not None and self._lifecycle.listeners:
                self._lifecycle.subend_nack(
                    now, self._node, state.pubend, [rng], record.attempts + 1
                )
            self.services.send_nack(state.pubend, [rng])
            state.nacks_sent += 1
            state.nack_ticks_sent += len(rng)
            self._m_nacks_sent.inc()
            self._m_nack_ticks.inc(len(rng))
        record.attempts += 1
        record.last_sent = now
        record.timer = self.services.schedule(
            self._repetition_interval(state, record),
            lambda: self._nrt_expired(state, record),
        )

    def on_ack_expected(self, pubend: str, up_to: Tick) -> None:
        """AckExpected probe: *immediately* nack all Q ticks below
        ``up_to`` (paper section 3.2), bypassing both the GCT and any
        outstanding nack's exponential backoff.

        The override matters: backoff exists "to handle pubends that are
        down", but a probe is positive proof the pubend is alive — an
        old gap whose repetitions have backed off to tens of seconds
        must be retried now, or an unlucky streak of lost nacks and
        retransmissions stalls the stream far beyond the probe period.
        """
        state = self._states.get(pubend)
        if state is None:
            return
        if up_to <= 0:
            return
        q_ranges = state.stream.knowledge.q_ranges(state.acked_up_to, up_to)
        if not q_ranges:
            return
        # Cancel outstanding records overlapping the probed gaps; they are
        # re-issued below with a fresh (un-backed-off) repetition cycle.
        overlapping = [
            record
            for record in state.outstanding
            if any(a.overlaps(b) for a in record.ranges for b in q_ranges)
        ]
        for record in overlapping:
            if record.timer is not None:
                record.timer.cancel()
            state.outstanding.remove(record)
        state.refresh_tracked()
        fresh = state.untracked(q_ranges)
        if fresh:
            self._send_nacks(state, fresh)

    def on_periodic(self) -> None:
        """Time-driven checks (DCT); call every ``subend_check_interval``."""
        if self.params.dct == float("inf"):
            return
        now_tick = tick_of_time(self.services.now())
        dct_ticks = tick_of_time(self.params.dct)
        for state in self._states.values():
            horizon = state.stream.knowledge.doubt_horizon()
            lag_limit = now_tick - dct_ticks
            if horizon < lag_limit:
                rng = TickRange(horizon, lag_limit)
                fresh = state.untracked([rng])
                if fresh:
                    self._send_nacks(state, fresh)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state_of(self, pubend: str) -> _PubendState:
        return self._states[pubend]

    def subscriptions_for(self, pubend: str) -> List[Subscription]:
        """Every local subscription (publisher- or total-order) that
        consumes this pubend — the input to subscription summaries."""
        out = list(self._index.members(pubend).values())
        for group in self._groups.values():
            if pubend in group.pubends:
                out.extend(self._index.members(group.pubends).values())
        return out

    def ack_horizon(self, pubend: str) -> Tick:
        return self._states[pubend].acked_up_to

    def total_nacks_sent(self) -> int:
        return sum(s.nacks_sent for s in self._states.values())

    def total_nack_ticks_sent(self) -> int:
        return sum(s.nack_ticks_sent for s in self._states.values())
