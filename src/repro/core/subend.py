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

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..matching.ast import Predicate as AstPredicate
from ..matching.tree import MatchingTree
from ..obs.instruments import NULL_INSTRUMENTS
from .config import LivenessParams
from .edges import MergeView, Predicate, MATCH_ALL
from .intervals import IntervalMap
from .lattice import K
from .rto import RtoEstimator
from .streams import Stream
from .ticks import Tick, TickRange, tick_of_time

__all__ = [
    "SubendServices",
    "SubendManager",
    "Subscription",
    "SubscriptionIndex",
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

    def deliver(self, subscriber: str, pubend: str, tick: Tick, payload: Any) -> None:
        """Hand one message to a subscribing client."""
        raise NotImplementedError


@dataclass(frozen=True)
class Subscription:
    """A client's subscription at this subend."""

    subscriber: str
    predicate: Predicate = MATCH_ALL
    pubends: Tuple[str, ...] = ()
    total_order: bool = False


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


#: Most ``nack_chop`` pieces one firing of a pubend's timer sends: above
#: Figure 6's 10, and a 16 s outage at the default chop.  A larger Q range
#: goes lowest ticks first, one budget per repetition interval, so a clock
#: mistake cannot make one firing's work unbounded.
NACK_PIECES_PER_FIRING = 32


@dataclass(frozen=True)
class _Run:
    """The state of one run of curious ticks at the subend."""

    #: Nacks sent for the run so far; 0 while it waits out GCT.
    attempts: int
    #: When the run was last nacked (detected, for attempts == 0).
    sent: float
    #: When the run is next nacked.
    due: float


def _untracked(run: Optional[_Run]) -> bool:
    return run is None


class _PubendState:
    """Per-pubend subend state at one SHB (shared by all its subscribers)."""

    def __init__(self, pubend: str, stream: Stream, params: LivenessParams, gauge: Any):
        self.pubend = pubend
        self.stream = stream
        #: Horizon up to which publisher-order delivery has been performed.
        self.delivered_horizon: Tick = 0
        #: Prefix acked upstream.
        self.acked_up_to: Tick = 0
        self.estimator = RtoEstimator(min_interval=params.nrt_min, max_interval=params.nrt_max)
        #: The subend's curiosity stream: a tick is tracked (waiting out
        #: GCT or nacked and unanswered) exactly when it has a run.
        self.curiosity: IntervalMap[Optional[_Run]] = IntervalMap(None)
        #: The one timer, armed at ``timer_due``, the earliest deadline.
        self.timer: Any = None
        self.timer_due = 0.0
        self.nacks_sent = 0
        #: Doubt-horizon gauge child.
        self.m_doubt_horizon = gauge


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
            help="Cumulative ticks requested by nacks (the paper's nack range).",
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
            gauge = self._instruments.gauge(
                "repro_subend_doubt_horizon_tick",
                help="First tick still in doubt for this istream.",
                broker=self._node,
                pubend=pubend,
            )
            self._states[pubend] = _PubendState(pubend, stream, self.params, gauge)

    def has_pubend(self, pubend: str) -> bool:
        return pubend in self._states

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
                self.services.now(), self._node, state.pubend, state.delivered_horizon, horizon
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
            for tick, payload in group.view.d_ticks_below(horizon, group.delivered_horizon):
                self._fan_out(group.pubends, self._pubend_of_tick(group, tick), tick, payload)
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
        """Clear the curious ticks that knowledge has resolved.  A run
        that leaves Q whole on its first attempt is an RTT sample (Karn's
        rule: a repeated nack's answer is ambiguous)."""
        curiosity = state.curiosity
        if not curiosity:
            return
        knowledge = state.stream.knowledge
        now = self.services.now()
        for rng, run in list(curiosity.runs()):
            still_q = knowledge.q_ranges(rng.start, rng.stop)
            if still_q == [rng]:
                continue
            curiosity.clear_range(rng)
            for q in still_q:
                curiosity.set_range(q, run)
            if not still_q and run.attempts == 1:
                state.estimator.sample(max(now - run.sent, 0.0))
        if not curiosity and state.timer is not None:
            state.timer.cancel()
            state.timer = None

    def _watch_gaps(self, state: _PubendState) -> None:
        if self.params.gct == float("inf"):
            return  # subend-driven gap curiosity disabled (ablation)
        fresh = [
            piece
            for gap in state.stream.knowledge.gaps()
            for piece in state.curiosity.ranges_with(_untracked, gap.start, gap.stop)
        ]
        if not fresh:
            return
        self._m_gaps.inc(len(fresh))
        self._nack_at(state, fresh, self.services.now() + self.params.gct)

    def _arm(self, state: _PubendState, due: float) -> None:
        """Keep the pubend's one timer at or before ``due``."""
        if state.timer is not None:
            if state.timer_due <= due:
                return
            state.timer.cancel()
        state.timer_due = due
        state.timer = self.services.schedule(
            max(due - self.services.now(), 0.0), lambda: self._nack_due(state, True)
        )

    def _nack_due(self, state: _PubendState, fired: bool = False) -> None:
        """Nack every due run, as ``nack_chop`` pieces in ascending tick
        order and at most :data:`NACK_PIECES_PER_FIRING` of them, then
        re-arm the timer at the earliest deadline.  A due run past the
        budget waits one repetition interval."""
        if fired:
            state.timer = None
        self._settle_curiosity(state)
        curiosity = state.curiosity
        if not curiosity:
            return
        now = self.services.now()
        chop = self.params.nack_chop
        interval = state.estimator.interval()
        budget = NACK_PIECES_PER_FIRING
        updates: List[Tuple[TickRange, _Run]] = []
        for rng, run in curiosity.runs():
            if run.due > now:
                continue
            stop = min(rng.stop, rng.start + budget * chop)
            if stop > rng.start:
                attempts = run.attempts + 1
                for piece in TickRange(rng.start, stop).split(chop):
                    self._send_nack(state, piece, attempts)
                    budget -= 1
                # Exponential backoff per run, on the shared RTT estimate.
                repeat = min(interval * 2.0 ** min(attempts - 1, 6), self.params.nrt_max)
                updates.append((TickRange(rng.start, stop), _Run(attempts, now, now + repeat)))
            if stop < rng.stop:
                updates.append((TickRange(stop, rng.stop), replace(run, due=now + interval)))
        for rng, run in updates:
            curiosity.set_range(rng, run)
        self._arm(state, min(run.due for __, run in curiosity.runs()))

    def _send_nack(self, state: _PubendState, piece: TickRange, attempt: int) -> None:
        if self._lifecycle is not None and self._lifecycle.listeners:
            now = self.services.now()
            self._lifecycle.subend_nack(now, self._node, state.pubend, [piece], attempt)
        self.services.send_nack(state.pubend, [piece])
        state.nacks_sent += 1
        self._m_nacks_sent.inc()
        self._m_nack_ticks.inc(len(piece))

    def _nack_at(self, state: _PubendState, ranges: Sequence[TickRange], due: float) -> None:
        """Track ``ranges`` afresh (attempts 0) and nack them at ``due``,
        at once if that is now."""
        now = self.services.now()
        for rng in ranges:
            state.curiosity.set_range(rng, _Run(0, now, due))
        if due > now:
            self._arm(state, due)
        else:
            self._nack_due(state)

    def on_ack_expected(self, pubend: str, up_to: Tick) -> None:
        """AckExpected probe: *immediately* nack all Q ticks below
        ``up_to`` (paper section 3.2), bypassing both the GCT and the
        probed runs' exponential backoff, whose attempts start over.

        The override matters: backoff exists "to handle pubends that are
        down", but a probe is positive proof the pubend is alive — an
        old gap whose repetitions have backed off to tens of seconds
        must be retried now, or an unlucky streak of lost nacks and
        retransmissions stalls the stream far beyond the probe period.

        The probed Q starts at the first tick the istream knows; a subend
        that knows nothing nacks only the top ``nack_chop`` piece (ticks
        are host uptime, so ``[0, up_to)`` can be days).  The answer's
        final prefix settles what the pubend has acked, and GCT picks up
        any gap left below the new horizon.
        """
        state = self._states.get(pubend)
        if state is None or up_to <= 0:
            return
        knowledge = state.stream.knowledge
        first_known = next((rng.start for rng, __ in knowledge.runs()), None)
        if first_known is None:
            ranges = [TickRange(max(0, up_to - self.params.nack_chop), up_to)]
        else:
            ranges = knowledge.q_ranges(max(state.acked_up_to, first_known), up_to)
        if ranges:
            self._nack_at(state, ranges, self.services.now())

    def on_periodic(self) -> None:
        """Time-driven checks (DCT); call every ``subend_check_interval``."""
        if self.params.dct == float("inf"):
            return
        lag_limit = tick_of_time(self.services.now()) - tick_of_time(self.params.dct)
        for state in self._states.values():
            horizon = state.stream.knowledge.doubt_horizon()
            if horizon < lag_limit:
                fresh = state.curiosity.ranges_with(_untracked, horizon, lag_limit)
                if fresh:
                    self._nack_at(state, fresh, self.services.now())

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
