"""The exactly-once oracle suite: continuous and final correctness checks.

An :class:`OracleSuite` attaches to a built :class:`~repro.topology.System`
and watches the paper's service specification from *inside* the run, not
just at the end:

* **Delivery safety** — duplicate and out-of-order deliveries raise
  immediately inside :class:`~repro.client.SubscriberClient`; the suite
  converts those into structured failures.
* **Knowledge-lattice monotonicity** — within one broker incarnation,
  every istream/ostream doubt horizon, final prefix and acked prefix only
  moves forward (knowledge accumulates up the lattice; a regression means
  soft state was corrupted, not merely lost).  Swept periodically via
  :meth:`~repro.broker.engine.GDBrokerEngine.stream_state`.
* **Subend doubt-horizon monotonicity** — within one SHB incarnation
  the publisher-order delivery horizon never rewinds (the lifecycle
  hub's ``horizon_advanced`` hook, keyed by node and reset by that
  node's ``crash`` fault).
* **Log-truncation safety** — a pubend may only truncate ticks no
  subscriber still needs: every *published* tick below the truncation
  point whose payload matches a subscription must already have reached
  that subscriber's client (the hub's ``truncating`` hook, fired before
  the log entries are dropped, and re-checked on every sweep as a
  backstop).  Acking and
  truncating pure silence or filtered-out data ahead of the subend acks
  is legitimate (the F ↔ A linkage makes filtered knowledge immediately
  ackable per path), so the oracle judges against the ground-truth
  publication record, not the subend watermarks.
* **Stream-state invariants** — :meth:`System.check_invariants` (coalesced
  runs, payload/D linkage, no fabricated D ticks) on every sweep.
* **Soft-state size** — every istream and ostream of every live broker
  stores no more runs than its live window explains (two per held D
  tick, one per Q gap, one for the final prefix), on every sweep; once
  every PHB log is truncated to empty, no other broker (alone in its
  cell, so on every ack path) still holds a payload or a run beyond the
  prefix and its gaps; and a broker's lasting timers number at most
  :data:`TIMERS_PER_UNIT` per unit of state it keeps (itself, a hosted
  pubend, an istream) plus one per open Q gap — recovery work is bounded
  by what was lost, not by how many ticks it spans.
* **Final verdict** — after the quiescent drain: exactly-once and gapless
  delivery per subscriber against the ground-truth publication record,
  and total-order consistency (identical delivered sequences) for every
  total-order merge group.

Failures are :class:`OracleFailure` (an ``AssertionError`` subclass so a
raising oracle aborts the simulated run the way the online client checks
do), each tagged with the oracle name for triage and shrinking.

The suite arms its sweeps on the simulator's scheduler.  What can be
judged on *either* clock is a :class:`StackOutcome` — one backend's run
keyed by cross-stack publication identity ``(pubend, seq)``, collected by
both drivers of :mod:`repro.check.runner` — and :func:`judge_outcome`,
the verdict of one stack against its own ground truth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..client import DeliveryChecker, PublisherClient, SubscriberClient
from ..core.ticks import Tick
from ..facade import resolve_predicate
from ..matching.events import Event
from ..obs.lifecycle import LifecycleListener, LifecycleRecorder
from ..topology import System
from .scenario import Scenario

__all__ = [
    "OracleFailure",
    "OracleSuite",
    "ORACLES",
    "StackOutcome",
    "collect_outcome",
    "judge_outcome",
]

#: The oracle names a suite can report (documented in docs/FUZZING.md).
ORACLES = (
    "delivery-safety",
    "knowledge-monotonic",
    "subend-horizon-monotonic",
    "truncation-safety",
    "stream-invariants",
    "soft-state-size",
    "exactly-once",
    "total-order",
)


#: Lasting timers a live broker may hold per unit of the state it keeps:
#: the broker itself (link-status and curiosity-sweep periods), each
#: hosted pubend (AET and silence periods) and each istream (its subend's
#: one curiosity timer).  The tight case is a PHB with a local subscriber
#: and DCT on: five periods and one curiosity timer over three units.  On
#: top, one timer per open Q gap; a timer per nack piece exceeds that as
#: soon as gaps span a few pieces (docs/TESTING.md).
TIMERS_PER_UNIT = 2


class OracleFailure(AssertionError):
    """One violated oracle, tagged for triage.

    ``subject`` is the violating publication identity ``(pubend, tick)``
    when the oracle can name one — the hook causal tracers use to dump
    the offending message's span timeline next to a shrunk repro.
    """

    def __init__(
        self,
        oracle: str,
        message: str,
        subject: Optional[Tuple[str, Tick]] = None,
    ):
        super().__init__(f"[{oracle}] {message}")
        self.oracle = oracle
        self.message = message
        self.subject = subject


class OracleSuite(LifecycleListener):
    """Continuous + final correctness checks over one simulated system.

    The event-driven oracles are hooks on ``system.obs.lifecycle``, which
    outlives broker restarts; the state oracles run from a periodic sweep.
    """

    def __init__(
        self,
        system: System,
        publishers: Sequence[PublisherClient] = (),
        check_interval: float = 0.25,
    ):
        self.system = system
        #: Ground truth for the truncation and final checks; defaults to
        #: every publisher attached to the system.
        self.publishers = list(publishers)
        self.check_interval = check_interval
        self.sweeps = 0
        #: (broker, epoch, pubend, stream-key, field) -> watermark.
        self._marks: Dict[Tuple[Any, ...], float] = {}
        #: node -> {pubend: last horizon} of the node's live subend.
        self._sub_horizons: Dict[str, Dict[str, Tick]] = {}
        #: (pubend, subscriber) -> published-list index already verified
        #: safe by the truncation oracle (ticks are recorded in publish
        #: order, so a prefix index is a watermark).
        self._trunc_checked: Dict[Tuple[str, str], int] = {}
        self._installed = False

    def _ground_truth(self) -> Sequence[PublisherClient]:
        return self.publishers if self.publishers else self.system.publishers

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Attach to the lifecycle hub and arm the periodic sweep
        (idempotent)."""
        if self._installed:
            return
        self._installed = True
        self.system.obs.lifecycle.attach(self)
        self._schedule_sweep()

    def _schedule_sweep(self) -> None:
        def tick() -> None:
            self.sweep()
            self.system.scheduler.call_later(self.check_interval, tick)

        self.system.scheduler.call_later(self.check_interval, tick)

    # ------------------------------------------------------------------
    # Hub hooks
    # ------------------------------------------------------------------

    def truncating(self, t: float, node: str, pubend: str, up_to: Tick) -> None:
        """The PHB is about to drop ``[0, up_to)`` from stable storage:
        no subscriber may still need any of it."""
        self._check_truncation(pubend, up_to, origin="hook")

    def horizon_advanced(
        self, t: float, node: str, pubend: str, old: Tick, new: Tick
    ) -> None:
        horizons = self._sub_horizons.setdefault(node, {})
        last = horizons.get(pubend, 0)
        if new < last or old > new:
            raise OracleFailure(
                "subend-horizon-monotonic",
                f"delivery horizon of {pubend} at {node} rewound: "
                f"{last} -> {new} (old={old})",
            )
        horizons[pubend] = new

    def fault(self, t: float, kind: str, target: str) -> None:
        if kind == "crash":
            # The restarted SHB starts a fresh subend at horizon 0.
            self._sub_horizons.pop(target, None)

    def _check_truncation(self, pubend_id: str, up_to: Tick, origin: str) -> None:
        """Every published tick below ``up_to`` that matches a
        subscription must already be at the subscriber's client — once
        the log entry is gone, no retransmission can ever satisfy a nack
        for it.  (Silence and filtered-out data ack ahead of the subends;
        only *matching published data* is protected.)"""
        for publisher in self._ground_truth():
            if publisher.pubend != pubend_id:
                continue
            for broker in self.system.brokers.values():
                if not broker.alive:
                    continue
                subend = broker.engine.subend
                if subend is None or not subend.has_pubend(pubend_id):
                    continue
                for subscription in subend.subscriptions_for(pubend_id):
                    client = self.system.subscribers.get(subscription.subscriber)
                    if client is None:
                        continue
                    key = (id(publisher), subscription.subscriber)
                    start = self._trunc_checked.get(key, 0)
                    index = start
                    for __, tick, event in publisher.published[start:]:
                        if tick >= up_to:
                            break
                        index += 1
                        if not subscription.predicate(event):
                            continue
                        if (pubend_id, tick) in client._seen:
                            continue
                        # The subend acks once the message is queued on
                        # the client connection; under CPU backlog (e.g.
                        # a total-order window releasing hundreds of
                        # ticks at once) the write can still be in
                        # flight when the PHB truncates.  That is safe:
                        # only an SHB crash voids the write, and that
                        # voids the subscription itself.
                        if broker.client_write_inflight(
                            subscription.subscriber, pubend_id, tick
                        ):
                            continue
                        raise OracleFailure(
                                "truncation-safety",
                                f"pubend {pubend_id} truncating to {up_to} "
                                f"but matching tick {tick} never reached "
                                f"{subscription.subscriber} at "
                                f"{broker.node_id} ({origin}, "
                                f"t={self.system.scheduler.now:.3f})",
                                subject=(pubend_id, tick),
                            )
                    self._trunc_checked[key] = index

    # ------------------------------------------------------------------
    # Periodic sweep
    # ------------------------------------------------------------------

    def sweep(self) -> None:
        """One continuous-oracle pass over every live broker."""
        self.sweeps += 1
        try:
            self.system.check_invariants()
        except OracleFailure:
            raise
        except AssertionError as exc:
            raise OracleFailure("stream-invariants", str(exc)) from exc
        self._check_soft_state_size()
        for broker in self.system.brokers.values():
            if not broker.alive:
                continue
            incarnation = (broker.node_id, broker.epoch)
            for pubend, entry in broker.engine.stream_state().items():
                self._monotone(
                    incarnation, pubend, "istream", entry["istream"],
                    ("doubt_horizon", "final_prefix", "horizon", "acked_upstream"),
                )
                for cell, ost in entry["ostreams"].items():
                    self._monotone(
                        incarnation, pubend, f"ostream:{cell}", ost,
                        ("doubt_horizon", "final_prefix", "ack_prefix"),
                    )
                if entry["subend"] is not None:
                    self._monotone(
                        incarnation, pubend, "subend", entry["subend"],
                        ("delivered_horizon", "acked_up_to"),
                    )
                if entry["pubend"] is not None:
                    self._monotone(
                        incarnation, pubend, "pubend", entry["pubend"],
                        ("acked_up_to", "horizon"),
                    )
                    # Sweep-level backstop of the truncation hook.
                    self._check_truncation(
                        pubend, entry["pubend"]["acked_up_to"], origin="sweep"
                    )

    def _check_soft_state_size(self) -> None:
        """Soft state is a function of the live window, not of history.

        Every stored knowledge run is D or F, and two F runs are separated
        by a D run or a Q gap, so ``runs <= 2 * D ticks + gaps + 1`` always.
        Once every PHB log is empty (every publication acknowledged end to
        end) the brokers that do not host the pubend hold no D tick at all —
        asserted for brokers alone in their cell: a redundant cell's off-path
        broker hears of acks only with the next knowledge routed through it.
        """
        engines = [
            (broker.node_id, broker.engine)
            for broker in self.system.brokers.values()
            if broker.alive
        ]
        # Quiescent only when the (live) PHB says so.
        acked_end_to_end = {
            pubend_id
            for __, engine in engines
            for pubend_id, pubend in engine.pubends.items()
            if pubend.log.last_tick(pubend_id) is None
        }
        for broker in self.system.brokers.values():
            if broker.alive:
                self._check_timers(broker)
        for node, engine in engines:
            for pubend, ist in engine.istreams.items():
                streams = [("istream", ist.stream)]
                streams += [
                    (f"ostream:{cell}", ost.stream)
                    for cell, ost in engine.ostreams.get(pubend, {}).items()
                ]
                drained = (
                    pubend in acked_end_to_end
                    and pubend not in engine.pubends
                    and len(engine.topo.brokers_of_cell[engine.topo.cell]) == 1
                )
                for name, stream in streams:
                    knowledge = stream.knowledge
                    runs, held = knowledge.run_count(), knowledge.d_tick_count()
                    bound = 1 + len(knowledge.gaps()) + (0 if drained else 2 * held)
                    if runs > bound or (drained and held):
                        limit = f"{bound} runs"
                        if drained:
                            limit += ", 0 D ticks: every log entry is acked"
                        raise OracleFailure(
                            "soft-state-size",
                            f"{node} {name}[{pubend}] holds {runs} runs and "
                            f"{held} D ticks (bound {limit}) "
                            f"at t={self.system.scheduler.now:.3f}",
                        )

    def _check_timers(self, broker: Any) -> None:
        """Lasting timers stay within :data:`TIMERS_PER_UNIT` per unit.

        A timer carrying in-flight message work — a CPU-queued message, a
        log commit, a client write, an ostream flush — fires by the time
        the CPU backlog drains plus the longest of those latencies, and
        is not counted: it is bounded by traffic, not by state.
        """
        engine = broker.engine
        now = self.system.scheduler.now
        latency = max(
            [broker.client_latency, engine.params.flush_delay]
            + [pubend.log.commit_latency for pubend in engine.pubends.values()]
        )
        work_done_by = now + broker.accountant.queue_delay() + latency
        lasting = sum(1 for timer in broker.pending_timers if timer.when > work_done_by)
        gaps = sum(len(ist.stream.knowledge.gaps()) for ist in engine.istreams.values())
        bound = TIMERS_PER_UNIT * (1 + len(engine.pubends) + len(engine.istreams)) + gaps
        if lasting > bound:
            raise OracleFailure(
                "soft-state-size",
                f"{broker.node_id} holds {lasting} lasting timers for "
                f"{len(engine.pubends)} hosted pubends, {len(engine.istreams)} "
                f"istreams and {gaps} open gaps (bound {bound}) at t={now:.3f}",
            )

    def _monotone(
        self,
        incarnation: Tuple[str, int],
        pubend: str,
        stream: str,
        values: Dict[str, Any],
        fields: Sequence[str],
    ) -> None:
        for field in fields:
            value = values[field]
            key = (incarnation, pubend, stream, field)
            last = self._marks.get(key)
            if last is not None and value < last:
                raise OracleFailure(
                    "knowledge-monotonic",
                    f"{incarnation[0]} {stream}[{pubend}].{field} rewound "
                    f"{last} -> {value} at t={self.system.scheduler.now:.3f}",
                )
            self._marks[key] = value

    # ------------------------------------------------------------------
    # Final verdict
    # ------------------------------------------------------------------

    def final_check(
        self, publishers: Sequence[PublisherClient]
    ) -> List[OracleFailure]:
        """The offline oracles, after the quiescent drain.

        Returns the (possibly empty) failure list instead of raising, so
        a caller can report *all* end-state violations at once.
        """
        failures: List[OracleFailure] = []
        subscribers = self.system.subscribers
        checker = DeliveryChecker(list(publishers))
        for name, client in sorted(subscribers.items()):
            subscription = self.system.subscriptions.get(name)
            if subscription is None:
                continue
            report = checker.check(client, subscription)
            if not report.exactly_once:
                offenders = report.missing or report.unexpected
                failures.append(
                    OracleFailure(
                        "exactly-once",
                        f"{name}: {len(report.missing)} missing "
                        f"{report.missing[:3]}, {len(report.unexpected)} "
                        f"unexpected {report.unexpected[:3]} "
                        f"({report.delivered}/{report.matching_published} "
                        f"delivered)",
                        subject=offenders[0] if offenders else None,
                    )
                )
        failures.extend(self._total_order_check(subscribers))
        return failures

    def _total_order_check(
        self, subscribers: Dict[str, SubscriberClient]
    ) -> List[OracleFailure]:
        groups: Dict[Tuple[str, ...], List[Tuple[str, List[Tuple[str, Tick]]]]] = {}
        for name, client in sorted(subscribers.items()):
            subscription = self.system.subscriptions.get(name)
            if subscription is None or not subscription.total_order:
                continue
            key = tuple(sorted(subscription.pubends))
            sequence = [(p, t) for (p, t, __, ___) in client.received]
            groups.setdefault(key, []).append((name, sequence))
        failures: List[OracleFailure] = []
        for key, members in groups.items():
            baseline_name, baseline = members[0]
            for name, sequence in members[1:]:
                if sequence != baseline:
                    divergence = next(
                        (
                            i
                            for i, (a, b) in enumerate(zip(baseline, sequence))
                            if a != b
                        ),
                        min(len(baseline), len(sequence)),
                    )
                    failures.append(
                        OracleFailure(
                            "total-order",
                            f"{name} diverges from {baseline_name} on merge "
                            f"{key} at position {divergence} "
                            f"(lengths {len(sequence)} vs {len(baseline)})",
                        )
                    )
        return failures


# ---------------------------------------------------------------------------
# The backend-neutral record of a run, and its verdict
# ---------------------------------------------------------------------------


@dataclass
class StackOutcome:
    """Everything observable from one backend's run of a scenario, keyed
    by cross-stack publication identity ``(pubend, seq)``."""

    stack: str
    #: pubend -> successfully published seqs, in publish order.
    published: Dict[str, List[int]] = field(default_factory=dict)
    #: pubend -> publish attempts made (== the fixed count on success).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: subscriber -> {(pubend, seq)} actually delivered to the client.
    delivered: Dict[str, Set[Tuple[str, int]]] = field(default_factory=dict)
    #: Failures raised *inside* the run (oracles, delivery safety, a
    #: broker exception, an undetected injected corruption, ...).
    failures: List[str] = field(default_factory=list)
    #: pubend -> True when every live broker's istream doubt horizon
    #: cleared this stack's highest published tick.
    converged: Dict[str, bool] = field(default_factory=dict)
    #: (pubend, seq) -> lifecycle commit events observed.
    committed: Counter = field(default_factory=Counter)
    #: (subscriber, pubend, seq) -> lifecycle delivery events observed.
    lifecycle_delivered: Counter = field(default_factory=Counter)
    #: ``(kind, target)`` of every fault verb the stack reported, in order.
    faults: List[Tuple[str, str]] = field(default_factory=list)
    #: mutation name -> times the deliberate defect fired (aio only).
    mutated: Counter = field(default_factory=Counter)
    #: detection instrument -> corruptions the integrity layer caught
    #: (aio only; see ``repro.check.scenario.INTEGRITY_KINDS``).
    detected: Dict[str, int] = field(default_factory=dict)


def collect_outcome(
    stack: str,
    publishers: List[Any],
    system: Any,
    recorder: LifecycleRecorder,
    failures: List[str],
) -> StackOutcome:
    """Read a run, as it stands, off its system (either backend)."""
    outcome = StackOutcome(stack=stack, failures=failures)
    tick_to_seq: Dict[str, Dict[int, int]] = {}
    for publisher in publishers:
        outcome.published[publisher.pubend] = [
            seq for (seq, __, ___) in publisher.published
        ]
        outcome.attempts[publisher.pubend] = publisher.seq
        tick_to_seq[publisher.pubend] = {
            tick: seq for (seq, tick, __) in publisher.published
        }
    for name, client in system.subscribers.items():
        outcome.delivered[name] = {
            (pubend, event.get_attr("seq"))
            for pubend, __, event, ___ in client.received
        }
    for (pubend, tick), n in recorder.committed_events.items():
        seqmap = tick_to_seq.get(pubend)
        if seqmap is not None and tick in seqmap:
            outcome.committed[(pubend, seqmap[tick])] += n
    for (sub, pubend, tick), n in recorder.delivered_events.items():
        seqmap = tick_to_seq.get(pubend)
        if seqmap is not None and tick in seqmap:
            outcome.lifecycle_delivered[(sub, pubend, seqmap[tick])] += n
    outcome.faults = list(recorder.faults)
    outcome.converged = _knowledge_convergence(system.brokers, publishers)
    return outcome


def _knowledge_convergence(
    brokers: Dict[str, Any], publishers: List[Any]
) -> Dict[str, bool]:
    """Per pubend: did every *subend-hosting* broker's istream resolve
    all doubt at or below the highest tick this stack published?

    The check is scoped to brokers that host a subend for the pubend —
    the delivery path the paper's guarantee covers.  Brokers off the
    pubend's route (the other branch of a slot-partitioned bundle, or a
    broker holding only sideways-relay fragments) legitimately keep
    partial istreams forever: nobody downstream of them is curious."""
    top: Dict[str, int] = {}
    for publisher in publishers:
        if publisher.published:
            top[publisher.pubend] = max(t for (__, t, ___) in publisher.published)
    converged = {publisher.pubend: True for publisher in publishers}
    for broker in brokers.values():
        if not broker.alive:
            continue
        for pubend, state in broker.engine.stream_state().items():
            if pubend not in top or state.get("subend") is None:
                continue
            if state["istream"]["doubt_horizon"] <= top[pubend]:
                converged[pubend] = False
    return converged


def _matching_sets(
    scenario: Scenario, published: Dict[str, List[int]]
) -> Dict[str, Set[Tuple[str, int]]]:
    """Expected delivery set per subscriber, given one stack's published
    seqs — events are reconstructed from the deterministic workload
    attributes, so predicates must only use pub/seq/g (the generator's
    predicate pool guarantees this)."""
    modulus = {spec.pubend: spec.modulus for spec in scenario.publishers}
    expected: Dict[str, Set[Tuple[str, int]]] = {}
    for spec in scenario.subscribers:
        predicate = resolve_predicate(spec.predicate)
        matches: Set[Tuple[str, int]] = set()
        for pubend in spec.pubends:
            for seq in published.get(pubend, ()):
                event = Event(
                    {"pub": pubend, "seq": seq, "g": seq % modulus[pubend]}
                )
                if predicate(event):
                    matches.add((pubend, seq))
        expected[spec.subscriber] = matches
    return expected


def _preview(pairs: Any, limit: int = 3) -> str:
    items = sorted(pairs)
    head = ", ".join(repr(item) for item in items[:limit])
    more = f", ... +{len(items) - limit}" if len(items) > limit else ""
    return f"[{head}{more}]"


def judge_outcome(scenario: Scenario, outcome: StackOutcome) -> List[str]:
    """One stack against its own ground truth: every way the run broke
    the service specification, as ``[oracle] message`` lines (empty ==
    clean).  Exactly-once is judged against *this stack's* published set;
    the lifecycle-event multisets must be phantom- and duplicate-free
    against the client-visible record; knowledge must have converged."""
    lines = list(outcome.failures)
    expected = _matching_sets(scenario, outcome.published)
    for spec in scenario.subscribers:
        name = spec.subscriber
        delivered = outcome.delivered.get(name, set())
        missing = expected[name] - delivered
        unexpected = delivered - expected[name]
        if missing:
            lines.append(
                f"[exactly-once] {name}: {len(missing)} matching "
                f"publication(s) never delivered {_preview(missing)}"
            )
        if unexpected:
            lines.append(
                f"[exactly-once] {name}: {len(unexpected)} delivery(ies) of "
                f"unpublished or non-matching messages {_preview(unexpected)}"
            )

    published_flat = {
        (pubend, seq)
        for pubend, seqs in outcome.published.items()
        for seq in seqs
    }
    # Commit *events* may legitimately undercount the publish record:
    # the engine emits ``committed`` from a callback scheduled one
    # commit latency after the publish, and a crash inside that window
    # kills the callback while the log append survives — recovery
    # replays the committed state into the istream without re-emitting
    # lifecycle events.  The sound invariants are therefore phantom-
    # and duplicate-freedom, not set equality.
    phantom = set(outcome.committed) - published_flat
    if phantom:
        lines.append(
            f"[lifecycle] commit events for {len(phantom)} publication(s) "
            f"absent from the publish record {_preview(phantom)}"
        )
    for what, events in (
        ("commit", outcome.committed),
        ("delivery", outcome.lifecycle_delivered),
    ):
        repeated = {key: n for key, n in events.items() if n != 1}
        if repeated:
            lines.append(
                f"[lifecycle] duplicate {what} events {_preview(repeated.items())}"
            )
    client_keys = {
        (sub, pubend, seq)
        for sub, pairs in outcome.delivered.items()
        for (pubend, seq) in pairs
    }
    drift = set(outcome.lifecycle_delivered) ^ client_keys
    if drift:
        lines.append(
            f"[lifecycle] delivered-event multiset disagrees with client "
            f"records on {len(drift)} delivery(ies) {_preview(drift)}"
        )

    for spec in scenario.publishers:
        if not outcome.converged.get(spec.pubend, True):
            lines.append(
                f"[knowledge] residual doubt below the published horizon "
                f"of {spec.pubend} after drain"
            )
    return lines
