"""Differential sim↔asyncio conformance: one scenario, two backends.

The simulator (:class:`~repro.topology.System`) is the evaluation
substrate the oracles were proven against; the asyncio runtime
(:class:`~repro.aio.runtime.AioSystem`) is the production backend.  Both
host the same :class:`~repro.broker.engine.GDBrokerEngine` behind the
:class:`~repro.facade.SystemFacade` protocol — but nothing guarantees
they stay semantically interchangeable unless something *executes the
same adversarial scenario on both and cross-checks the outcomes*.  That
is this module.

:func:`run_conformance` takes one seeded
:class:`~repro.check.scenario.Scenario` (the PR-3 generator's unit:
topology + workload + fault schedule) and

1. runs it on the simulator exactly like the fuzzer
   (:func:`~repro.check.runner.run_scenario` semantics: oracle suite,
   the fault schedule as timed verbs on a
   :class:`~repro.faults.injector.FaultInjector`), except publishers are
   *count-limited* — each makes a fixed number of publish attempts
   derived from the scenario, so any backend attempts the identical seq
   sequence;
2. runs it on the asyncio runtime in scaled wall-clock time
   (``time_scale`` wall seconds per sim second): the same schedule,
   expanded without stalls (:meth:`FaultSpec.steps(stall=False)
   <repro.check.scenario.FaultSpec.steps>`) and applied to the
   :class:`~repro.aio.runtime.AioSystem`'s own fault verbs over either
   transport, then polls for convergence instead of racing a fixed drain
   window;
3. cross-checks the two :class:`StackOutcome` records.

**The comparison relation.**  Publication identity across backends is
``(pubend, seq)`` — ticks are backend-local.  The stacks may legitimately
disagree on *which attempts succeeded*: a publish attempted while the
PHB is down fails, and crash/restart edges land at slightly different
attempt indexes in wall-clock time.  So the harness tolerates exactly
that difference and nothing else:

* per stack, every subscriber's delivery set must equal the matching
  subset of *that stack's* published set (exactly-once against its own
  ground truth, plus the sim oracle suite's verdicts);
* cross-stack, the symmetric difference of the delivery sets must be
  contained in the matching projection of the symmetric difference of
  the published sets — any disagreement beyond publish-failure timing is
  a divergence;
* the lifecycle-event multisets (committed per publication, delivered
  per (subscriber, publication) — order-insensitive by construction,
  because the protocol permits reordering between these moments) must be
  phantom-free and duplicate-free against each stack's client-visible
  record, and deliveries must be exactly-once as *events*, not just as
  set members (commit events may *undercount* the publish record when a
  crash lands inside the log's commit-latency window — the append
  survives, the event callback does not);
* final knowledge must have converged on both stacks: at every live
  broker, each published pubend's istream doubt horizon must clear the
  highest tick that stack published (no residual doubt about guaranteed
  traffic after the drain).

Because subscription predicates are evaluated on reconstructed events
when computing the matching projection, conformance workloads must use
predicates over the deterministic attributes (``pub``, ``seq``, ``g``)
— which is all the scenario generator's predicate pool ever uses.

Divergences are shrunk with the greedy fuzz shrinker (it only needs
``result.ok``) and persisted as ``repro-conform/1`` repro files under
``tests/corpus/conformance/``; the ``python -m repro conform`` CLI runs
campaigns and replays repro files.  A deliberate-mutation self-test
(``mutations=("suppress-retransmit",)`` — see
:data:`repro.aio.runtime.KNOWN_MUTATIONS`) proves the harness detects a
runtime that drifts from the protocol.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..client import DeliveryChecker, DuplicateDelivery, OrderViolation
from ..core.config import INFINITY, LivenessParams
from ..facade import SystemFacade, resolve_predicate
from ..faults.injector import FaultInjector
from ..matching.events import Event
from ..obs.lifecycle import LifecycleRecorder
from .oracles import OracleFailure, OracleSuite
from .runner import attach_workload, build_sim, publisher_start, schedule_steps
from .scenario import Scenario, build_topology, generate, scenario_seed

__all__ = [
    "CONFORM_FORMAT",
    "DEFAULT_TIME_SCALE",
    "StackOutcome",
    "ConformanceResult",
    "ConformReport",
    "message_counts",
    "run_conformance",
    "conform",
    "write_conformance_repro",
    "load_conformance_repro",
    "replay_conformance",
]

#: Conformance repro-file format tag (bump on incompatible changes).
CONFORM_FORMAT = "repro-conform/1"

#: Wall-clock seconds per simulated second for the asyncio leg.  At 0.35
#: a 6 s publish window takes ~2 s of wall time while every liveness
#: interval stays an order of magnitude above timer granularity.
DEFAULT_TIME_SCALE = 0.35

#: LivenessParams fields measured in seconds (scaled for the aio leg).
_TIME_FIELDS = (
    "gct",
    "nrt_min",
    "nrt_max",
    "dct",
    "aet",
    "aet_check_interval",
    "silence_interval",
    "link_status_interval",
    "subend_check_interval",
    "preassign_window",
    "flush_delay",
)


def message_counts(scenario: Scenario) -> Dict[str, int]:
    """Fixed publish-attempt counts per pubend, derived from the
    scenario's rates and publish window.  Both backends run each
    publisher for exactly this many attempts, so the attempted seq
    sequence is identical by construction."""
    counts: Dict[str, int] = {}
    for i, spec in enumerate(scenario.publishers):
        window = max(scenario.publish_until - publisher_start(i), 0.0)
        counts[spec.pubend] = max(1, int(spec.rate * window))
    return counts


def _scale_params(params: LivenessParams, scale: float) -> LivenessParams:
    changes: Dict[str, Any] = {}
    for name in _TIME_FIELDS:
        value = getattr(params, name)
        if value and value != INFINITY:
            changes[name] = value * scale
    return params.with_(**changes)


# ---------------------------------------------------------------------------
# Per-stack outcome records
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
    #: Stack-internal verdict failures (oracles, delivery safety, ...).
    failures: List[str] = field(default_factory=list)
    #: pubend -> True when every live broker's istream doubt horizon
    #: cleared this stack's highest published tick.
    converged: Dict[str, bool] = field(default_factory=dict)
    #: (pubend, seq) -> lifecycle commit events observed.
    committed: Counter = field(default_factory=Counter)
    #: (subscriber, pubend, seq) -> lifecycle delivery events observed.
    lifecycle_delivered: Counter = field(default_factory=Counter)
    retransmits_sent: int = 0
    #: ``(kind, target)`` of every fault verb the stack reported, in order.
    faults: List[Tuple[str, str]] = field(default_factory=list)
    #: mutation name -> times the deliberate defect fired (aio only).
    mutated: Counter = field(default_factory=Counter)
    elapsed: float = 0.0


def _collect_outcome(
    stack: str,
    scenario: Scenario,
    publishers: List[Any],
    system: Any,
    recorder: LifecycleRecorder,
    failures: List[str],
) -> StackOutcome:
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
        pairs: Set[Tuple[str, int]] = set()
        for pubend, tick, payload, __ in client.received:
            seq = _seq_of(payload, tick_to_seq.get(pubend, {}), tick)
            pairs.add((pubend, seq))
        outcome.delivered[name] = pairs
    for (pubend, tick), n in recorder.committed_events.items():
        seqmap = tick_to_seq.get(pubend)
        if seqmap is not None and tick in seqmap:
            outcome.committed[(pubend, seqmap[tick])] += n
    for (sub, pubend, tick), n in recorder.delivered_events.items():
        seqmap = tick_to_seq.get(pubend)
        if seqmap is not None and tick in seqmap:
            outcome.lifecycle_delivered[(sub, pubend, seqmap[tick])] += n
    outcome.retransmits_sent = recorder.retransmits_sent
    outcome.faults = list(recorder.faults)
    outcome.converged = _knowledge_convergence(system.brokers, publishers)
    return outcome


def _seq_of(payload: Any, seqmap: Dict[int, int], tick: int) -> int:
    if isinstance(payload, Event):
        seq = payload.get_attr("seq")
        if seq is not None:
            return int(seq)
    return seqmap.get(tick, -1)


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
        engine = getattr(broker, "engine", None)
        if not getattr(broker, "alive", False) or engine is None:
            continue
        if not hasattr(engine, "stream_state"):
            continue
        for pubend, state in engine.stream_state().items():
            if pubend not in top or state.get("subend") is None:
                continue
            if state["istream"]["doubt_horizon"] <= top[pubend]:
                converged[pubend] = False
    return converged


# ---------------------------------------------------------------------------
# The simulator leg
# ---------------------------------------------------------------------------


def _run_sim_stack(scenario: Scenario, counts: Dict[str, int]) -> StackOutcome:
    system = build_sim(scenario)
    assert isinstance(system, SystemFacade)
    recorder = LifecycleRecorder()
    system.obs.lifecycle.attach(recorder)
    publishers = attach_workload(system, scenario, counts)
    for i, publisher in enumerate(publishers):
        publisher.start(at=publisher_start(i))

    suite = OracleSuite(system, publishers)
    suite.install()
    schedule_steps(
        system.scheduler, FaultInjector(system), scenario.fault_steps()
    )

    failures: List[str] = []
    try:
        system.run_until(scenario.drain_until)
        for failure in suite.final_check(publishers):
            failures.append(str(failure))
    except OracleFailure as exc:
        failures.append(str(exc))
    except (DuplicateDelivery, OrderViolation) as exc:
        failures.append(f"[delivery-safety] {exc}")
    except AssertionError as exc:
        failures.append(f"[stream-invariants] {exc}")
    return _collect_outcome("sim", scenario, publishers, system, recorder, failures)


# ---------------------------------------------------------------------------
# The asyncio leg
# ---------------------------------------------------------------------------


async def _run_aio_stack_async(
    scenario: Scenario,
    counts: Dict[str, int],
    time_scale: float,
    transport: str,
    data_dir: Optional[str],
    mutations: Tuple[str, ...],
    aio_flush_delay: Optional[float] = None,
    corrupt_rate: float = 0.0,
) -> StackOutcome:
    from ..aio.runtime import AioSystem, run_schedule
    from ..aio.transport import LocalTransport, TcpTransport

    meta = build_topology(scenario)
    params = _scale_params(scenario.params(), time_scale)
    if transport == "tcp":
        # aio_flush_delay overrides the transport's cork window — used by
        # CI to prove aggressive wire batching is invisible to the
        # conformance oracles.
        wire: Any = (
            TcpTransport(seed=scenario.seed)
            if aio_flush_delay is None
            else TcpTransport(seed=scenario.seed, flush_delay=aio_flush_delay)
        )
    else:
        wire = LocalTransport(
            latency=0.002 * time_scale,
            drop_probability=scenario.drop_probability,
            jitter=scenario.jitter * time_scale,
            seed=scenario.seed,
            # Ambient wire corruption (--corrupt-rate): every corrupted
            # message is rejected by checksum at the receiver, so the
            # protocol experiences it as extra loss it must heal; the
            # conformance oracles must stay clean regardless.
            corrupt_probability=corrupt_rate,
        )
    system = AioSystem(
        meta.topo,
        params=params,
        transport=wire,
        data_dir=data_dir,
        mutations=mutations,
    )
    assert isinstance(system, SystemFacade)
    recorder = LifecycleRecorder()
    system.obs.lifecycle.attach(recorder)
    failures: List[str] = []
    loop = asyncio.get_running_loop()
    try:
        await system.start()
        t0 = loop.time()
        publishers = attach_workload(
            system, scenario, counts, rate_scale=1.0 / time_scale
        )
        for i, publisher in enumerate(publishers):
            loop.call_at(t0 + publisher_start(i) * time_scale, publisher.start)
        await run_schedule(
            system, scenario.fault_steps(stall=False, time_scale=time_scale), t0
        )

        # Publishers stop themselves at their attempt count; give them
        # the publish window plus generous slack before calling it hung.
        publish_deadline = t0 + scenario.publish_until * time_scale + 10.0
        while not all(p.done for p in publishers):
            if loop.time() > publish_deadline:
                failures.append(
                    "[conformance-aio] publishers did not finish their "
                    "attempt budget in time"
                )
                break
            await asyncio.sleep(0.05)

        # Convergence polling: the sim drains to a fixed deadline because
        # its clock is free; real time is not, so poll for the settled
        # state (exactly-once against own ground truth + knowledge
        # converged everywhere) and only give up at a generous deadline.
        checker = DeliveryChecker(publishers)
        deadline = t0 + (scenario.drain_until + 10.0) * time_scale

        def settled() -> bool:
            if any(not broker.alive for broker in system.brokers.values()):
                return False
            for name, client in system.subscribers.items():
                report = checker.check(client, system.subscriptions[name])
                if not report.exactly_once:
                    return False
            return all(
                _knowledge_convergence(system.brokers, publishers).values()
            )

        stable = 0
        while True:
            try:
                if settled():
                    stable += 1
                else:
                    stable = 0
            except AssertionError as exc:
                failures.append(f"[delivery-safety] {exc}")
                break
            if stable >= 2:
                break
            if loop.time() >= deadline:
                break
            await asyncio.sleep(max(0.1, 0.5 * time_scale))

        for broker_id, broker in sorted(system.brokers.items()):
            if broker.failure is not None:
                failures.append(
                    f"[aio-broker] {broker_id}: {broker.failure!r}"
                )
        outcome = _collect_outcome(
            "aio", scenario, publishers, system, recorder, failures
        )
        for broker in system.brokers.values():
            outcome.mutated.update(broker.mutation_counts)
        return outcome
    finally:
        await system.shutdown()


def _run_aio_stack(
    scenario: Scenario,
    counts: Dict[str, int],
    time_scale: float,
    transport: str,
    data_dir: Optional[str],
    mutations: Tuple[str, ...],
    aio_flush_delay: Optional[float] = None,
    corrupt_rate: float = 0.0,
) -> StackOutcome:
    return asyncio.run(
        _run_aio_stack_async(
            scenario,
            counts,
            time_scale,
            transport,
            data_dir,
            mutations,
            aio_flush_delay,
            corrupt_rate,
        )
    )


# ---------------------------------------------------------------------------
# Cross-checking
# ---------------------------------------------------------------------------


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


def compare_outcomes(
    scenario: Scenario, sim: StackOutcome, aio: StackOutcome
) -> List[str]:
    """All the ways the two stacks can disagree, as human-readable
    divergence lines (empty == conformant)."""
    divergences: List[str] = []
    for outcome in (sim, aio):
        for line in outcome.failures:
            divergences.append(f"[{outcome.stack}] {line}")

    for pubend, count in sorted(sim.attempts.items()):
        if aio.attempts.get(pubend) != count:
            divergences.append(
                f"[workload] {pubend}: sim attempted {count} publishes, "
                f"aio attempted {aio.attempts.get(pubend)} — the count "
                f"budget was not honoured"
            )

    expected_sim = _matching_sets(scenario, sim.published)
    expected_aio = _matching_sets(scenario, aio.published)
    for spec in scenario.subscribers:
        name = spec.subscriber
        for outcome, expected in ((sim, expected_sim), (aio, expected_aio)):
            delivered = outcome.delivered.get(name, set())
            missing = expected[name] - delivered
            unexpected = delivered - expected[name]
            if missing:
                divergences.append(
                    f"[{outcome.stack}] {name}: {len(missing)} matching "
                    f"publication(s) never delivered {_preview(missing)}"
                )
            if unexpected:
                divergences.append(
                    f"[{outcome.stack}] {name}: {len(unexpected)} "
                    f"delivery(ies) of unpublished or non-matching "
                    f"messages {_preview(unexpected)}"
                )
        # Cross-stack: the delivery sets may differ only where the
        # published sets differ (publish-failure timing around faults).
        allowed = expected_sim[name] ^ expected_aio[name]
        disagree = (
            sim.delivered.get(name, set()) ^ aio.delivered.get(name, set())
        ) - allowed
        if disagree:
            divergences.append(
                f"[delivery] {name}: stacks disagree on {len(disagree)} "
                f"delivery(ies) beyond the publication difference "
                f"{_preview(disagree)}"
            )

    for outcome in (sim, aio):
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
            divergences.append(
                f"[{outcome.stack}] lifecycle: commit events for "
                f"{len(phantom)} publication(s) absent from the publish "
                f"record {_preview(phantom)}"
            )
        recommitted = {key: n for key, n in outcome.committed.items() if n != 1}
        if recommitted:
            divergences.append(
                f"[{outcome.stack}] lifecycle: duplicate commit events "
                f"{_preview(recommitted.items())}"
            )
        duplicated = {
            key: n for key, n in outcome.lifecycle_delivered.items() if n != 1
        }
        if duplicated:
            divergences.append(
                f"[{outcome.stack}] lifecycle: non-exactly-once delivery "
                f"event counts {_preview(duplicated.items())}"
            )
        event_keys = {
            (sub, pubend, seq)
            for (sub, pubend, seq) in outcome.lifecycle_delivered
        }
        client_keys = {
            (sub, pubend, seq)
            for sub, pairs in outcome.delivered.items()
            for (pubend, seq) in pairs
        }
        if event_keys != client_keys:
            drift = event_keys ^ client_keys
            divergences.append(
                f"[{outcome.stack}] lifecycle: delivered-event multiset "
                f"disagrees with client records on {len(drift)} "
                f"delivery(ies) {_preview(drift)}"
            )

    for spec in scenario.publishers:
        for outcome in (sim, aio):
            if not outcome.converged.get(spec.pubend, True):
                divergences.append(
                    f"[{outcome.stack}] knowledge: residual doubt below "
                    f"the published horizon of {spec.pubend} after drain"
                )
    return divergences


# ---------------------------------------------------------------------------
# The harness entry points
# ---------------------------------------------------------------------------


@dataclass
class ConformanceResult:
    """Verdict of one differential run."""

    scenario: Scenario
    mutations: Tuple[str, ...] = ()
    transport: str = "local"
    time_scale: float = DEFAULT_TIME_SCALE
    aio_flush_delay: Optional[float] = None
    divergences: List[str] = field(default_factory=list)
    sim: Optional[StackOutcome] = None
    aio: Optional[StackOutcome] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = "agree" if self.ok else f"DIVERGE ({len(self.divergences)})"
        sim_pub = sum(len(v) for v in (self.sim.published.values() if self.sim else []))
        aio_pub = sum(len(v) for v in (self.aio.published.values() if self.aio else []))
        return (
            f"seed={self.scenario.seed} {self.scenario.topology} "
            f"faults={len(self.scenario.faults)} "
            f"pub(sim/aio)={sim_pub}/{aio_pub} "
            f"{verdict} [{self.elapsed:.1f}s]"
        )


def normalize_for_transport(scenario: Scenario, transport: str) -> Scenario:
    """TCP is a reliable stream: ambient wire loss and per-link bursts
    cannot be injected below it (``Transport.set_pathology`` raises
    there), so they are stripped from the scenario rather than silently
    not applied.  Crashes and link outages stay: both legs run them."""
    if transport != "tcp":
        return scenario
    faults = tuple(
        fault
        for fault in scenario.faults
        if fault.kind not in ("drop_burst", "reorder_burst", "corrupt_burst")
    )
    return scenario.with_(faults=faults, drop_probability=0.0, jitter=0.0)


def run_conformance(
    scenario: Scenario,
    *,
    time_scale: float = DEFAULT_TIME_SCALE,
    transport: str = "local",
    data_dir: Optional[str] = None,
    mutations: Tuple[str, ...] = (),
    aio_flush_delay: Optional[float] = None,
    corrupt_rate: float = 0.0,
) -> ConformanceResult:
    """Execute one scenario on both backends and cross-check.

    ``corrupt_rate`` adds ambient wire corruption to the aio leg's local
    transport (each corrupted message is checksum-rejected at the
    receiver and healed by retransmission); the sim leg runs unchanged —
    the differential oracle must not notice.  Ignored for ``tcp``, where
    sub-stream pathologies cannot be injected (see
    :func:`normalize_for_transport`).
    """
    scenario = normalize_for_transport(scenario, transport)
    mutations = tuple(mutations)
    counts = message_counts(scenario)
    started = time.monotonic()
    sim = _run_sim_stack(scenario, counts)
    aio = _run_aio_stack(
        scenario,
        counts,
        time_scale,
        transport,
        data_dir,
        mutations,
        aio_flush_delay,
        corrupt_rate if transport != "tcp" else 0.0,
    )
    result = ConformanceResult(
        scenario=scenario,
        mutations=mutations,
        transport=transport,
        time_scale=time_scale,
        aio_flush_delay=aio_flush_delay,
        sim=sim,
        aio=aio,
    )
    result.divergences = compare_outcomes(scenario, sim, aio)
    result.elapsed = time.monotonic() - started
    return result


@dataclass
class ConformReport:
    """Aggregate outcome of one conformance campaign."""

    base_seed: int
    runs: int = 0
    divergences: List[ConformanceResult] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences


def conform(
    base_seed: int,
    runs: int,
    time_budget: Optional[float] = None,
    shrink_divergences: bool = True,
    repro_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    stop_on_divergence: bool = True,
    time_scale: float = DEFAULT_TIME_SCALE,
    transport: str = "local",
    mutations: Tuple[str, ...] = (),
    shrink_budget: int = 24,
    aio_flush_delay: Optional[float] = None,
    corrupt_rate: float = 0.0,
) -> ConformReport:
    """The campaign loop: generate, run differentially, shrink and
    persist the first divergence found (mirroring :func:`~repro.check.runner.fuzz`)."""
    from .shrink import shrink

    report = ConformReport(base_seed=base_seed)
    started = time.monotonic()
    say = progress if progress is not None else (lambda _line: None)

    def run_fn(candidate: Scenario) -> ConformanceResult:
        return run_conformance(
            candidate,
            time_scale=time_scale,
            transport=transport,
            mutations=mutations,
            aio_flush_delay=aio_flush_delay,
            corrupt_rate=corrupt_rate,
        )

    for index in range(runs):
        if time_budget is not None and time.monotonic() - started > time_budget:
            say(f"time budget {time_budget:.0f}s exhausted after {index} runs")
            break
        seed = scenario_seed(base_seed, index)
        result = run_fn(generate(seed))
        report.runs += 1
        say(f"[{index + 1}/{runs}] {result.summary()}")
        if result.ok:
            continue
        for line in result.divergences:
            say(f"  {line}")
        report.divergences.append(result)
        if shrink_divergences:
            say(f"shrinking seed={seed} (each probe runs both stacks) ...")
            small, small_result = shrink(
                result.scenario, run_fn, max_runs=shrink_budget
            )
            path = write_conformance_repro(
                small,
                small_result,
                directory=repro_dir,
                stem=f"conform-{base_seed}-{index}",
            )
            report.repro_paths.append(path)
            say(
                f"minimized to {len(small.faults)} fault(s); repro "
                f"written to {path}"
            )
        if stop_on_divergence:
            break
    report.elapsed = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# Repro files (tests/corpus/conformance)
# ---------------------------------------------------------------------------


def write_conformance_repro(
    scenario: Scenario,
    result: Optional[ConformanceResult] = None,
    directory: Optional[str] = None,
    stem: str = "conform",
) -> str:
    """Serialize a divergence (or agreement) as a replayable repro file."""
    obj: Dict[str, Any] = {
        "format": CONFORM_FORMAT,
        "expect": "agree" if result is not None and result.ok else "diverge",
        "scenario": scenario.to_dict(),
    }
    if result is not None:
        obj["transport"] = result.transport
        obj["time_scale"] = result.time_scale
        obj["mutations"] = list(result.mutations)
        if result.aio_flush_delay is not None:
            obj["aio_flush_delay"] = result.aio_flush_delay
        obj["divergences"] = result.divergences
    directory = directory if directory is not None else "."
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{stem}.json")
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_conformance_repro(path: str) -> Tuple[Scenario, str, Dict[str, Any]]:
    """Read a conformance repro: (scenario, expect, run options)."""
    with open(path) as handle:
        obj = json.load(handle)
    fmt = obj.get("format")
    if fmt != CONFORM_FORMAT:
        raise ValueError(f"{path}: unsupported conformance format {fmt!r}")
    expect = obj.get("expect", "agree")
    if expect not in ("agree", "diverge"):
        raise ValueError(f"{path}: bad expect {expect!r}")
    scenario = Scenario.from_dict(obj["scenario"])
    options = {
        "transport": obj.get("transport", "local"),
        "time_scale": obj.get("time_scale", DEFAULT_TIME_SCALE),
        "mutations": tuple(obj.get("mutations", ())),
        "aio_flush_delay": obj.get("aio_flush_delay"),
    }
    return scenario, expect, options


def replay_conformance(path: str) -> Tuple[ConformanceResult, str]:
    """Re-run a conformance repro with its stored options."""
    scenario, expect, options = load_conformance_repro(path)
    result = run_conformance(
        scenario,
        time_scale=options["time_scale"],
        transport=options["transport"],
        mutations=options["mutations"],
        aio_flush_delay=options["aio_flush_delay"],
    )
    return result, expect
