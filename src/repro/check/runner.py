"""Execute scenarios: one driver per clock, one campaign loop, one repro file.

A :class:`~repro.check.scenario.Scenario` is the only unit of adversarial
execution, whoever generated it (:func:`~repro.check.scenario.generate`
for the fuzzer and the conformance harness,
:func:`~repro.check.scenario.chaos_scenario` for chaos), and it has
exactly one driver per clock, both returning a :class:`RunResult`:

* :func:`run_scenario` realizes it as a simulated system, arms the
  :class:`~repro.check.oracles.OracleSuite`, expands the fault script
  into timed verbs on the system itself (:func:`schedule_steps`), and
  runs publish + quiescent drain.  Its
  ``digest`` is a stable fingerprint of everything observable — two runs
  of the same scenario must produce byte-identical digests, which is what
  the determinism tests and ``--verify-deterministic`` check.
* :func:`run_scenario_aio` realizes it as an
  :class:`~repro.aio.runtime.AioSystem` in scaled wall-clock time over
  either transport: the same schedule, stalls included, applied to the
  system's own fault verbs; it polls for the verdict instead of racing a
  fixed drain window.

:func:`campaign` is the one loop over them — a scenario per run, and on
a failure :func:`~repro.check.shrink.shrink` plus :func:`write_repro` —
behind :func:`fuzz`, :func:`~repro.check.conformance.conform` and
:func:`~repro.aio.chaos.chaos`.  A repro file names its judge and carries
every run option that is not the scenario, so ``python -m repro replay``
re-runs any of them (docs/FUZZING.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..client import DuplicateDelivery, OrderViolation
from ..core.config import LivenessParams
from ..facade import SystemFacade
from ..obs.lifecycle import LifecycleRecorder
from .oracles import (
    OracleFailure,
    OracleSuite,
    StackOutcome,
    collect_outcome,
    judge_outcome,
)
from .scenario import (
    BURST_KINDS,
    INTEGRITY_KINDS,
    Scenario,
    Step,
    build_topology,
    generate,
    scenario_seed,
)

__all__ = [
    "DEFAULT_TIME_SCALE",
    "RunResult",
    "CampaignReport",
    "attach_workload",
    "schedule_steps",
    "publisher_start",
    "message_counts",
    "normalize_for_transport",
    "run_scenario",
    "run_scenario_aio",
    "run_seed",
    "campaign",
    "fuzz",
    "write_repro",
    "load_repro",
]

#: Wall-clock seconds per scenario second on the asyncio driver.  At 0.35
#: a 6 s publish window takes ~2 s of wall time while every liveness
#: interval stays an order of magnitude above timer granularity.
DEFAULT_TIME_SCALE = 0.35

#: Fault kinds a backend cannot inject, stripped from the scenario rather
#: than silently not applied: the simulator has no files and no frames, and
#: TCP is a reliable stream (``Transport.set_pathology`` raises there).
_UNINJECTABLE = {"sim": INTEGRITY_KINDS, "tcp": BURST_KINDS}


def publisher_start(index: int) -> float:
    """Publisher start staggering, in scenario seconds."""
    return 0.05 + 0.01 * index


def message_counts(scenario: Scenario) -> Dict[str, int]:
    """Fixed publish-attempt counts per pubend, derived from the
    scenario's rates and publish window.  Run on either backend with
    these, each publisher makes exactly this many attempts, so the
    attempted seq sequence is identical by construction."""
    counts: Dict[str, int] = {}
    for i, spec in enumerate(scenario.publishers):
        window = max(scenario.publish_until - publisher_start(i), 0.0)
        counts[spec.pubend] = max(1, int(spec.rate * window))
    return counts


def _scale_params(params: LivenessParams, scale: float) -> LivenessParams:
    """Every float field of :class:`LivenessParams` is a duration in
    seconds (an infinite or zero one scales to itself)."""
    return params.with_(**{
        f.name: getattr(params, f.name) * scale
        for f in fields(params)
        if f.type in (float, "float")
    })


def normalize_for_transport(scenario: Scenario, transport: str) -> Scenario:
    """The scenario minus what ``transport`` (``"sim"``, ``"local"`` or
    ``"tcp"``) cannot inject — see :data:`_UNINJECTABLE`; below TCP that
    includes the ambient wire loss.  Crashes and link outages always
    stay: every backend runs them."""
    stripped = _UNINJECTABLE.get(transport)
    if stripped is None:
        return scenario
    changes: Dict[str, Any] = {
        "faults": tuple(f for f in scenario.faults if f.kind not in stripped)
    }
    if transport == "tcp":
        changes.update(drop_probability=0.0, jitter=0.0)
    return scenario.with_(**changes)


@dataclass
class RunResult:
    """The verdict of one scenario run, on either clock."""

    scenario: Scenario
    #: One ``[oracle] message`` line per violation; empty == passed.
    failures: List[str] = field(default_factory=list)
    #: Violating publication identities ``(pubend, tick)``, when the
    #: failing oracles could name them.
    subjects: List[Tuple[str, int]] = field(default_factory=list)
    published: int = 0
    delivered: int = 0
    #: The applied faults, one ``str(FaultEvent)`` line each.
    fault_log: List[str] = field(default_factory=list)
    #: Simulator only: oracle sweeps made and the fingerprint (wall-clock
    #: runs are not bit-reproducible).
    sweeps: int = 0
    digest: str = ""
    #: The run keyed by cross-stack identity ``(pubend, seq)``.
    outcome: Optional[StackOutcome] = None
    #: Every run option that is not the scenario (asyncio driver only);
    #: :func:`write_repro` persists them, :func:`load_repro` hands them back.
    options: Dict[str, Any] = field(default_factory=dict)
    #: With ``run_scenario(..., causal=True)``: the rendered causal span
    #: timeline of the first subject (with the failure message as header)
    #: — the artifact the fuzzer writes next to a shrunk repro file.
    causal_timeline: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def oracles_failed(self) -> List[str]:
        return [line[1 : line.index("]")] for line in self.failures]

    def summary(self) -> str:
        text = (
            f"seed={self.scenario.seed} {self.scenario.topology} "
            f"faults={len(self.scenario.faults)} pub={self.published} "
            f"dlv={self.delivered} "
        )
        text += "ok" if self.ok else f"FAIL {sorted(set(self.oracles_failed))}"
        if self.outcome is not None:
            if self.outcome.mutated:
                text += f" mutated={dict(self.outcome.mutated)}"
            detected = {k: v for k, v in self.outcome.detected.items() if v}
            if detected:
                text += f" detected={detected}"
        return text


def attach_workload(
    system: Any,
    scenario: Scenario,
    counts: Optional[Dict[str, int]] = None,
    rate_scale: float = 1.0,
) -> List[Any]:
    """Realise the scenario's subscribers and publishers on any
    :class:`~repro.facade.SystemFacade`; returns the publishers, not yet
    started.  ``counts`` makes them count-limited (attempts per pubend),
    ``rate_scale`` converts the scenario's rates to the backend's clock."""
    assert isinstance(system, SystemFacade)
    for spec in scenario.subscribers:
        system.subscribe(
            spec.subscriber,
            spec.broker,
            spec.pubends,
            predicate=spec.predicate,
            total_order=spec.total_order,
        )
    return [
        system.publisher(
            spec.pubend,
            spec.rate * rate_scale,
            make_attributes=lambda seq, m=spec.modulus: {"g": seq % m},
            max_messages=None if counts is None else counts[spec.pubend],
        )
        for spec in scenario.publishers
    ]


def schedule_steps(scheduler: Any, target: Any, steps: Iterable[Step]) -> None:
    """The simulator's schedule executor: ``getattr(target, verb)(*args,
    **kwargs)`` at simulated time ``t`` for every step, the target being
    a :class:`~repro.topology.System`; the asyncio twin is
    :func:`repro.aio.runtime.run_schedule`."""
    for t, verb, args, kwargs in steps:
        scheduler.call_at(t, partial(getattr(target, verb), *args, **kwargs))


def _digest(system: Any, failures: List[str]) -> str:
    """A stable fingerprint of everything externally observable."""
    obj: Dict[str, Any] = {
        "published": {
            p.pubend: [tick for (__, tick, ___) in p.published]
            for p in system.publishers
        },
        "delivered": {
            name: [(p, t) for (p, t, __, ___) in client.received]
            for name, client in sorted(system.subscribers.items())
        },
        "failures": failures,
    }
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The simulated-clock driver
# ---------------------------------------------------------------------------


def run_scenario(
    scenario: Scenario,
    *,
    counts: Optional[Dict[str, int]] = None,
    causal: bool = False,
) -> RunResult:
    """Build, fault, run and judge one scenario on the simulator
    (deterministic).

    By default publishers run until ``scenario.publish_until``; with
    ``counts`` (:func:`message_counts`) they are count-limited instead,
    which makes the run's :class:`StackOutcome` comparable with the
    asyncio driver's (the conformance harness).

    With ``causal=True`` a :class:`~repro.obs.causal.CausalTracer` rides
    along (pure observation — the digest is unchanged) and the result
    carries the span timeline of the first oracle-failure subject.
    """
    meta = build_topology(scenario)
    system = meta.topo.build(seed=scenario.seed, params=scenario.params())
    if scenario.drop_probability or scenario.jitter:
        for a, b in meta.links:
            link = system.network.link(a, b)
            link.drop_probability = scenario.drop_probability
            link.jitter = scenario.jitter
    tracer = None
    if causal:
        from ..obs.causal import CausalTracer

        tracer = CausalTracer(system).install()
    recorder = LifecycleRecorder()
    system.obs.lifecycle.attach(recorder)
    publishers = attach_workload(system, scenario, counts)
    for i, publisher in enumerate(publishers):
        publisher.start(at=publisher_start(i))
        if counts is None:
            system.scheduler.call_at(scenario.publish_until, publisher.stop)

    suite = OracleSuite(system, publishers)
    suite.install()
    schedule_steps(
        system.scheduler,
        system,
        normalize_for_transport(scenario, "sim").fault_steps(),
    )

    result = RunResult(scenario=scenario)
    try:
        system.run_until(scenario.drain_until)
        violations = suite.final_check(publishers)
    except OracleFailure as exc:
        violations = [exc]
    except (DuplicateDelivery, OrderViolation) as exc:
        violations = [OracleFailure("delivery-safety", str(exc))]
    except AssertionError as exc:
        violations = [OracleFailure("stream-invariants", str(exc))]
    for violation in violations:
        result.failures.append(str(violation))
        if violation.subject is not None:
            result.subjects.append(violation.subject)

    result.published = sum(len(p.published) for p in publishers)
    result.delivered = sum(c.count() for c in system.subscribers.values())
    result.sweeps = suite.sweeps
    result.fault_log = [str(e) for e in system.obs.fault_events]
    result.digest = _digest(system, result.failures)
    result.outcome = collect_outcome(
        "sim", publishers, system, recorder, result.failures
    )
    if tracer is not None and result.subjects:
        pubend, tick = result.subjects[0]
        result.causal_timeline = tracer.render_timeline(
            pubend, tick, header=result.failures[0]
        )
    return result


def run_seed(seed: int) -> RunResult:
    """Generate and run the scenario for one fully-mixed seed."""
    return run_scenario(generate(seed))


# ---------------------------------------------------------------------------
# The wall-clock driver
# ---------------------------------------------------------------------------


def run_scenario_aio(
    scenario: Scenario,
    *,
    counts: Optional[Dict[str, int]] = None,
    time_scale: float = DEFAULT_TIME_SCALE,
    transport: str = "local",
    data_dir: Optional[str] = None,
    durable: bool = False,
    mutations: Iterable[str] = (),
    corrupt_rate: float = 0.0,
) -> RunResult:
    """Build, fault, run and judge one scenario on the asyncio runtime, in
    scaled wall-clock time (``time_scale`` wall seconds per scenario
    second), on a fresh event loop.

    Publishers are always count-limited (``counts``, default
    :func:`message_counts`).  ``transport`` is ``"local"`` or ``"tcp"``;
    ``corrupt_rate`` adds ambient wire corruption on the local transport
    (checksum-rejected at the receiver, healed by retransmission).
    ``data_dir`` gives every pubend a ``FileLog`` there; ``durable``
    without one uses a temporary directory.  ``mutations`` builds the
    runtime with deliberate protocol defects
    (:data:`repro.aio.runtime.KNOWN_MUTATIONS`) — the self-test that a
    harness can see a failure at all.

    The verdict is :func:`~repro.check.oracles.judge_outcome` — the stack
    exactly-once against its own ground truth, knowledge converged —
    polled for until ``drain_until``, plus: no broker exception, and every
    injected corruption detected
    (:data:`~repro.check.scenario.INTEGRITY_KINDS`).
    """
    import asyncio
    import contextlib
    import tempfile

    from ..aio.runtime import AioSystem, run_schedule
    from ..aio.transport import LocalTransport, TcpTransport

    scenario = normalize_for_transport(scenario, transport)
    mutations = tuple(mutations)
    counts = counts if counts is not None else message_counts(scenario)
    if transport == "tcp":
        wire: Any = TcpTransport(seed=scenario.seed)
    elif transport == "local":
        wire = LocalTransport(
            latency=0.002 * time_scale,
            drop_probability=scenario.drop_probability,
            jitter=scenario.jitter * time_scale,
            seed=scenario.seed,
            corrupt_probability=corrupt_rate,
        )
    else:
        raise ValueError(f"transport must be 'tcp' or 'local', got {transport!r}")
    result = RunResult(
        scenario=scenario,
        options={
            "transport": transport,
            "time_scale": time_scale,
            "durable": durable or data_dir is not None,
            "mutations": list(mutations),
            "corrupt_rate": corrupt_rate,
        },
    )

    async def drive(log_dir: Optional[str]) -> StackOutcome:
        system = AioSystem(
            build_topology(scenario).topo,
            params=_scale_params(scenario.params(), time_scale),
            transport=wire,
            data_dir=log_dir,
            mutations=mutations,
        )
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
            await run_schedule(system, scenario.fault_steps(time_scale), t0)

            # The sim drains to a fixed deadline because its clock is free;
            # real time is not, so poll until the publishers have made their
            # attempts and the run would pass as it stands, twice in a row,
            # and give up at ``drain_until``.
            def outcome() -> StackOutcome:
                return collect_outcome("aio", publishers, system, recorder, failures)

            deadline = t0 + scenario.drain_until * time_scale
            stable = 0
            while True:
                settled = (
                    all(p.done for p in publishers)
                    and all(b.alive for b in system.brokers.values())
                    and not judge_outcome(scenario, outcome())
                )
                stable = stable + 1 if settled else 0
                if stable >= 2 or loop.time() >= deadline:
                    break
                await asyncio.sleep(max(0.1, 0.5 * time_scale))

            if not all(p.done for p in publishers):
                failures.append(
                    "[workload] publishers did not finish their attempt budget"
                )
            for broker_id, broker in sorted(system.brokers.items()):
                if broker.failure is not None:
                    failures.append(
                        f"[aio-broker] {broker_id}: {broker.failure!r}"
                    )
            # Every injected corruption must have been *detected*, not
            # silently absorbed (the exactly-once verdict proves the healing).
            injected = Counter(event.kind for event in system.obs.fault_events)
            detected = {}
            for kind, (instrument, message) in INTEGRITY_KINDS.items():
                detected[instrument] = int(system.obs.instruments.total(instrument))
                if injected[kind] and not detected[instrument]:
                    failures.append(f"[integrity] {message}")
            result.fault_log = [str(e) for e in system.obs.fault_events]
            final = outcome()
            final.detected = detected
            for broker in system.brokers.values():
                final.mutated.update(broker.mutation_counts)
            return final
        finally:
            await system.shutdown()

    logs: Any = contextlib.nullcontext(data_dir)
    if durable and data_dir is None:
        logs = tempfile.TemporaryDirectory(prefix="repro-aio-")
    with logs as log_dir:
        result.outcome = asyncio.run(drive(log_dir))
    result.failures = judge_outcome(scenario, result.outcome)
    result.published = sum(len(v) for v in result.outcome.published.values())
    result.delivered = sum(len(v) for v in result.outcome.delivered.values())
    return result


# ---------------------------------------------------------------------------
# The campaign loop
# ---------------------------------------------------------------------------


@dataclass
class CampaignReport:
    """Aggregate outcome of one campaign (fuzz, conformance or chaos)."""

    base_seed: int
    runs: int = 0
    #: The failing runs' results, in run order.
    failures: List[Any] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def campaign(
    base_seed: int,
    runs: int,
    scenario_for: Callable[[int], Scenario],
    run_fn: Callable[[Scenario], Any],
    *,
    stem: str,
    time_budget: Optional[float] = None,
    shrink: bool = True,
    shrink_budget: int = 80,
    repro_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    keep_going: bool = False,
) -> CampaignReport:
    """Run ``scenario_for(index)`` under ``run_fn`` for ``runs`` indexes
    (stopping early at ``time_budget`` wall seconds, and at the first
    failure unless ``keep_going``); shrink each failure found and write it
    as ``<stem>-<base_seed>-<index>.json`` — ``stem`` is also the judge the
    repro file names (``"fuzz"``, ``"conform"`` or ``"chaos"``).

    ``run_fn`` returns a :class:`RunResult` or anything else with ``ok``,
    ``summary()``, ``failures``, ``scenario`` and ``options``."""
    from .shrink import shrink as minimize  # shrink imports this module

    report = CampaignReport(base_seed=base_seed)
    started = time.monotonic()
    say = progress if progress is not None else (lambda _line: None)
    for index in range(runs):
        if time_budget is not None and time.monotonic() - started > time_budget:
            say(f"time budget {time_budget:.0f}s exhausted after {index} runs")
            break
        result = run_fn(scenario_for(index))
        report.runs += 1
        say(f"[{index + 1}/{runs}] {result.summary()}")
        if result.ok:
            continue
        for line in result.failures:
            say(f"  {line}")
        report.failures.append(result)
        if shrink:
            say(f"shrinking seed={result.scenario.seed} ...")
            small, small_result = minimize(
                result.scenario, run_fn, max_runs=shrink_budget
            )
            path = write_repro(
                small,
                small_result,
                judge=stem,
                directory=repro_dir,
                stem=f"{stem}-{base_seed}-{index}",
            )
            report.repro_paths.append(path)
            say(f"minimized to {len(small.faults)} fault(s); repro written to {path}")
        if not keep_going:
            break
    report.elapsed = time.monotonic() - started
    return report


def fuzz(
    base_seed: int,
    runs: int,
    *,
    flush_delay: Optional[float] = None,
    **campaign_options: Any,
) -> CampaignReport:
    """The fuzz campaign: ``runs`` generated scenarios on the simulator
    under the oracle suite (``campaign_options`` as for :func:`campaign`).
    ``flush_delay`` overrides every scenario's batching knob — how CI
    proves delta flushing preserves the oracles.  Each shrunk repro gets
    the violating message's causal span timeline written next to it
    (``<repro>.timeline.txt``)."""

    def scenario_for(index: int) -> Scenario:
        scenario = generate(scenario_seed(base_seed, index))
        if flush_delay is not None:
            scenario = scenario.with_(flush_delay=flush_delay)
        return scenario

    report = campaign(
        base_seed, runs, scenario_for, run_scenario, stem="fuzz", **campaign_options
    )
    for path in report.repro_paths:
        # Re-run under the causal tracer (pure observation: same digest).
        traced = run_scenario(load_repro(path)[0], causal=True)
        if traced.causal_timeline:
            with open(path[: -len(".json")] + ".timeline.txt", "w") as handle:
                handle.write(traced.causal_timeline)
    return report


# ---------------------------------------------------------------------------
# Repro files (the corpus unit)
# ---------------------------------------------------------------------------

#: Every run option a repro file may carry, with what a file without the
#: key means (files written before the option existed).
_RUN_OPTIONS = {
    "transport": "local",
    "time_scale": DEFAULT_TIME_SCALE,
    "durable": False,
    "mutations": (),
    "corrupt_rate": 0.0,
}

#: Top-level format tag of the conformance repro files written before the
#: schemas were unified (``expect`` was ``agree``/``diverge``, the judge
#: implicit); fuzz files of that era carry no top-level tag at all.
_LEGACY_CONFORM_FORMAT = "repro-conform/1"


def write_repro(
    scenario: Scenario,
    result: Any = None,
    *,
    judge: str = "fuzz",
    directory: Optional[str] = None,
    stem: str = "repro",
) -> str:
    """Serialize one scenario, the judge that ruled on it
    (``"fuzz"``: :func:`run_scenario`; ``"conform"``:
    :func:`~repro.check.conformance.run_conformance`; ``"chaos"``:
    :func:`run_scenario_aio`), the verdict and the run options as a
    replayable repro file."""
    obj: Dict[str, Any] = {
        "expect": "pass" if result is not None and result.ok else "fail",
        "judge": judge,
        "scenario": scenario.to_dict(),
    }
    if result is not None:
        obj.update(result.options)
        obj["failures"] = result.failures
    directory = directory if directory is not None else "."
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{stem}.json")
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_repro(path: str) -> Tuple[Scenario, str, str, Dict[str, Any]]:
    """Read a repro file: (scenario, expected verdict ``"pass"`` /
    ``"fail"``, judge, run options to call the judge with)."""
    with open(path) as handle:
        obj = json.load(handle)
    fmt = obj.get("format")
    if fmt not in (None, _LEGACY_CONFORM_FORMAT):
        raise ValueError(f"{path}: unsupported repro format {fmt!r}")
    judge = obj.get("judge", "fuzz" if fmt is None else "conform")
    if judge not in ("fuzz", "conform", "chaos"):
        raise ValueError(f"{path}: unknown judge {judge!r}")
    expect = obj.get("expect", "pass")
    expect = {"agree": "pass", "diverge": "fail"}.get(expect, expect)
    if expect not in ("pass", "fail"):
        raise ValueError(f"{path}: bad expect {expect!r}")
    options: Dict[str, Any] = {}
    if judge != "fuzz":
        options = {
            name: obj.get(name, default) for name, default in _RUN_OPTIONS.items()
        }
        options["mutations"] = tuple(options["mutations"])
    return Scenario.from_dict(obj["scenario"]), expect, judge, options
