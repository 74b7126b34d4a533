"""Execute scenarios under the oracle suite: the fuzz loop and replay.

:func:`run_scenario` realizes one :class:`~repro.check.scenario.Scenario`
as a simulated system, arms the :class:`~repro.check.oracles.OracleSuite`,
expands the fault script into timed verbs on a
:class:`~repro.faults.injector.FaultInjector` (:func:`schedule_steps`),
runs publish + quiescent drain, and reports a :class:`RunResult` whose
``digest`` is a stable fingerprint of everything observable (per-subscriber
delivery sequences, publication counts, verdicts) — two runs of the same
scenario must produce byte-identical digests, which is what the
determinism tests and the CLI's ``--verify-deterministic`` flag check.

:func:`fuzz` is the loop: derive per-run seeds from a base seed
(:func:`~repro.check.scenario.scenario_seed`), generate + run each
scenario, and on the first oracle failure optionally hand the scenario to
:func:`~repro.check.shrink.shrink` and write the minimized schedule as a
JSON repro file (the corpus check-in unit; see docs/FUZZING.md).

Fuzz-side telemetry rides the same observability plane as the protocol:
each run's ``system.obs`` gains ``repro_fuzz_oracle_failures_total``
(labelled by oracle) next to ``repro_faults_injected_total``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..client import DuplicateDelivery, OrderViolation
from ..faults.injector import FaultInjector
from ..topology import System
from .oracles import OracleFailure, OracleSuite
from .scenario import Scenario, Step, build_topology, generate, scenario_seed

__all__ = [
    "RunResult",
    "FuzzReport",
    "attach_workload",
    "build_sim",
    "schedule_steps",
    "publisher_start",
    "run_scenario",
    "run_seed",
    "fuzz",
    "write_repro",
    "load_repro",
]


def publisher_start(index: int) -> float:
    """Publisher start staggering, in sim seconds."""
    return 0.05 + 0.01 * index


@dataclass
class RunResult:
    """The verdict of one scenario run."""

    scenario: Scenario
    failures: List[str] = field(default_factory=list)
    oracles_failed: List[str] = field(default_factory=list)
    #: Violating publication identities ``(pubend, tick)``, when the
    #: failing oracles could name them.
    subjects: List[Tuple[str, int]] = field(default_factory=list)
    published: int = 0
    delivered: int = 0
    sweeps: int = 0
    sim_time: float = 0.0
    fault_log: List[str] = field(default_factory=list)
    digest: str = ""
    #: The run's :class:`~repro.obs.causal.CausalTracer` when the caller
    #: asked for one (``run_scenario(..., causal=True)``), else None.
    causal: Any = None
    #: Rendered causal span timeline of the first subject (with the
    #: failure message as header) — the artifact the fuzzer writes next
    #: to a shrunk repro file.
    causal_timeline: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"FAIL {sorted(set(self.oracles_failed))}"
        return (
            f"seed={self.scenario.seed} {self.scenario.topology} "
            f"faults={len(self.scenario.faults)} pub={self.published} "
            f"dlv={self.delivered} {verdict}"
        )


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


def build_sim(scenario: Scenario) -> System:
    """The scenario's topology as a simulated system, every link at the
    scenario's ambient pathology."""
    meta = build_topology(scenario)
    system = meta.topo.build(seed=scenario.seed, params=scenario.params())
    if scenario.drop_probability or scenario.jitter:
        for a, b in meta.links:
            link = system.network.link(a, b)
            link.drop_probability = scenario.drop_probability
            link.jitter = scenario.jitter
    return system


def schedule_steps(scheduler: Any, target: Any, steps: Iterable[Step]) -> None:
    """The simulator's schedule executor: ``getattr(target, verb)(*args,
    **kwargs)`` at simulated time ``t`` for every step.  The target is a
    :class:`~repro.faults.injector.FaultInjector` (stall verbs, readable
    log) or a bare :class:`~repro.topology.System`; the asyncio twin is
    :func:`repro.aio.runtime.run_schedule`."""
    for t, verb, args, kwargs in steps:
        scheduler.call_at(t, partial(getattr(target, verb), *args, **kwargs))


def _digest(system: System, failures: List[str]) -> str:
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


def run_scenario(scenario: Scenario, causal: bool = False) -> RunResult:
    """Build, fault, run and judge one scenario (deterministic).

    With ``causal=True`` a :class:`~repro.obs.causal.CausalTracer` rides
    along (pure observation — the digest is unchanged) and the result
    carries the span timeline of the first oracle-failure subject.
    """
    system = build_sim(scenario)
    tracer = None
    if causal:
        from ..obs.causal import CausalTracer

        tracer = CausalTracer(system).install()
    publishers = attach_workload(system, scenario)
    for i, publisher in enumerate(publishers):
        publisher.start(at=publisher_start(i))
        system.scheduler.call_at(scenario.publish_until, publisher.stop)

    suite = OracleSuite(system, publishers)
    suite.install()
    injector = FaultInjector(system)
    schedule_steps(system.scheduler, injector, scenario.fault_steps())

    result = RunResult(scenario=scenario)
    try:
        system.run_until(scenario.drain_until)
        for failure in suite.final_check(publishers):
            result.failures.append(str(failure))
            result.oracles_failed.append(failure.oracle)
            if failure.subject is not None:
                result.subjects.append(failure.subject)
    except OracleFailure as exc:
        result.failures.append(str(exc))
        result.oracles_failed.append(exc.oracle)
        if exc.subject is not None:
            result.subjects.append(exc.subject)
    except (DuplicateDelivery, OrderViolation) as exc:
        result.failures.append(f"[delivery-safety] {exc}")
        result.oracles_failed.append("delivery-safety")
    except AssertionError as exc:
        result.failures.append(f"[stream-invariants] {exc}")
        result.oracles_failed.append("stream-invariants")

    result.published = sum(len(p.published) for p in publishers)
    result.delivered = sum(c.count() for c in system.subscribers.values())
    result.sweeps = suite.sweeps
    result.sim_time = system.scheduler.now
    result.fault_log = list(injector.log)
    result.digest = _digest(system, result.failures)
    for oracle in result.oracles_failed:
        system.obs.counter(
            "repro_fuzz_oracle_failures_total",
            "Oracle violations observed by the fuzz harness, by oracle.",
            oracle=oracle,
        ).inc()
    if tracer is not None:
        result.causal = tracer
        if result.subjects:
            pubend, tick = result.subjects[0]
            result.causal_timeline = tracer.render_timeline(
                pubend, tick,
                header=result.failures[0] if result.failures else "",
            )
    return result


def run_seed(seed: int, flush_delay: Optional[float] = None) -> RunResult:
    """Generate and run the scenario for one fully-mixed seed.

    ``flush_delay`` overrides the generated scenario's batching knob —
    the whole campaign then runs with delta flushing forced on (or off),
    which is how CI proves batching preserves the oracles."""
    scenario = generate(seed)
    if flush_delay is not None:
        scenario = scenario.with_(flush_delay=flush_delay)
    return run_scenario(scenario)


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz campaign."""

    base_seed: int
    runs: int = 0
    failures: List[RunResult] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    base_seed: int,
    runs: int,
    time_budget: Optional[float] = None,
    shrink_failures: bool = True,
    repro_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    stop_on_failure: bool = True,
    flush_delay: Optional[float] = None,
) -> FuzzReport:
    """Run ``runs`` generated scenarios (stopping early at ``time_budget``
    wall seconds); shrink and serialize the first failure found."""
    from .shrink import shrink  # local import: shrink imports this module

    report = FuzzReport(base_seed=base_seed)
    started = time.monotonic()
    say = progress if progress is not None else (lambda _line: None)
    for index in range(runs):
        if time_budget is not None and time.monotonic() - started > time_budget:
            say(f"time budget {time_budget:.0f}s exhausted after {index} runs")
            break
        seed = scenario_seed(base_seed, index)
        result = run_seed(seed, flush_delay=flush_delay)
        report.runs += 1
        say(f"[{index + 1}/{runs}] {result.summary()}")
        if result.ok:
            continue
        report.failures.append(result)
        if shrink_failures:
            say(f"shrinking seed={seed} ...")
            small, small_result = shrink(result.scenario, run_scenario)
            path = write_repro(
                small,
                small_result,
                directory=repro_dir,
                stem=f"fuzz-{base_seed}-{index}",
            )
            report.repro_paths.append(path)
            say(
                f"minimized to {len(small.faults)} fault(s); repro "
                f"written to {path}"
            )
            # Re-run the shrunk scenario under the causal tracer (pure
            # observation: same digest) and dump the violating message's
            # span timeline next to the repro for triage.
            causal_result = run_scenario(small, causal=True)
            if causal_result.causal_timeline:
                timeline_path = path[: -len(".json")] + ".timeline.txt"
                with open(timeline_path, "w") as handle:
                    handle.write(causal_result.causal_timeline)
                say(f"causal timeline of {causal_result.subjects[0]} "
                    f"written to {timeline_path}")
        if stop_on_failure:
            break
    report.elapsed = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# Repro files (the corpus unit)
# ---------------------------------------------------------------------------


def write_repro(
    scenario: Scenario,
    result: Optional[RunResult] = None,
    directory: Optional[str] = None,
    stem: str = "repro",
) -> str:
    """Serialize one scenario (plus its verdict) as a corpus repro file."""
    import os

    obj: Dict[str, Any] = {
        "expect": "pass" if result is not None and result.ok else "fail",
        "scenario": scenario.to_dict(),
    }
    if result is not None:
        obj["oracles"] = sorted(set(result.oracles_failed))
        obj["failures"] = result.failures
    directory = directory if directory is not None else "."
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{stem}.json")
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_repro(path: str) -> Tuple[Scenario, str]:
    """Read a corpus repro file: (scenario, expected verdict)."""
    with open(path) as handle:
        obj = json.load(handle)
    scenario = Scenario.from_dict(obj["scenario"])
    expect = obj.get("expect", "pass")
    if expect not in ("pass", "fail"):
        raise ValueError(f"{path}: bad expect {expect!r}")
    return scenario, expect
