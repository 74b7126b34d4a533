"""Differential sim↔asyncio conformance: one scenario, two backends.

The simulator (:class:`~repro.topology.System`) is the evaluation
substrate the oracles were proven against; the asyncio runtime
(:class:`~repro.aio.runtime.AioSystem`) is the production backend.  Both
host the same :class:`~repro.broker.engine.GDBrokerEngine` behind one
:class:`~repro.facade.SystemFacade` shell — but nothing guarantees
they stay semantically interchangeable unless something *executes the
same adversarial scenario on both and cross-checks the outcomes*.  That
is this module.

:func:`run_conformance` takes one seeded
:class:`~repro.check.scenario.Scenario` (the PR-3 generator's unit:
topology + workload + fault schedule) and

1. runs it on the simulator with the fuzzer's own driver
   (:func:`~repro.check.runner.run_scenario`: oracle suite, the fault
   schedule as timed verbs on the system), except publishers are
   *count-limited* — each makes a fixed number of publish attempts
   derived from the scenario
   (:func:`~repro.check.runner.message_counts`), so any backend attempts
   the identical seq sequence;
2. runs it on the asyncio runtime with the chaos harness's own driver
   (:func:`~repro.check.runner.run_scenario_aio`: scaled wall-clock
   time, the same schedule — stalls included — applied to the
   :class:`~repro.aio.runtime.AioSystem`'s own fault verbs over either
   transport, convergence polling instead of a fixed drain window);
3. cross-checks the two :class:`~repro.check.oracles.StackOutcome`
   records (:func:`compare_outcomes`).

**The comparison relation.**  Publication identity across backends is
``(pubend, seq)`` — ticks are backend-local.  The stacks may legitimately
disagree on *which attempts succeeded*: a publish attempted while the
PHB is down fails, and crash/restart edges land at slightly different
attempt indexes in wall-clock time.  So the harness tolerates exactly
that difference and nothing else:

* per stack (:func:`~repro.check.oracles.judge_outcome`), every
  subscriber's delivery set must equal the matching subset of *that
  stack's* published set (exactly-once against its own ground truth,
  plus the sim oracle suite's verdicts);
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

Divergences are shrunk and persisted by the one campaign loop
(:func:`~repro.check.runner.campaign`) as repro files naming the
``conform`` judge (``tests/corpus/conformance/``); ``python -m repro
conform`` runs campaigns, ``python -m repro replay`` replays the files.
A deliberate-mutation self-test
(``mutations=("suppress-retransmit",)`` — see
:data:`repro.aio.runtime.KNOWN_MUTATIONS`) proves the harness detects a
runtime that drifts from the protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from .oracles import StackOutcome, _matching_sets, _preview, judge_outcome
from .runner import (
    CampaignReport,
    campaign,
    load_repro,
    message_counts,
    normalize_for_transport,
    run_scenario,
    run_scenario_aio,
)
from .scenario import Scenario, generate, scenario_seed

__all__ = [
    "ConformanceResult",
    "compare_outcomes",
    "run_conformance",
    "conform",
    "replay_conformance",
]


def compare_outcomes(
    scenario: Scenario, sim: StackOutcome, aio: StackOutcome
) -> List[str]:
    """All the ways the two stacks can disagree, as human-readable
    divergence lines (empty == conformant): each stack's own verdict,
    then the cross-stack relation."""
    divergences = [
        f"[{outcome.stack}] {line}"
        for outcome in (sim, aio)
        for line in judge_outcome(scenario, outcome)
    ]

    for pubend, count in sorted(sim.attempts.items()):
        if aio.attempts.get(pubend) != count:
            divergences.append(
                f"[workload] {pubend}: sim attempted {count} publishes, "
                f"aio attempted {aio.attempts.get(pubend)} — the count "
                f"budget was not honoured"
            )

    # The delivery sets may differ only where the published sets differ
    # (publish-failure timing around faults).
    expected_sim = _matching_sets(scenario, sim.published)
    expected_aio = _matching_sets(scenario, aio.published)
    for spec in scenario.subscribers:
        name = spec.subscriber
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
    return divergences


@dataclass
class ConformanceResult:
    """Verdict of one differential run."""

    scenario: Scenario
    sim: StackOutcome
    aio: StackOutcome
    #: The asyncio leg's run options (see :class:`~repro.check.runner.RunResult`).
    options: Dict[str, Any] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def failures(self) -> List[str]:
        """The divergences, under the name every campaign result has."""
        return self.divergences

    def summary(self) -> str:
        verdict = "agree" if self.ok else f"DIVERGE ({len(self.divergences)})"
        sim_pub, aio_pub = (
            sum(len(seqs) for seqs in outcome.published.values())
            for outcome in (self.sim, self.aio)
        )
        return (
            f"seed={self.scenario.seed} {self.scenario.topology} "
            f"faults={len(self.scenario.faults)} "
            f"pub(sim/aio)={sim_pub}/{aio_pub} "
            f"{verdict} [{self.elapsed:.1f}s]"
            + (f" mutated={dict(self.aio.mutated)}" if self.aio.mutated else "")
        )


def run_conformance(
    scenario: Scenario, *, transport: str = "local", **aio_options: Any
) -> ConformanceResult:
    """Execute one scenario on both backends and cross-check.

    ``transport`` and ``aio_options`` are
    :func:`~repro.check.runner.run_scenario_aio`'s (``time_scale``,
    ``data_dir``/``durable``, ``mutations``, ``corrupt_rate``); the sim
    leg runs unchanged by them — the differential oracle must not notice.
    """
    scenario = normalize_for_transport(scenario, transport)
    counts = message_counts(scenario)
    started = time.monotonic()
    sim = run_scenario(scenario, counts=counts)
    aio = run_scenario_aio(
        scenario, counts=counts, transport=transport, **aio_options
    )
    return ConformanceResult(
        scenario=scenario,
        options=aio.options,
        sim=sim.outcome,
        aio=aio.outcome,
        divergences=compare_outcomes(scenario, sim.outcome, aio.outcome),
        elapsed=time.monotonic() - started,
    )


def conform(
    base_seed: int,
    runs: int,
    run_fn: Callable[[Scenario], ConformanceResult] = run_conformance,
    *,
    shrink_budget: int = 24,
    **campaign_options: Any,
) -> CampaignReport:
    """The conformance campaign: ``runs`` generated scenarios, each run
    differentially by ``run_fn`` — :func:`run_conformance`, with whatever
    run options bound (``partial(run_conformance, transport="tcp")``).
    Every shrink probe runs both stacks, hence the small ``shrink_budget``;
    ``campaign_options`` as for :func:`~repro.check.runner.campaign`."""
    return campaign(
        base_seed,
        runs,
        lambda index: generate(scenario_seed(base_seed, index)),
        run_fn,
        stem="conform",
        shrink_budget=shrink_budget,
        **campaign_options,
    )


def replay_conformance(path: str) -> Tuple[ConformanceResult, str]:
    """Re-run a conformance repro with its stored options: (result,
    expected verdict ``"pass"`` / ``"fail"``)."""
    scenario, expect, judge, options = load_repro(path)
    if judge != "conform":
        raise ValueError(f"{path}: a {judge} repro, not a conformance one")
    return run_conformance(scenario, **options), expect
