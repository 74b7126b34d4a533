"""``repro.check`` — the scenario pipeline: fuzz, conformance and chaos.

Seeded scenario generation (:mod:`~repro.check.scenario`), the
exactly-once oracle suite and the backend-neutral verdict
(:mod:`~repro.check.oracles`), one driver per clock, the campaign loop
and the repro file (:mod:`~repro.check.runner`), the repro shrinker
(:mod:`~repro.check.shrink`), and the differential sim↔asyncio
comparison (:mod:`~repro.check.conformance`).  See ``docs/FUZZING.md``
for the seed/repro formats and the corpus check-in workflow, and
``docs/TESTING.md`` for how the tiers fit together.
"""

from .conformance import ConformanceResult, conform, run_conformance
from .oracles import ORACLES, OracleFailure, OracleSuite, StackOutcome
from .runner import (
    CampaignReport,
    RunResult,
    campaign,
    fuzz,
    load_repro,
    replay,
    run_scenario,
    run_scenario_aio,
    run_seed,
    write_repro,
)
from .scenario import (
    FORMAT,
    FaultSpec,
    PublisherSpec,
    Scenario,
    SubscriberSpec,
    TopologyMeta,
    build_topology,
    chaos_scenario,
    generate,
    scenario_seed,
)
from .shrink import ShrinkStats, shrink

__all__ = [
    "ORACLES",
    "OracleFailure",
    "OracleSuite",
    "StackOutcome",
    "CampaignReport",
    "RunResult",
    "campaign",
    "fuzz",
    "load_repro",
    "replay",
    "run_scenario",
    "run_scenario_aio",
    "run_seed",
    "write_repro",
    "FORMAT",
    "FaultSpec",
    "PublisherSpec",
    "Scenario",
    "SubscriberSpec",
    "TopologyMeta",
    "build_topology",
    "chaos_scenario",
    "generate",
    "scenario_seed",
    "ShrinkStats",
    "shrink",
    "ConformanceResult",
    "conform",
    "run_conformance",
]
