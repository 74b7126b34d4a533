"""Seeded real-time chaos: the paper's §4.2 fault pattern on the asyncio
runtime, and the wall-clock deployment preset.

The simulator proves exactly-once under deterministically fuzzed fault
schedules; chaos asserts the same service specification against the
*real-time* backend: an :class:`~repro.aio.runtime.AioSystem` with
``FileLog``-backed pubends over a real transport, while a seeded schedule
crashes and restarts brokers, fails and recovers links and (with
``corrupt_rate``) corrupts logs and frames under live traffic.

Chaos is a scenario generator, not a harness: the schedule is
:func:`repro.check.scenario.chaos_scenario` — a pure function of the seed,
so a failing seed reproduces the same fault pattern (wall-clock jitter
means real-time runs are not bit-reproducible) — and it runs through the
one asyncio driver, :func:`repro.check.runner.run_scenario_aio`, which
polls for convergence and judges exactly-once against the run's own
ground truth.  A failing run is shrunk and written as ``chaos-*.json`` by
the one campaign loop, and ``python -m repro replay`` re-runs it.

Used by ``python -m repro chaos`` and the ``aio-chaos-smoke`` CI job;
see docs/DEPLOYMENT.md.
"""

from __future__ import annotations

import math
import os
import tempfile
from typing import Any, Optional

from ..check.runner import (
    DEFAULT_TIME_SCALE,
    CampaignReport,
    RunResult,
    campaign,
    run_scenario_aio,
)
from ..check.scenario import Scenario, chaos_scenario
from ..core.config import LivenessParams
from ..topology import Topology

__all__ = ["FAST_PARAMS", "chain_topology", "chaos"]

#: The *wall-clock* preset: liveness tuned for sub-second recovery in real
#: time — what ``repro serve`` and the load benchmark deploy with.  (The
#: simulated-clock preset every scenario runs under, scaled to about this
#: by the asyncio driver, is :data:`repro.check.scenario.FAST_PARAMS`.)
FAST_PARAMS = LivenessParams(
    gct=0.05,
    nrt_min=0.1,
    nrt_max=2.0,
    aet=1.0,
    dct=math.inf,
    silence_interval=0.1,
    link_status_interval=0.1,
)


def chain_topology(link_latency: float = 0.002) -> Topology:
    """``b0 — b1 — b2``: PHB cell, intermediate cell, SHB cell."""
    topo = Topology()
    topo.cell("C0", "b0").cell("C1", "b1").cell("C2", "b2")
    topo.link("b0", "b1", latency=link_latency)
    topo.link("b1", "b2", latency=link_latency)
    topo.pubend("P0", "b0").pubend("P1", "b0")
    topo.route_all("C0", "C1").route_all("C1", "C2")
    return topo


def _wall_clock_scenario(
    seed: int, duration: float, settle: float, corrupt_rate: float
) -> Scenario:
    """``duration`` wall seconds of traffic and faults, then at most
    ``settle`` wall seconds to converge, as a scenario for the driver's
    default time scale."""
    scenario = chaos_scenario(seed, duration / DEFAULT_TIME_SCALE, corrupt_rate)
    return scenario.with_(
        drain_until=scenario.publish_until + settle / DEFAULT_TIME_SCALE
    )


def chaos(
    base_seed: int,
    runs: int,
    *,
    duration: float = 2.0,
    transport: str = "tcp",
    data_dir: Optional[str] = None,
    settle: float = 2.5,
    corrupt_rate: float = 0.0,
    min_published: int = 0,
    shrink_budget: int = 24,
    **campaign_options: Any,
) -> CampaignReport:
    """The chaos campaign: consecutive seeds from ``base_seed``
    (``campaign_options`` as for :func:`repro.check.runner.campaign`).  A
    run that carried fewer than ``min_published`` publications fails: it
    saw too little traffic to mean anything.  A shrink probe takes
    seconds, hence the small ``shrink_budget``."""
    if data_dir is not None:
        os.makedirs(data_dir, exist_ok=True)

    def run_fn(scenario: Scenario) -> RunResult:
        # Every run — the shrink probes of a failing seed too — gets a
        # fresh subdirectory, so none cold-starts over another's logs and
        # the log files (and any .quarantine sidecars left by corruption
        # injection) survive side by side for post-mortem / CI artifacts.
        run_dir = None
        if data_dir is not None:
            run_dir = tempfile.mkdtemp(prefix=f"seed-{scenario.seed}-", dir=data_dir)
        result = run_scenario_aio(
            scenario, transport=transport, data_dir=run_dir, durable=True
        )
        if result.published < min_published:
            result.failures.append(
                f"[workload] only {result.published} publications (wanted "
                f">= {min_published}): too little traffic to mean anything"
            )
        return result

    say = campaign_options.get("progress") or (lambda _line: None)

    def scenario_for(index: int) -> Scenario:
        scenario = _wall_clock_scenario(
            base_seed + index, duration, settle, corrupt_rate
        )
        schedule = ", ".join(f.describe(DEFAULT_TIME_SCALE) for f in scenario.faults)
        say(f"chaos seed={scenario.seed} {duration}s over {transport}: {schedule}")
        return scenario

    return campaign(
        base_seed,
        runs,
        scenario_for,
        run_fn,
        stem="chaos",
        shrink_budget=shrink_budget,
        **campaign_options,
    )
