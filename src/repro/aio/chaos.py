"""Seeded real-time chaos harness for the asyncio runtime.

The simulator proves exactly-once under deterministically fuzzed fault
schedules (``repro.check``); this module asserts the same service
specification against the *real-time* backend: an :class:`AioSystem`
with ``FileLog``-backed pubends over a real transport, while a seeded
schedule crashes and restarts brokers and fails and recovers links under
live traffic.  After the faults, everything is healed, publishers stop,
and the system is given a settle window; then the offline
:class:`~repro.client.DeliveryChecker` renders the verdict — zero
duplicate, zero missing deliveries — exactly as in the simulator's
oracle suite.

The schedule is a pure function of ``(seed, duration)``
(:func:`chaos_schedule`), so a failing seed can be re-run; wall-clock
jitter means real-time runs are not bit-reproducible, but the fault
pattern is.  The topology is a three-cell chain ``b0 — b1 — b2`` with
two pubends at ``b0`` and a subscriber at ``b2``: killing ``b0``
exercises PHB log replay and doubt-horizon re-advertisement, killing
``b1`` exercises pure soft-state recovery, and link outages exercise the
transport's supervision (reconnect, heartbeat failure detection).

Used by ``python -m repro chaos`` and the ``aio-chaos-smoke`` CI job;
see docs/DEPLOYMENT.md.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..client import CheckReport, DeliveryChecker
from ..core.config import LivenessParams
from ..storage.faults import corrupt_log_file
from ..topology import Topology
from .runtime import AioSystem, run_schedule
from .transport import LocalTransport, TcpTransport, Transport

__all__ = ["ChaosAction", "ChaosReport", "chaos_schedule", "run_chaos", "chaos"]

#: Liveness tuned for sub-second recovery in a smoke-test budget.
FAST_PARAMS = LivenessParams(
    gct=0.05,
    nrt_min=0.1,
    nrt_max=2.0,
    aet=1.0,
    dct=math.inf,
    silence_interval=0.1,
    link_status_interval=0.1,
)


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault.  ``kind`` is a
    :class:`~repro.facade.SystemFacade` fault verb applied as
    ``getattr(system, kind)(*target)`` — ``crash_broker``/``restart_broker``
    with target ``(broker,)``, ``fail_link``/``recover_link`` with
    ``(a, b)`` — or one of the corruption injections, which act on files
    and log handles rather than on the system surface: ``corrupt-log``
    (flip a bit in a stable-log record while its broker is down),
    ``corrupt-wire`` (damage the next frame on the wire), ``disk-full``
    (the next stable-log append hits ENOSPC)."""

    t: float
    kind: str
    target: Tuple[str, ...]

    def render(self) -> str:
        return f"t={self.t:.2f} {self.kind} {'-'.join(self.target)}"


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    seed: int
    duration: float
    transport: str
    actions: List[ChaosAction]
    published: int = 0
    delivered: int = 0
    reports: Dict[str, CheckReport] = field(default_factory=dict)
    #: Online failures (duplicate/order violations raised by clients,
    #: unexpected broker exceptions) — empty on a clean run.
    failures: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and all(
            r.exactly_once for r in self.reports.values()
        )

    def render(self) -> str:
        lines = [
            f"chaos seed={self.seed} duration={self.duration}s "
            f"transport={self.transport}"
        ]
        lines += [f"  {a.render()}" for a in self.actions]
        lines.append(
            f"  published {self.published}, delivered {self.delivered}"
        )
        for sub, report in sorted(self.reports.items()):
            verdict = "exactly-once" if report.exactly_once else (
                f"{len(report.missing)} missing, "
                f"{len(report.unexpected)} unexpected"
            )
            lines.append(f"  {sub}: {verdict}")
        for failure in self.failures:
            lines.append(f"  FAILURE: {failure}")
        if self.counters:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(self.counters.items())
            )
            lines.append(f"  transport: {rendered}")
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def chain_topology(link_latency: float = 0.002) -> Topology:
    """``b0 — b1 — b2``: PHB cell, intermediate cell, SHB cell."""
    topo = Topology()
    topo.cell("C0", "b0").cell("C1", "b1").cell("C2", "b2")
    topo.link("b0", "b1", latency=link_latency)
    topo.link("b1", "b2", latency=link_latency)
    topo.pubend("P0", "b0").pubend("P1", "b0")
    topo.route_all("C0", "C1").route_all("C1", "C2")
    return topo


def chaos_schedule(
    seed: int, duration: float, corrupt_rate: float = 0.0
) -> List[ChaosAction]:
    """The fault schedule for one seed: a pure function, so a failing
    seed reproduces the same fault pattern.

    Always includes one crash/restart of the publisher-hosting broker
    (the acceptance case: exactly-once across real PHB crash) and one
    fail/recover of a link; may add an intermediate-broker outage.  Every
    outage closes before ``0.72 * duration``, leaving the tail of the
    run for organic recovery before the settle window.

    ``corrupt_rate`` (default 0: schedules are byte-identical to the
    pre-corruption harness) adds each corruption action with that
    probability — at 1.0, all of:

    * ``corrupt-log`` at the midpoint of the PHB outage, while the log
      files are closed: the *oldest* record of each log gets a bit flip.
      It was published, delivered, and possibly truncated long before
      the fault window, so quarantining it on replay must not cost a
      delivery — only prove detection (``log_records_quarantined``).
    * ``corrupt-wire`` during the fault window: the next data frame is
      damaged in flight and must be rejected by checksum
      (``frames_rejected_crc``), never delivered.
    * ``disk-full`` after every outage has healed: the PHB's next stable
      append hits ENOSPC; the publish must fail *visibly*
      (``log_append_errors``) instead of advertising an unlogged tick.

    Corruption draws come after the base schedule, so the base fault
    pattern of a seed is unchanged by enabling corruption.
    """
    rng = random.Random(seed)
    window_lo, window_hi = 0.2 * duration, 0.72 * duration
    actions: List[ChaosAction] = []

    def outage(start_kind: str, end_kind: str, *target: str) -> Tuple[float, float]:
        start = rng.uniform(window_lo, window_hi - 0.15 * duration)
        end = min(start + rng.uniform(0.15, 0.3) * duration, window_hi)
        actions.append(ChaosAction(start, start_kind, target))
        actions.append(ChaosAction(end, end_kind, target))
        return start, end

    crash_t, restart_t = outage("crash_broker", "restart_broker", "b0")
    outage("fail_link", "recover_link", *rng.choice([("b0", "b1"), ("b1", "b2")]))
    if rng.random() < 0.5:
        outage("crash_broker", "restart_broker", "b1")
    if corrupt_rate > 0:
        if rng.random() < corrupt_rate:
            actions.append(
                ChaosAction((crash_t + restart_t) / 2.0, "corrupt-log", ("b0",))
            )
        if rng.random() < corrupt_rate:
            actions.append(
                ChaosAction(
                    rng.uniform(window_lo, window_hi), "corrupt-wire", ("wire",)
                )
            )
        if rng.random() < corrupt_rate:
            actions.append(ChaosAction(0.8 * duration, "disk-full", ("b0",)))
    return sorted(actions, key=lambda a: (a.t, a.kind, a.target))


async def chaos(
    seed: int = 0,
    duration: float = 2.0,
    transport: str = "tcp",
    data_dir: Optional[str] = None,
    params: Optional[LivenessParams] = None,
    rate: float = 60.0,
    settle: float = 2.5,
    corrupt_rate: float = 0.0,
) -> ChaosReport:
    """Run one seeded chaos scenario against the asyncio runtime."""
    if transport == "tcp":
        wire: Transport = TcpTransport(heartbeat_interval=0.1, seed=seed)
    elif transport == "local":
        wire = LocalTransport(latency=0.001, seed=seed)
    else:
        raise ValueError(f"transport must be 'tcp' or 'local', got {transport!r}")
    tmp_dir = None
    if data_dir is None:
        tmp_dir = data_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    actions = chaos_schedule(seed, duration, corrupt_rate)
    report = ChaosReport(
        seed=seed,
        duration=duration,
        transport=transport,
        actions=actions,
    )
    system = AioSystem(
        chain_topology(),
        params=params if params is not None else FAST_PARAMS,
        transport=wire,
        data_dir=data_dir,
    )
    try:
        await system.start()
        client = system.subscribe("sub0", "b2", ("P0", "P1"))
        publishers = [system.publisher(p, rate=rate) for p in ("P0", "P1")]
        for publisher in publishers:
            publisher.start()

        loop = asyncio.get_running_loop()
        t0 = loop.time()
        for action in actions:
            await asyncio.sleep(max(0.0, t0 + action.t - loop.time()))
            if action.kind == "corrupt-log":
                # The broker is down (midpoint of its outage): its log
                # files are closed.  Flip a bit in the *oldest* record of
                # each — delivered long ago, so replay must quarantine it
                # without costing a delivery.
                injected = 0
                for name in sorted(os.listdir(data_dir)):
                    if name.endswith(".log") and corrupt_log_file(
                        os.path.join(data_dir, name), seed=seed
                    ):
                        injected += 1
                report.counters["log_corruptions_injected"] = (
                    report.counters.get("log_corruptions_injected", 0) + injected
                )
            elif action.kind == "corrupt-wire":
                wire.corrupt_next_messages(1)
                report.counters["wire_corruptions_injected"] = (
                    report.counters.get("wire_corruptions_injected", 0) + 1
                )
            elif action.kind == "disk-full":
                broker = system.brokers.get(action.target[0])
                armed = 0
                if broker is not None and broker.alive:
                    # data_dir is always set here: every log is a FileLog.
                    for log in broker.hosted_logs().values():
                        log.inject_fault("enospc")
                        armed += 1
                report.counters["disk_full_injected"] = (
                    report.counters.get("disk_full_injected", 0) + armed
                )
            else:  # a fault verb of the system, due now
                await run_schedule(
                    system, [(action.t, action.kind, action.target, {})], t0
                )
        await asyncio.sleep(max(0.0, t0 + duration - loop.time()))

        # End of the fault window: the schedule already closed every
        # outage; stop traffic and let recovery machinery finish.
        for publisher in publishers:
            await publisher.stop()
        await asyncio.sleep(settle)

        checker = DeliveryChecker(publishers)
        report.published = sum(len(p.published) for p in publishers)
        report.delivered = len(client.received)
        report.reports["sub0"] = checker.check(
            client, system.subscriptions["sub0"]
        )
        for broker_id, broker in sorted(system.brokers.items()):
            if broker.failure is not None:
                report.failures.append(f"{broker_id}: {broker.failure!r}")
        for name in (
            "reconnects",
            "heartbeat_failures",
            "shed",
            "sent",
            "frames_sent",
            "msgs_sent",
            "serialize_cache_hits",
            "frames_rejected_crc",
        ):
            value = getattr(wire, name, None)
            if value is not None:
                report.counters[name] = value
        report.counters["broker_restarts"] = sum(
            b.restarts for b in system.brokers.values()
        )
        instruments = system.obs.instruments
        for name in ("log_records_quarantined", "log_append_errors"):
            report.counters[name] = int(instruments.total(name))
        # Every injected corruption must have been *detected and healed*,
        # not silently absorbed: the matching detection counter proves the
        # integrity layer saw it (the exactly-once verdict above proves
        # the healing).
        checks = (
            ("log_corruptions_injected", "log_records_quarantined",
             "injected log corruption was never quarantined on replay"),
            ("wire_corruptions_injected", "frames_rejected_crc",
             "injected wire corruption was never rejected by checksum"),
            ("disk_full_injected", "log_append_errors",
             "injected disk-full fault never surfaced as a log append error"),
        )
        for injected_name, detected_name, message in checks:
            if report.counters.get(injected_name, 0) and not report.counters.get(
                detected_name, 0
            ):
                report.failures.append(message)
    finally:
        await system.shutdown()
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)
    return report


def run_chaos(
    seed: int = 0,
    duration: float = 2.0,
    transport: str = "tcp",
    data_dir: Optional[str] = None,
    params: Optional[LivenessParams] = None,
    rate: float = 60.0,
    settle: float = 2.5,
    corrupt_rate: float = 0.0,
) -> ChaosReport:
    """Synchronous wrapper: run one chaos scenario on a fresh loop."""
    return asyncio.run(
        chaos(
            seed=seed,
            duration=duration,
            transport=transport,
            data_dir=data_dir,
            params=params,
            rate=rate,
            settle=settle,
            corrupt_rate=corrupt_rate,
        )
    )
