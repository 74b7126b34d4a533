"""Failure-injection experiments (paper section 4.2, Figures 6-8).

The setup: the ten-broker, eight-cell network of Figure 3; four pubends
at p1, each publishing 25 msgs/s of 100-byte messages (100 msgs/s total —
low, so dynamics are observable without capacity effects); pass-through
filters at intermediates; liveness parameters GCT=200 ms, NRT=600 ms,
AET=10 s, DCT=∞.

Three faults are injected (each preceded by the paper's 2-3 s stall so
traffic is actually lost):

* ``link_b1_s1``  — Figure 6: the b1-s1 link stalls, fails for 10 s, then
  recovers.  s1 nacks to b2 and recovers in a burst (sawtooth latency,
  peak ≈ stall duration); s2 is unaffected.
* ``crash_b1``    — Figure 7: broker b1 stalls, crashes, restarts 30 s
  later.  s1 and s2 lose the same messages and nack almost identically;
  b2, holding none of the lost data, forwards consolidated nacks to p1 —
  the paper's "almost perfect" consolidation: b2's cumulative nack range
  is about half of s1 + s2 combined.
* ``crash_p1``    — Figure 8: the PHB crashes for ~20 s.  With DCT=∞ the
  subends stay quiet while p1 is down (no gaps are created); on recovery
  an AckExpected probe carrying the last-logged timestamp triggers nacks
  from s1-s5 and the logged-but-unsent messages arrive with high latency
  (partial sawtooth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..check.runner import schedule_steps
from ..check.scenario import FaultSpec
from ..client import DeliveryChecker, PublisherClient, SubscriberClient
from ..core.config import LivenessParams, PAPER_FAULT_PARAMS
from ..topology import balanced_pubend_names, figure3_topology

__all__ = ["FaultResult", "run_fault_experiment", "FAULTS"]

FAULTS = ("link_b1_s1", "crash_b1", "crash_p1")

#: All five subscriber-hosting brokers of the Figure 3 network.
SHB_BROKERS = ("s1", "s2", "s3", "s4", "s5")


@dataclass
class FaultResult:
    """Everything the Figure 6-8 plots need, plus correctness verdicts."""

    fault: str
    #: subscriber id -> list of (message send time, latency seconds).
    latency: Dict[str, List[Tuple[float, float]]]
    #: node id -> list of (time, nack range in ticks) per nack message.
    nacks: Dict[str, List[Tuple[float, float]]]
    #: subscriber id -> exactly-once verdict against ground truth.
    exactly_once: Dict[str, bool]
    #: subscriber id -> (delivered, expected) counts.
    counts: Dict[str, Tuple[int, int]]
    fault_log: List[str] = field(default_factory=list)

    def all_exactly_once(self) -> bool:
        return all(self.exactly_once.values())

    def nack_count(self, node: str) -> int:
        return len(self.nacks.get(node, []))

    def nack_range_total(self, node: str) -> float:
        return sum(r for __, r in self.nacks.get(node, []))

    def max_latency(self, subscriber: str) -> float:
        samples = self.latency.get(subscriber, [])
        return max((lat for __, lat in samples), default=0.0)

    def steady_latency(self, subscriber: str, before: float) -> float:
        """Median latency of messages sent before ``before`` (pre-fault)."""
        values = [lat for t, lat in self.latency.get(subscriber, []) if t < before]
        values.sort()
        return values[len(values) // 2] if values else 0.0


def run_fault_experiment(
    fault: str,
    seed: int = 7,
    rate: float = 25.0,
    n_pubends: int = 4,
    msg_bytes: int = 100,
    fault_at: float = 5.0,
    stall: float = 2.5,
    params: Optional[LivenessParams] = None,
    link_outage: float = 10.0,
    broker_downtime: float = 30.0,
    phb_downtime: float = 20.0,
    settle: float = 15.0,
) -> FaultResult:
    """Run one failure-injection experiment end to end.

    Publishers run from t≈0 until the fault has healed plus ``settle``
    seconds, then the system drains and every subscriber's delivery record
    is verified against the ground truth of successfully logged messages.
    """
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; one of {FAULTS}")
    params = params if params is not None else PAPER_FAULT_PARAMS
    names = balanced_pubend_names(n_pubends)
    system = figure3_topology(n_pubends=n_pubends, pubend_names=names).build(
        seed=seed, params=params
    )
    subscribers: Dict[str, SubscriberClient] = {}
    for shb in SHB_BROKERS:
        subscribers[f"sub_{shb}"] = system.subscribe(
            f"sub_{shb}", shb, tuple(names)
        )
    publishers: List[PublisherClient] = [
        system.publisher(name, rate=rate, body_bytes=msg_bytes) for name in names
    ]
    if fault == "link_b1_s1":
        spec = FaultSpec("stall_link_fail", ("b1", "s1"), fault_at, link_outage, stall=stall)
    elif fault == "crash_b1":
        spec = FaultSpec("stall_crash", ("b1",), fault_at, broker_downtime, stall=stall)
    else:  # crash_p1 — the paper crashes the PHB without a stall: the
        # publisher is down with it and cannot publish at all.
        spec = FaultSpec("crash", ("p1",), fault_at, phb_downtime)
    schedule_steps(system.scheduler, system, spec.steps())
    for publisher in publishers:
        publisher.start(at=0.2)
    stop_at = spec.healed_at + settle
    system.run_until(stop_at)
    for publisher in publishers:
        publisher.stop()
    system.run_until(stop_at + settle)

    checker = DeliveryChecker(publishers)
    exactly_once: Dict[str, bool] = {}
    counts: Dict[str, Tuple[int, int]] = {}
    for sub_id, client in subscribers.items():
        report = checker.check(client, system.subscriptions[sub_id])
        exactly_once[sub_id] = report.exactly_once
        counts[sub_id] = (report.delivered, report.matching_published)
    latency = {
        sub_id: [(s.t, s.value) for s in system.metrics.latency.series(sub_id).samples]
        for sub_id in subscribers
    }
    nacks = {
        node: [(s.t, s.value) for s in system.metrics.nacks.series(node).samples]
        for node in system.metrics.nacks.nodes()
    }
    return FaultResult(
        fault=fault,
        latency=latency,
        nacks=nacks,
        exactly_once=exactly_once,
        counts=counts,
        fault_log=[str(e) for e in system.obs.fault_events],
    )
