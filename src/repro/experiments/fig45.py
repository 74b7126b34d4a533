"""Failure-free overhead experiments (paper section 4.1, Figures 4 and 5).

The paper's setup: a two-broker asymmetric configuration — publishers at
the PHB, subscribers at the SHB — with an input rate of 2000 msgs/s of
250-byte messages, each subscriber receiving 2 msgs/s over its own
connection, subscriber counts swept up to 16000, comparing the guaranteed
delivery (GD) protocol against best-effort:

* **Figure 4**: mean CPU utilization at the SHB and PHB vs. subscriber
  count.  SHB utilization grows with subscribers for both protocols; the
  GD − best-effort gap stays constant (<4%) because GD stream state is
  consolidated across all subends of the SHB.  PHB utilization is flat in
  subscriber count, with a larger GD gap (~8%) due to logging.
* **Figure 5**: median local and remote latency vs. subscriber count.
  Remote latency grows with subscribers (fan-out queueing); the GD −
  best-effort difference is a constant ≈100 ms — the logging delay.

This driver reproduces the same sweep on the simulator's CPU cost model.
Default rates are scaled down (200 msgs/s in, subscriber counts in the
hundreds) so the sweep runs in seconds of wall time; the workload *shape*
(each subscriber receives ``per_sub_rate`` msgs/s via a group attribute
partition) is identical, and full-scale parameters are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..baselines.best_effort import BestEffortBroker
from ..core.config import LivenessParams
from ..matching.parser import parse
from ..metrics.cpu import CostModel
from ..metrics.recorder import median
from ..topology import two_broker_topology

__all__ = ["OverheadPoint", "run_overhead_point", "run_overhead_sweep", "PROTOCOLS"]

PROTOCOLS = ("gd", "best-effort")


@dataclass(frozen=True)
class OverheadPoint:
    """One measured configuration of the overhead experiment."""

    protocol: str
    n_subscribers: int
    shb_cpu: float
    phb_cpu: float
    local_median_ms: float
    remote_median_ms: float
    delivered: int


def run_overhead_point(
    protocol: str,
    n_subscribers: int,
    input_rate: float = 200.0,
    per_sub_rate: float = 2.0,
    msg_bytes: int = 250,
    warmup: float = 2.0,
    measure: float = 8.0,
    seed: int = 0,
    params: Optional[LivenessParams] = None,
    cost_model: Optional[CostModel] = None,
    log_commit_latency: float = 0.1,
) -> OverheadPoint:
    """Run one (protocol, subscriber-count) cell of the sweep.

    The workload partitions events into ``input_rate / per_sub_rate``
    groups via a ``group`` attribute; subscriber *i* subscribes to group
    ``i mod n_groups``, so each subscriber receives ``per_sub_rate``
    msgs/s regardless of the total subscriber count — the paper's
    workload shape.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    n_groups = max(int(input_rate / per_sub_rate), 1)
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    factory = BestEffortBroker if protocol == "best-effort" else None
    system = topo.build(
        seed=seed,
        params=params,
        cost_model=cost_model,
        log_commit_latency=log_commit_latency,
        broker_factory=factory,
    )
    # Remote subscribers at the SHB, one group each.
    for i in range(n_subscribers):
        system.subscribe(f"sub{i}", "shb", ("P0",), parse(f"group = {i % n_groups}"))
    # One local subscriber at the PHB measures local latency (paper:
    # "for measuring local latency, a subscribing client is connected to
    # the PHB").
    local = system.subscribe("local0", "phb", ("P0",), parse("group = 0"))
    publisher = system.publisher(
        "P0",
        rate=input_rate,
        make_attributes=lambda seq: {"group": seq % n_groups},
        body_bytes=msg_bytes,
    )
    publisher.start(at=0.05)
    system.run_until(warmup)
    shb = system.brokers["shb"]
    phb = system.brokers["phb"]
    shb.accountant.reset_window()
    phb.accountant.reset_window()
    measure_start = system.now
    system.run_until(warmup + measure)
    shb_cpu = shb.accountant.utilization()
    phb_cpu = phb.accountant.utilization()
    publisher.stop()
    system.run_for(2.0)  # drain in-flight deliveries

    def window_median_ms(subscriber_ids: Sequence[str]) -> float:
        values: List[float] = []
        for sid in subscriber_ids:
            series = system.metrics.latency.series(sid)
            values.extend(
                s.value for s in series.samples if s.t >= measure_start
            )
        if not values:
            return float("nan")
        return 1000.0 * median(values)

    remote_ids = [f"sub{i}" for i in range(n_subscribers)]
    return OverheadPoint(
        protocol=protocol,
        n_subscribers=n_subscribers,
        shb_cpu=shb_cpu,
        phb_cpu=phb_cpu,
        local_median_ms=window_median_ms(["local0"]),
        remote_median_ms=window_median_ms(remote_ids),
        delivered=system.metrics.latency.delivered,
    )


def run_overhead_sweep(
    subscriber_counts: Sequence[int],
    protocols: Sequence[str] = PROTOCOLS,
    **kwargs: Any,
) -> List[OverheadPoint]:
    """The full Figure 4/5 sweep: every protocol at every subscriber count."""
    points = []
    for n in subscriber_counts:
        for protocol in protocols:
            points.append(run_overhead_point(protocol, n, **kwargs))
    return points


def gd_minus_be(points: Sequence[OverheadPoint]) -> Dict[int, Dict[str, float]]:
    """Per subscriber count: the GD − best-effort deltas the paper
    highlights (SHB CPU gap, PHB CPU gap, remote latency gap)."""
    by_key: Dict[Tuple[str, int], OverheadPoint] = {
        (p.protocol, p.n_subscribers): p for p in points
    }
    deltas: Dict[int, Dict[str, float]] = {}
    for (protocol, n), point in by_key.items():
        if protocol != "gd":
            continue
        be = by_key.get(("best-effort", n))
        if be is None:
            continue
        deltas[n] = {
            "shb_cpu_gap": point.shb_cpu - be.shb_cpu,
            "phb_cpu_gap": point.phb_cpu - be.phb_cpu,
            "remote_latency_gap_ms": point.remote_median_ms - be.remote_median_ms,
            "local_latency_gap_ms": point.local_median_ms - be.local_median_ms,
        }
    return deltas
