"""Latency attribution: where did a delivery's end-to-end time go?

Given a :class:`~repro.obs.causal.CausalTracer`'s records,
:func:`build_report` decomposes every delivery's end-to-end latency
(client publish → subscriber observation) into named components that
**always sum to the total** (any interval the records cannot explain is
reported as ``unattributed`` rather than silently absorbed):

``commit``
    publish call → pubend log commit at the hosting broker.
``matching``
    time a hop spent deciding/constructing the forward (availability at
    the sender → first send), excluding flush and retransmit waits.
``flush_wait``
    time the tick sat in an ostream's pending flush (PR-4 batching)
    before going on the wire.
``retransmit_wait``
    first send → the send whose copy actually arrived, when the arriving
    copy was a curiosity-answering retransmission (covers the drop +
    nack round trip).
``transit``
    wire time of each hop (send → envelope reaches the host).
``queueing``
    host arrival → broker CPU got to it (cost-model work queue).
``horizon_wait``
    data ingested at the subscriber's broker → delivery queued on the
    client connection (doubt-horizon resolution: gap fills, ordering,
    silence round trips).
``fanout``
    client write queued → subscriber observed it (per-subscriber CPU +
    client link latency).

The decomposition walks the *arrival chain* backwards from the
subscriber's broker: each node's first arrival of the tick records which
upstream send it matched, so the chain reconstructs the actual path
(including sideways relays) rather than assuming the static route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = ["COMPONENTS", "LatencyBreakdown", "AttributionReport", "build_report"]

COMPONENTS = (
    "commit",
    "matching",
    "flush_wait",
    "retransmit_wait",
    "transit",
    "queueing",
    "horizon_wait",
    "fanout",
    "unattributed",
)


@dataclass
class LatencyBreakdown:
    """One delivery's decomposition; ``sum(components) == total``."""

    subscriber: str
    pubend: str
    tick: int
    total: float
    components: Dict[str, float]
    path: Tuple[str, ...]  # broker chain, publisher-host first
    complete: bool  # False when records were missing (residual only)

    def check_sum(self, tolerance: float = 1e-9) -> bool:
        return abs(sum(self.components.values()) - self.total) <= tolerance


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _breakdown(tracer, delivery) -> LatencyBreakdown:
    subscriber, pubend, tick, t_deliver, shb = delivery
    key = (pubend, tick)
    components = {name: 0.0 for name in COMPONENTS[:-1]}
    pub = tracer.pubs.get(key)
    write = tracer.client_writes.get((subscriber, pubend, tick))
    if pub is None or pub.t_commit is None or write is None:
        total = 0.0 if pub is None else t_deliver - pub.t_pub
        return LatencyBreakdown(
            subscriber, pubend, tick, total, {"unattributed": total}, (), False
        )
    total = t_deliver - pub.t_pub
    components["commit"] = pub.t_commit - pub.t_pub

    # Reconstruct the broker chain backwards from the subscriber's host.
    chain: List[Tuple[str, object]] = []
    node, complete, seen = shb, True, set()
    while node != pub.node and node not in seen:
        seen.add(node)
        arrival = tracer.arrivals.get((node, pubend, tick))
        if arrival is None or not arrival.src:
            complete = False
            break
        chain.append((node, arrival))
        node = arrival.send_node or arrival.src
    chain.reverse()

    t_avail, prev = pub.t_commit, pub.node
    for node, arrival in chain:
        send_t = arrival.send_t
        if send_t is None:
            # Unjoined send (e.g. upstream crashed mid-flight): charge the
            # whole gap to the residual by skipping component assignment.
            complete = False
            t_avail, prev = arrival.t_proc, node
            continue
        first_send = min(
            (t for t, _ in tracer.send_times.get((prev, pubend, tick), ())),
            default=send_t,
        )
        first_send = min(max(first_send, t_avail), send_t)
        # [t_avail, first_send): deciding + (possibly) batched flush hold.
        flush = 0.0
        cell = arrival.send_cell
        if cell is not None:
            window = tracer.flush_windows.get((prev, pubend, cell, tick))
            if window is not None:
                defer_t, flush_t = window
                flush = _overlap(
                    t_avail, first_send, defer_t, flush_t if flush_t else first_send
                )
        components["flush_wait"] += flush
        components["matching"] += (first_send - t_avail) - flush
        components["retransmit_wait"] += send_t - first_send
        components["transit"] += arrival.t_raw - send_t
        components["queueing"] += arrival.t_proc - arrival.t_raw
        t_avail, prev = arrival.t_proc, node

    t_write, _write_node = write
    components["horizon_wait"] = t_write - t_avail
    components["fanout"] = t_deliver - t_write

    residual = total - sum(components.values())
    components["unattributed"] = residual
    if abs(residual) < 1e-12:
        components["unattributed"] = 0.0
    path = (pub.node,) + tuple(node for node, _ in chain)
    return LatencyBreakdown(
        subscriber, pubend, tick, total, components, path, complete
    )


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


@dataclass
class RouteStats:
    """Aggregated component statistics for one (pubend, subscriber) route."""

    pubend: str
    subscriber: str
    count: int
    totals: Dict[str, float]
    p50: Dict[str, float]
    p95: Dict[str, float]
    peak: Dict[str, float]


@dataclass
class AttributionReport:
    """All per-delivery breakdowns plus per-route percentile aggregates."""

    breakdowns: List[LatencyBreakdown]
    routes: List[RouteStats] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(b.complete for b in self.breakdowns)

    def format(self, top: int = 0) -> str:
        lines = [
            f"latency attribution: {len(self.breakdowns)} deliveries,"
            f" {len(self.routes)} routes"
        ]
        header = f"{'route':<24} {'n':>5} {'stat':>5}  " + " ".join(
            f"{name:>11}" for name in COMPONENTS + ("total",)
        )
        lines.append(header)
        for route in self.routes:
            label = f"{route.pubend}->{route.subscriber}"
            for stat, table in (("p50", route.p50), ("p95", route.p95),
                                ("max", route.peak)):
                cells = " ".join(
                    f"{table.get(name, 0.0) * 1e3:9.3f}ms"
                    for name in COMPONENTS + ("total",)
                )
                lines.append(f"{label:<24} {route.count:>5} {stat:>5}  {cells}")
        if top:
            lines.append("slowest deliveries:")
            slowest = sorted(
                self.breakdowns, key=lambda b: -b.total
            )[:top]
            for b in slowest:
                dominant = max(b.components, key=lambda k: b.components[k])
                lines.append(
                    f"  ({b.pubend},{b.tick}) -> {b.subscriber}: "
                    f"{b.total * 1e3:.3f}ms total, dominated by {dominant} "
                    f"({b.components[dominant] * 1e3:.3f}ms) via {'>'.join(b.path)}"
                )
        return "\n".join(lines) + "\n"


def build_report(tracer) -> AttributionReport:
    """Decompose every delivery the tracer saw; aggregate per route."""
    breakdowns = [_breakdown(tracer, d) for d in tracer.deliveries]
    by_route: Dict[Tuple[str, str], List[LatencyBreakdown]] = {}
    for b in breakdowns:
        by_route.setdefault((b.pubend, b.subscriber), []).append(b)
    routes = []
    for (pubend, subscriber), group in sorted(by_route.items()):
        names = COMPONENTS + ("total",)
        series = {
            name: [
                b.total if name == "total" else b.components.get(name, 0.0)
                for b in group
            ]
            for name in names
        }
        routes.append(
            RouteStats(
                pubend,
                subscriber,
                len(group),
                totals={name: sum(series[name]) for name in names},
                p50={name: _percentile(series[name], 0.50) for name in names},
                p95={name: _percentile(series[name], 0.95) for name in names},
                peak={name: max(series[name]) if series[name] else 0.0
                      for name in names},
            )
        )
    return AttributionReport(breakdowns, routes)
