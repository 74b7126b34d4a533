"""Names, units and bounds of everything the load benchmark reports.

Later issues cite these names; ``run.py --list`` prints them and
``test_harness.py`` checks that ``BENCHMARK.json`` says the same.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Measurement window of one run when ``--seconds`` is not given; equals
#: ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 15

#: workload name -> one-line reason it exists.
WORKLOADS: Dict[str, str] = {
    "steady_local": (
        "paced 500 msg/s, near-empty unacked window: per-message engine+streams "
        "cost; bypass workload for backlog work (wire, codec, disk idle)"
    ),
    "backlog_drain": (
        "1000-message bursts, unacked tail 1000 deep: curiosity/interval rescans "
        "dominate (ROADMAP item 2); fixed work, closed loop on bursts"
    ),
    "tcp_durable": (
        "what `repro serve --data-dir` builds: TCP loopback + fsynced FileLog, "
        "mixed body sizes; wire codec, cork pump and log append do the work"
    ),
    "fanout_churn": (
        "2000 content subscriptions with add/remove churn: matching tree, subend "
        "fan-out and client delivery dominate; matcher writes beside reads"
    ),
    "lossy_recovery": (
        "1 publication in 10 loses a message, then a 2 s link outage: curious state "
        "is common, nack and retransmit paths run constantly (paper Fig. 6, real time)"
    ),
    "sim_chain": (
        "deterministic simulator chain with 1% loss and one outage: same engine, "
        "timer-free and CPU-bound, counts repeat exactly for a seed"
    ),
}

#: (name, unit, better, bound) — reported by every workload, untraced.
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen before a change counts as a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("cpu_us_per_pub", "us", "lower", 0.25),
    ("delivered_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better, workload) — end-to-end figures only one workload
#: defines.  Printed and written to ``--json`` from the untraced pass,
#: but not in BENCHMARK.json, whose contract wants every gated metric
#: from every workload.
WORKLOAD_ONLY: List[Tuple[str, str, str, str]] = [
    ("max_rate_ok", "msg/s", "higher", "steady_local"),
    ("burst_drain_p50_ms", "ms", "lower", "backlog_drain"),
    ("catchup_s", "s", "lower", "lossy_recovery"),
]

#: (name, unit, better) — from the traced pass; no bounds.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("storage.log.append_calls_per_pub", "count", "lower"),
    ("storage.log.append_us_per_pub", "us", "lower"),
    ("storage.log.append_cpu_us_per_pub", "us", "lower"),
    ("storage.log.truncate_us_per_pub", "us", "lower"),
    ("storage.log.bytes_per_pub", "B", "lower"),
    ("core.pubend.publish_self_us_per_pub", "us", "lower"),
    ("core.pubend.retransmission_calls_per_pub", "count", "lower"),
    ("core.pubend.silence_calls_per_s", "1/s", "lower"),
    ("core.intervals.scan_calls_per_pub", "count", "lower"),
    ("core.intervals.scan_us_per_pub", "us", "lower"),
    ("core.intervals.runs_scanned_per_pub", "count", "lower"),
    ("core.intervals.updates_per_pub", "count", "lower"),
    ("core.intervals.splices_per_pub", "count", "lower"),
    ("core.streams.accumulate_us_per_pub", "us", "lower"),
    ("core.streams.curiosity_query_calls_per_pub", "count", "lower"),
    ("core.streams.curiosity_query_us_per_pub", "us", "lower"),
    ("core.streams.curiosity_update_us_per_pub", "us", "lower"),
    ("core.streams.runs_max", "count", "lower"),
    ("core.streams.payloads_max", "count", "lower"),
    ("broker.engine.self_us_per_pub", "us", "lower"),
    ("broker.engine.timer_us_per_pub", "us", "lower"),
    ("broker.engine.on_message_calls_per_pub", "count", "lower"),
    ("broker.engine.knowledge_sent_per_pub", "count", "lower"),
    ("broker.engine.acks_sent_per_pub", "count", "lower"),
    ("broker.engine.nacks_sent_per_pub", "count", "lower"),
    ("broker.engine.retransmissions_per_pub", "count", "lower"),
    ("broker.engine.consolidate_ack_us_per_pub", "us", "lower"),
    ("core.subend.self_us_per_pub", "us", "lower"),
    ("core.subend.deliveries_per_pub", "count", "higher"),
    ("core.subend.nacks_sent_per_pub", "count", "lower"),
    ("core.subend.periodic_us_per_s", "us/s", "lower"),
    ("matching.match_calls_per_pub", "count", "lower"),
    ("matching.match_us_per_call", "us", "lower"),
    ("matching.matches_per_call", "count", "higher"),
    ("matching.add_remove_us_per_op", "us", "lower"),
    ("matching.filter_us_per_pub", "us", "lower"),
    ("aio.wire.encodes_per_pub", "count", "lower"),
    ("aio.wire.encode_us_per_pub", "us", "lower"),
    ("aio.wire.decode_us_per_pub", "us", "lower"),
    ("aio.wire.frame_us_per_pub", "us", "lower"),
    ("aio.wire.cache_hit_ratio", "ratio", "higher"),
    ("aio.transport.send_self_us_per_pub", "us", "lower"),
    ("aio.transport.wire_msgs_per_pub", "count", "lower"),
    ("aio.transport.frames_per_pub", "count", "lower"),
    ("aio.transport.msgs_per_frame", "count", "higher"),
    ("aio.transport.bytes_per_pub", "B", "lower"),
    ("aio.transport.dropped_per_pub", "count", "lower"),
    ("aio.runtime.inbox_wait_us_p50", "us", "lower"),
    ("aio.runtime.inbox_wait_us_p99", "us", "lower"),
    ("aio.runtime.inbox_depth_max", "count", "lower"),
    ("aio.runtime.loop_lag_ms_p99", "ms", "lower"),
    ("aio.runtime.shed_count", "count", "lower"),
    ("client.deliver_us_per_delivery", "us", "lower"),
    ("sim.scheduler.events_per_pub", "count", "lower"),
    ("sim.scheduler.events_per_s", "1/s", "higher"),
    ("sim.network.msgs_per_pub", "count", "lower"),
    ("obs.export_ms", "ms", "lower"),
    ("obs.series_count", "count", "lower"),
    ("gen.lag_ms_p99", "ms", "lower"),
    ("gen.lag_ms_max", "ms", "lower"),
    ("gen.publish_call_us_p50", "us", "lower"),
    ("loop.other_us_per_pub", "us", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def contract() -> Dict[str, object]:
    """What ``/BENCHMARK.json`` holds; regenerate it with
    ``python3 benchmarks/load/run.py --contract > BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/load/run.py"],
        "paths": ["benchmarks/load"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


def listing() -> str:
    """Every workload and metric name with its unit, one per line."""
    lines = ["workloads:"]
    lines += [f"  {name}  -- {why}" for name, why in WORKLOADS.items()]
    lines.append("end-to-end (every workload, untraced pass; bound = allowed worsening):")
    lines += [
        f"  {name} [{unit}] {better} is better, bound {bound:.0%}"
        for name, unit, better, bound in END_TO_END
    ]
    lines.append("end-to-end, one workload only (untraced pass, not gated):")
    lines += [
        f"  {name} [{unit}] {better} is better, on {workload}"
        for name, unit, better, workload in WORKLOAD_ONLY
    ]
    lines.append("per-layer (traced pass):")
    lines += [f"  {name} [{unit}]" for name, unit, __ in PER_LAYER]
    return "\n".join(lines)
