"""The per-layer ledger: which callables of the program are wrapped, and
how their spans and the program's own counters become the metrics in
``spec.PER_LAYER``.

Layers are this repository's modules.  Span names are
``layer:callable``; every ``*_us_*`` metric is **self time** (the span
minus the wrapped calls nested inside it), so a layer is never charged
for the layers it calls and the column sums to the traced total.
``*_per_pub`` divides by publications attempted in the window, never by
wire messages.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.aio import runtime as aio_runtime
from repro.aio import transport as aio_transport
from repro.aio import wire as aio_wire
from repro.broker import simbroker
from repro.broker.engine import GDBrokerEngine
from repro.client import SubscriberClient
from repro.core import intervals
from repro.core.edges import FilterEdge
from repro.core.pubend import Pubend
from repro.core.streams import CuriosityStream, KnowledgeStream
from repro.core.subend import SubendManager
from repro.matching.tree import MatchingTree
from repro.obs.exporters import prometheus_text
from repro.storage.log import FileLog, MemoryLog

from .harness import percentile
from .trace import Recorder, Snapshot

#: How often the sampler reads ``engine.stats()`` and the loop-lag sleeper
#: wakes, seconds.
STATS_INTERVAL_S = 0.1
LAG_INTERVAL_S = 0.01


class Probe:
    """Run-time state the wrappers feed besides spans: inbox stamps for
    queue wait, sampled stream sizes, loop lag."""

    def __init__(self) -> None:
        #: broker id -> enqueue stamps (ns) of messages still in its inbox.
        self.inbox: Dict[str, Deque[int]] = {}
        self.inbox_wait_ns: List[int] = []
        self.inbox_depth_max = 0
        self.loop_lag_ms: List[float] = []
        self.runs_max = 0
        self.payloads_max = 0
        self._tasks: List[asyncio.Task] = []

    # -- inbox pairing -----------------------------------------------------

    def enqueued(self, broker: Any) -> None:
        if not broker.alive:
            return
        stamps = self.inbox.setdefault(broker.broker_id, deque())
        stamps.append(time.perf_counter_ns())
        if len(stamps) > self.inbox_depth_max:
            self.inbox_depth_max = len(stamps)

    def dequeued(self, args: tuple) -> None:
        """Runs ahead of ``engine.on_message``: the oldest stamp of that
        broker is the message being handed over (the inbox is FIFO)."""
        stamps = self.inbox.get(args[0].topo.broker_id)
        if stamps:
            self.inbox_wait_ns.append(time.perf_counter_ns() - stamps.popleft())

    # -- samplers (aio) ----------------------------------------------------

    def sample_streams(self, system: Any) -> None:
        for broker in system.brokers.values():
            engine = getattr(broker, "engine", None)
            if engine is None:
                continue
            for entry in engine.stats()["streams"].values():
                runs = [entry["istream_runs"], entry["curiosity_runs"]]
                runs += [o["runs"] for o in entry["ostreams"].values()]
                self.runs_max = max(self.runs_max, *runs)
                self.payloads_max = max(self.payloads_max, entry["istream_payloads"])

    def start_samplers(self, system: Any) -> None:
        loop = asyncio.get_running_loop()

        async def stats() -> None:
            while True:
                self.sample_streams(system)
                await asyncio.sleep(STATS_INTERVAL_S)

        async def lag() -> None:
            while True:
                due = loop.time() + LAG_INTERVAL_S
                await asyncio.sleep(LAG_INTERVAL_S)
                self.loop_lag_ms.append((loop.time() - due) * 1000.0)

        self._tasks = [loop.create_task(stats()), loop.create_task(lag())]

    async def stop_samplers(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []


def install(rec: Recorder, probe: Probe) -> None:
    """Wrap each layer's entry points.  Call before the system is built:
    transports capture ``broker.on_receive`` as a bound method at start."""
    for log_class in (FileLog, MemoryLog):
        # FileLog blocks in fsync, so its spans also record CPU time.
        blocking = log_class is FileLog
        rec.wrap(log_class, "append", "storage.log:append", cpu=blocking)
        rec.wrap(log_class, "truncate", "storage.log:truncate", cpu=blocking)

    for method in ("publish", "record_ack", "retransmission", "maybe_silence"):
        rec.wrap(Pubend, method, f"core.pubend:{method}")

    for method in ("ranges_with", "first_with"):
        rec.wrap(intervals.IntervalMap, method, f"core.intervals:scan.{method}")
    for method in (
        "set_range", "set_value", "clear_range", "combine_range", "transform_range"
    ):
        rec.wrap(intervals.IntervalMap, method, f"core.intervals:update.{method}")
    rec.wrap_generator(intervals.IntervalMap, "iter_runs", "core.intervals:iter_runs")

    for method in ("accumulate_data", "accumulate_final", "accumulate_silence"):
        rec.wrap(KnowledgeStream, method, f"core.streams:accumulate.{method}")
    for method in ("curious_ranges", "unacked_ranges", "acked_ranges"):
        rec.wrap(CuriosityStream, method, f"core.streams:query.{method}")
    for method in ("set_curious", "set_ack", "clear_curious"):
        rec.wrap(CuriosityStream, method, f"core.streams:update.{method}")

    rec.wrap(
        GDBrokerEngine,
        "publish",
        "broker.engine:publish",
        tag_of=lambda args, tick: (args[1], tick) if tick is not None else None,
    )
    rec.wrap(
        GDBrokerEngine,
        "on_message",
        "broker.engine:on_message",
        before=probe.dequeued,
        tag_of=_message_tag,
    )
    for method in ("flush_dirty_ostreams", "consolidate_ack", "local_nack"):
        rec.wrap(GDBrokerEngine, method, f"broker.engine:{method}")
    # Protocol timers (silence, flush, nack repetition, sweeps) enter the
    # engine through the host's schedule(); time each firing as a span so
    # their work is charged to the engine, not to "other".
    for services in (aio_runtime._AioServices, simbroker._SimServices):
        rec.replace(
            services,
            "schedule",
            lambda original: lambda self, delay, fn: original(
                self, delay, rec.timed_callback("broker.engine:timer", fn)
            ),
        )

    for method in ("on_knowledge", "on_ack_expected", "on_periodic"):
        rec.wrap(SubendManager, method, f"core.subend:{method}")

    rec.wrap(
        MatchingTree,
        "match",
        "matching:match",
        tag_of=lambda args, matched: rec.count("matching:matches", len(matched or ())),
    )
    rec.wrap(MatchingTree, "add", "matching:add")
    rec.wrap(MatchingTree, "remove", "matching:remove")
    rec.wrap(FilterEdge, "matches", "matching:filter")

    # Module functions are bound twice: where defined and where imported
    # by name.
    codec_modules = (aio_wire, aio_transport)
    rec.wrap_module_function(codec_modules, "encode_wire_message", "aio.wire:encode")
    rec.wrap_module_function(codec_modules, "decode_wire_message", "aio.wire:decode")
    rec.wrap_module_function(
        codec_modules, "encode_batch_frame", "aio.wire:frame.encode_batch_frame"
    )
    rec.wrap_module_function(
        codec_modules, "decode_batch_body", "aio.wire:frame.decode_batch_body"
    )
    rec.wrap(aio_wire.FrameDecoder, "feed", "aio.wire:frame.feed")
    rec.wrap_generator(
        aio_wire.FrameDecoder, "frames", "aio.wire:frame.frames", timed=True
    )
    rec.wrap(aio_wire.SerializeCache, "encode", "aio.wire:cache.encode")

    rec.wrap(aio_transport.LocalTransport, "send", "aio.transport:send")
    rec.wrap(aio_transport.TcpTransport, "send", "aio.transport:send")

    def stamping(original: Any) -> Any:
        def on_receive(self: Any, src: str, message: Any) -> Any:
            probe.enqueued(self)
            return original(self, src, message)

        return on_receive

    rec.replace(aio_runtime.AioBroker, "on_receive", stamping)

    def stamping_async(original: Any) -> Any:
        def on_receive_async(self: Any, src: str, message: Any) -> Any:
            # "shed" mode forwards to on_receive, which stamps.
            if self.slow_consumer != "shed":
                probe.enqueued(self)
            return original(self, src, message)

        return on_receive_async

    rec.replace(aio_runtime.AioBroker, "on_receive_async", stamping_async)
    rec.wrap(
        aio_runtime.AioBroker,
        "deliver",
        "aio.runtime:deliver",
        tag_of=lambda args, __: (args[2], args[3]),
    )

    rec.wrap(SubscriberClient, "on_delivery", "client:on_delivery")


def _message_tag(args: tuple, __: Any) -> Any:
    """``(pubend, first data tick)`` of a knowledge envelope, else None."""
    payload = getattr(args[2], "payload", None)
    data = getattr(payload, "data", None)
    if data:
        return (payload.pubend, data[0].tick)
    return None


# ---------------------------------------------------------------------------
# Counters the program already exposes
# ---------------------------------------------------------------------------


def read_counters(system: Any, data_dir: Optional[str] = None) -> Dict[str, float]:
    """One reading of every program-side counter the ledger uses; the
    ledger subtracts the reading at window start from the one at its end.
    Works on both backends: what a backend lacks reads 0."""
    out: Dict[str, float] = {}
    engine_counts: Dict[str, int] = {}
    nacks = deliveries = shed = 0
    for broker in system.brokers.values():
        shed += getattr(broker, "shed_count", 0)
        engine = getattr(broker, "engine", None)
        if engine is None:
            continue
        for key, value in engine.counters.items():
            engine_counts[key] = engine_counts.get(key, 0) + value
        if engine.subend is not None:
            nacks += engine.subend.total_nacks_sent()
            deliveries += engine.subend.delivered_count
    for key in ("knowledge_sent", "acks_sent", "nacks_sent", "retransmissions_sent"):
        out[f"engine.{key}"] = engine_counts.get(key, 0)
    out["subend.nacks_sent"] = nacks
    out["subend.deliveries"] = deliveries
    out["runtime.shed"] = shed
    out["intervals.updates"] = intervals.STATS.updates
    out["intervals.splices"] = intervals.STATS.splices
    transport = getattr(system, "transport", None)
    for key in (
        "sent", "dropped", "frames_sent", "msgs_sent", "bytes_sent",
        "serialize_cache_hits",
    ):
        out[f"transport.{key}"] = getattr(transport, key, 0)
    scheduler = getattr(system, "scheduler", None)
    out["sim.events_run"] = getattr(scheduler, "events_run", 0)
    network = getattr(system, "network", None)
    out["sim.network_sent"] = (
        sum(link.stats.sent for link in network._links.values()) if network else 0
    )
    out["log.bytes"] = (
        sum(
            os.path.getsize(os.path.join(data_dir, name))
            for name in os.listdir(data_dir)
            if name.endswith(".log")
        )
        if data_dir
        else 0
    )
    return out


def time_export(system: Any) -> Dict[str, float]:
    """``obs.exporters.prometheus_text`` once, after the window."""
    started = time.perf_counter()
    text = prometheus_text(system.obs.instruments)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    series = sum(1 for line in text.splitlines() if line and not line.startswith("#"))
    return {"obs.export_ms": elapsed_ms, "obs.series_count": float(series)}


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------


def per_layer(
    spans: Snapshot,
    counters: Dict[str, float],
    probe: Probe,
    pubs: int,
    window_s: float,
    cpu_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one window.  ``spans`` and ``counters`` are
    end-minus-start differences; ``cpu_s`` is process CPU in the window."""
    out: Dict[str, float] = {}

    def per_pub(value: float) -> float:
        return value / pubs

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out["storage.log.append_calls_per_pub"] = per_pub(spans.calls("storage.log:append"))
    out["storage.log.append_us_per_pub"] = per_pub(spans.self_us("storage.log:append"))
    out["storage.log.append_cpu_us_per_pub"] = per_pub(spans.cpu_us("storage.log:append"))
    out["storage.log.truncate_us_per_pub"] = per_pub(spans.self_us("storage.log:truncate"))
    out["storage.log.bytes_per_pub"] = per_pub(counters["log.bytes"])

    out["core.pubend.publish_self_us_per_pub"] = per_pub(spans.self_us("core.pubend:publish"))
    out["core.pubend.retransmission_calls_per_pub"] = per_pub(
        spans.calls("core.pubend:retransmission")
    )
    out["core.pubend.silence_calls_per_s"] = spans.calls("core.pubend:maybe_silence") / window_s

    out["core.intervals.scan_calls_per_pub"] = per_pub(spans.calls("core.intervals:scan."))
    out["core.intervals.scan_us_per_pub"] = per_pub(spans.self_us("core.intervals:scan."))
    out["core.intervals.runs_scanned_per_pub"] = per_pub(
        spans.count("core.intervals:iter_runs.yields")
    )
    out["core.intervals.updates_per_pub"] = per_pub(counters["intervals.updates"])
    out["core.intervals.splices_per_pub"] = per_pub(counters["intervals.splices"])

    out["core.streams.accumulate_us_per_pub"] = per_pub(spans.self_us("core.streams:accumulate."))
    out["core.streams.curiosity_query_calls_per_pub"] = per_pub(
        spans.calls("core.streams:query.")
    )
    out["core.streams.curiosity_query_us_per_pub"] = per_pub(spans.self_us("core.streams:query."))
    out["core.streams.curiosity_update_us_per_pub"] = per_pub(
        spans.self_us("core.streams:update.")
    )
    out["core.streams.runs_max"] = float(probe.runs_max)
    out["core.streams.payloads_max"] = float(probe.payloads_max)

    out["broker.engine.self_us_per_pub"] = per_pub(spans.self_us("broker.engine:"))
    out["broker.engine.timer_us_per_pub"] = per_pub(spans.self_us("broker.engine:timer"))
    out["broker.engine.on_message_calls_per_pub"] = per_pub(
        spans.calls("broker.engine:on_message")
    )
    out["broker.engine.knowledge_sent_per_pub"] = per_pub(counters["engine.knowledge_sent"])
    out["broker.engine.acks_sent_per_pub"] = per_pub(counters["engine.acks_sent"])
    out["broker.engine.nacks_sent_per_pub"] = per_pub(counters["engine.nacks_sent"])
    out["broker.engine.retransmissions_per_pub"] = per_pub(
        counters["engine.retransmissions_sent"]
    )
    out["broker.engine.consolidate_ack_us_per_pub"] = per_pub(
        spans.self_us("broker.engine:consolidate_ack")
    )

    out["core.subend.self_us_per_pub"] = per_pub(spans.self_us("core.subend:"))
    out["core.subend.deliveries_per_pub"] = per_pub(counters["subend.deliveries"])
    out["core.subend.nacks_sent_per_pub"] = per_pub(counters["subend.nacks_sent"])
    out["core.subend.periodic_us_per_s"] = spans.self_us("core.subend:on_periodic") / window_s

    match_calls = spans.calls("matching:match")
    out["matching.match_calls_per_pub"] = per_pub(match_calls)
    out["matching.match_us_per_call"] = ratio(spans.self_us("matching:match"), match_calls)
    out["matching.matches_per_call"] = ratio(spans.count("matching:matches"), match_calls)
    out["matching.add_remove_us_per_op"] = ratio(
        spans.self_us("matching:add") + spans.self_us("matching:remove"),
        spans.calls("matching:add") + spans.calls("matching:remove"),
    )
    out["matching.filter_us_per_pub"] = per_pub(spans.self_us("matching:filter"))

    out["aio.wire.encodes_per_pub"] = per_pub(spans.calls("aio.wire:encode"))
    out["aio.wire.encode_us_per_pub"] = per_pub(
        spans.self_us("aio.wire:encode") + spans.self_us("aio.wire:cache.")
    )
    out["aio.wire.decode_us_per_pub"] = per_pub(spans.self_us("aio.wire:decode"))
    out["aio.wire.frame_us_per_pub"] = per_pub(spans.self_us("aio.wire:frame."))
    out["aio.wire.cache_hit_ratio"] = ratio(
        counters["transport.serialize_cache_hits"], spans.calls("aio.wire:cache.encode")
    )

    out["aio.transport.send_self_us_per_pub"] = per_pub(spans.self_us("aio.transport:send"))
    out["aio.transport.wire_msgs_per_pub"] = per_pub(counters["transport.sent"])
    out["aio.transport.frames_per_pub"] = per_pub(counters["transport.frames_sent"])
    out["aio.transport.msgs_per_frame"] = ratio(
        counters["transport.msgs_sent"], counters["transport.frames_sent"]
    )
    out["aio.transport.bytes_per_pub"] = per_pub(counters["transport.bytes_sent"])
    out["aio.transport.dropped_per_pub"] = per_pub(counters["transport.dropped"])

    waits_us = sorted(ns / 1000.0 for ns in probe.inbox_wait_ns)
    out["aio.runtime.inbox_wait_us_p50"] = percentile(waits_us, 0.50) if waits_us else 0.0
    out["aio.runtime.inbox_wait_us_p99"] = percentile(waits_us, 0.99) if waits_us else 0.0
    out["aio.runtime.inbox_depth_max"] = float(probe.inbox_depth_max)
    lag_ms = sorted(probe.loop_lag_ms)
    out["aio.runtime.loop_lag_ms_p99"] = percentile(lag_ms, 0.99) if lag_ms else 0.0
    out["aio.runtime.shed_count"] = counters["runtime.shed"]

    out["client.deliver_us_per_delivery"] = ratio(
        spans.self_us("client:on_delivery"), spans.calls("client:on_delivery")
    )

    out["sim.scheduler.events_per_pub"] = per_pub(counters["sim.events_run"])
    out["sim.scheduler.events_per_s"] = counters["sim.events_run"] / window_s
    out["sim.network.msgs_per_pub"] = per_pub(counters["sim.network_sent"])

    # Whatever CPU the window used outside every layer's spans: the event
    # loop, inbox tasks, the generator, and the recorder itself.  Spans
    # are wall time; the part of them spent blocked (fsync) used no CPU.
    layer_cpu_us = spans.self_us() - spans.blocked_us()
    out["loop.other_us_per_pub"] = per_pub(cpu_s * 1e6 - layer_cpu_us)
    out["trace.spans"] = float(spans.spans)
    return out
