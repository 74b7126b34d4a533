"""Unified observability: instruments, exporters, series hub, tracing.

One coherent API over the three measurement channels the paper's
evaluation uses (latency series, nack counts, nack ranges) plus the
production-style instruments the reproduction grew on top of them:

* :class:`Instruments` — counters, gauges, fixed-bucket histograms with
  a no-op variant (:data:`NULL_INSTRUMENTS`) for un-observed hot paths;
* :class:`LifecycleHub` / :class:`LifecycleListener` — the one event
  stream every broker layer and fault verb reports into; everything
  below that observes a run is a listener on it;
* :class:`Observability` — the per-system owner (``system.obs``) of the
  instruments, the hub, the fault log, and the registered
  :class:`~repro.metrics.cpu.CpuAccountant` objects;
* :class:`MetricsHub` — the figures' latency and nack series
  (``system.metrics``);
* :func:`prometheus_text` / :func:`json_lines` / :func:`parse_prometheus`
  — snapshot exporters (also available via ``repro stats``);
* :class:`CausalTracer` / :class:`Span` — causal span trees per
  ``(pubend, tick)`` with Perfetto/Chrome export;
* :func:`build_report` / :class:`AttributionReport` — end-to-end latency
  decomposed into protocol components per delivery and route;
* :class:`DetectorSet` / :class:`Finding` — online anomaly detectors
  (horizon stall, retransmission storm, silence violation).

The causal, attribution and detector layers load on first use, so the
broker engine's import of this package does not pull them in.
"""

from .exporters import json_lines, parse_prometheus, prometheus_text, snapshot
from .hub import MetricsHub
from .lifecycle import LifecycleHub, LifecycleListener
from .instruments import (
    DEFAULT_BUCKETS,
    NULL_INSTRUMENTS,
    TICK_RANGE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Instruments,
    NullInstruments,
)
from .observability import Observability

__all__ = [
    "AttributionReport",
    "CausalTracer",
    "Counter",
    "DEFAULT_BUCKETS",
    "DetectorSet",
    "Finding",
    "Gauge",
    "Histogram",
    "Instruments",
    "LatencyBreakdown",
    "LifecycleHub",
    "LifecycleListener",
    "MetricsHub",
    "NULL_INSTRUMENTS",
    "NullInstruments",
    "Observability",
    "Span",
    "TICK_RANGE_BUCKETS",
    "build_report",
    "json_lines",
    "parse_prometheus",
    "prometheus_text",
    "snapshot",
]

_LAZY = {
    "CausalTracer": "causal",
    "Span": "causal",
    "AttributionReport": "attribution",
    "LatencyBreakdown": "attribution",
    "build_report": "attribution",
    "DetectorSet": "detectors",
    "Finding": "detectors",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is not None:
        import importlib

        return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
