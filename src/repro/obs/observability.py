"""The unified observation plane of one running system.

One :class:`Observability` object per system (built by
:meth:`repro.topology.Topology.build` or
:class:`~repro.aio.runtime.AioSystem`, exposed as ``system.obs``) owns
every measurement channel the evaluation uses:

* **instruments** — the counter/gauge/histogram registry threaded
  through the broker engine, pubends, subends, and simulated links;
* **lifecycle** — the :class:`~repro.obs.lifecycle.LifecycleHub`, the
  one event stream every protocol moment is reported to;
* **hub** — the :class:`~repro.obs.hub.MetricsHub` series recorders
  (latency and nack time series, the figures' raw data), attached to
  ``lifecycle`` from construction;
* **fault_events** and ``repro_faults_injected_total`` — filled by this
  object's own ``fault`` hook, so a fault applied by any verb on either
  backend lands here once, under one kind vocabulary;
* **accountants** — every broker's :class:`~repro.metrics.cpu.CpuAccountant`,
  registered at construction, so CPU busy time appears in snapshots next
  to the protocol counters and Figure-4 numbers agree with the exporter;
* **tracers** / **causal** — the :class:`~repro.obs.trace.Tracer` and
  :class:`~repro.obs.causal.CausalTracer` attached to the system, read at
  export time for their volume gauges.

Exporters (:func:`prometheus` / :func:`json_lines`) synchronize the
derived gauges and render the whole registry; nothing else in the system
needs to know how many channels exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.ticks import tick_of_time
from . import exporters
from .hub import MetricsHub
from .lifecycle import LifecycleHub, LifecycleListener
from .instruments import Counter, Gauge, Instruments

__all__ = ["FaultEvent", "Observability"]


@dataclass(frozen=True)
class FaultEvent:
    """One applied fault, stamped at the instant it took effect.

    ``time`` is the emitting backend's clock in seconds; ``tick`` is the
    same instant on the protocol's tick axis (1 tick = 1 ms), so fault
    events line up directly with stream horizons and knowledge ranges.
    """

    time: float
    tick: int
    kind: str
    target: str

    def __str__(self) -> str:
        return f"t={self.time:.3f} (tick {self.tick}) {self.kind} {self.target}"


class Observability(LifecycleListener):
    """Registry-of-registries: one object owning a system's telemetry."""

    def __init__(self) -> None:
        self.instruments = Instruments()
        self.hub = MetricsHub()
        self.accountants: Dict[str, Any] = {}
        self.tracers: List[Any] = []
        #: Structured :class:`FaultEvent` records, in application order.
        self.fault_events: List[FaultEvent] = []
        #: The system's one event stream.  Brokers, subends and the fault
        #: verbs report semantic protocol moments here; every observer is
        #: a listener on it.  The nack series and the fault log below are
        #: attached from the start.
        self.lifecycle = LifecycleHub()
        self.lifecycle.attach(self.hub)
        self.lifecycle.attach(self)
        #: The system's :class:`~repro.obs.causal.CausalTracer`, when one
        #: is installed (set by the tracer itself).
        self.causal: Optional[Any] = None
        #: Structured anomaly findings pushed by
        #: :class:`~repro.obs.detectors.DetectorSet` (detection order).
        self.findings: List[Any] = []

    # -- facade over the instrument registry ----------------------------

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self.instruments.counter(name, help, **labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self.instruments.gauge(name, help, **labels)

    # -- peer registration ----------------------------------------------

    def register_accountant(self, node_id: str, accountant: Any) -> None:
        """Adopt a broker's CPU accountant (idempotent per node)."""
        self.accountants[node_id] = accountant

    def attach_tracer(self, tracer: Any) -> None:
        if tracer not in self.tracers:
            self.tracers.append(tracer)

    def report_fault(self, t: float, kind: str, target: str) -> None:
        """The one emission site of the ``System`` / ``AioSystem`` fault
        verbs."""
        hub = self.lifecycle
        if hub.listeners:
            hub.fault(t, kind, target)

    def fault(self, t: float, kind: str, target: str) -> None:
        """Lifecycle hook: keep the structured record in
        :attr:`fault_events` and count into
        ``repro_faults_injected_total`` labelled by kind, so fault
        activity exports next to the protocol counters it perturbs."""
        self.fault_events.append(FaultEvent(t, tick_of_time(t), kind, target))
        self.counter(
            "repro_faults_injected_total",
            "Faults applied to this system, by kind.",
            kind=kind,
        ).inc()

    def record_finding(self, finding: Any) -> None:
        """Adopt one structured anomaly finding (see
        :class:`~repro.obs.detectors.Finding`).

        Counts into ``repro_detector_findings_total`` labelled by
        detector, and keeps the structured record in :attr:`findings`
        so scripted analysis (and the fuzzer's failure dumps) can read
        what the online detectors saw.
        """
        self.findings.append(finding)
        self.counter(
            "repro_detector_findings_total",
            "Anomaly findings raised by online detectors, by detector.",
            detector=getattr(finding, "detector", "unknown"),
        ).inc()

    # -- derived metrics -------------------------------------------------

    def _sync_derived(self) -> None:
        """Refresh gauges computed from registered peers at export time."""
        for node_id, accountant in sorted(self.accountants.items()):
            self.gauge(
                "repro_broker_cpu_busy_seconds",
                "Modelled CPU busy time accumulated by the broker's cost accountant",
                broker=node_id,
            ).set(accountant.busy_time)
            self.gauge(
                "repro_broker_cpu_queue_delay_seconds",
                "Current backlog of the broker's single-server CPU work queue",
                broker=node_id,
            ).set(accountant.queue_delay())
        if self.tracers:
            self.gauge(
                "repro_trace_events",
                "Events recorded by tracers attached to this system",
            ).set(float(sum(len(t) for t in self.tracers)))
        if self.causal is not None:
            self.gauge(
                "repro_causal_spans",
                "Lifecycle spans recorded by the causal tracer",
            ).set(float(len(self.causal.spans)))
            self.gauge(
                "repro_causal_open_spans",
                "Causal spans still open (in-flight protocol work)",
            ).set(float(self.causal.open_span_count()))
        hub = self.hub
        self.gauge(
            "repro_client_deliveries",
            "Deliveries recorded by subscriber clients (MetricsHub peer)",
        ).set(float(hub.latency.delivered))

    # -- export ----------------------------------------------------------

    def prometheus(self) -> str:
        """The full snapshot in Prometheus text exposition format."""
        self._sync_derived()
        return exporters.prometheus_text(self.instruments)

    def json_lines(self, out: Any = None) -> str:
        """The full snapshot as JSON lines (one instrument per line);
        also written to ``out`` when given."""
        self._sync_derived()
        return exporters.json_lines(self.instruments, out)

    def snapshot(self) -> List[Dict[str, Any]]:
        """The full snapshot as plain dicts."""
        self._sync_derived()
        return exporters.snapshot(self.instruments)
