"""Structured event tracing for simulated runs.

Debugging a distributed protocol means asking "what exactly happened, in
order?"  A :class:`Tracer` hooks a built
:class:`~repro.topology.System` and records a timestamped, structured
event stream: every broker-to-broker send, every client delivery, every
publish, and every fault — without changing the run's behaviour (hooks
wrap, then delegate).

Traces support filtering, textual rendering, and JSON-lines export, and
are deterministic for a deterministic run, so two traces of the same seed
can be diffed to localize a regression.

A tracer built against a system that carries an
:class:`~repro.obs.observability.Observability` registers itself as a
peer of that object, so ``system.obs`` snapshots report trace volume
alongside the instruments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO

from ..broker.state import Envelope, LinkStatusMessage
from ..core.messages import (
    AckExpectedMessage,
    AckMessage,
    KnowledgeMessage,
    NackMessage,
)
from .lifecycle import LifecycleListener

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event.

    ``seq`` is a per-tracer monotonic sequence number: events recorded at
    the same simulated instant sort (and render) in recording order, so
    same-seed trace diffs are byte-stable even where timestamps tie.
    """

    t: float
    kind: str
    node: str
    detail: Dict[str, Any] = field(default_factory=dict)
    seq: int = 0

    @property
    def sort_key(self) -> tuple:
        return (self.t, self.seq)

    def render(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"{self.t:10.4f} #{self.seq:<6d} {self.kind:<12} {self.node:<6} {parts}"

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "seq": self.seq,
                "kind": self.kind,
                "node": self.node,
                **self.detail,
            }
        )


def _describe_message(message: Any) -> Dict[str, Any]:
    if isinstance(message, Envelope):
        inner = _describe_message(message.payload)
        if message.sideways:
            inner["sideways"] = True
        if message.target_cell:
            inner["target_cell"] = message.target_cell
        return inner
    if isinstance(message, KnowledgeMessage):
        return {
            "msg": "retransmit" if message.retransmit else "knowledge",
            "pubend": message.pubend,
            "d": len(message.data),
            "fin": message.fin_prefix,
            "f_runs": len(message.f_ranges),
        }
    if isinstance(message, AckMessage):
        return {"msg": "ack", "pubend": message.pubend, "up_to": message.up_to}
    if isinstance(message, NackMessage):
        return {
            "msg": "nack",
            "pubend": message.pubend,
            "ticks": message.tick_count(),
        }
    if isinstance(message, AckExpectedMessage):
        return {"msg": "ack_expected", "pubend": message.pubend, "up_to": message.up_to}
    if isinstance(message, LinkStatusMessage):
        return {"msg": "link_status", "cells": len(message.reachable_cells)}
    return {"msg": type(message).__name__}


class _FlushListener(LifecycleListener):
    """Surfaces the batching machinery's flush decisions as flat trace
    events — ``knowledge_flush`` when a timer's coalesced message went
    out, ``flush_timer_cancelled`` when it fired with nothing to send."""

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def knowledge_flushed(self, t, node, pubend, cell, ticks, sent):
        kind = "knowledge_flush" if sent else "flush_timer_cancelled"
        self.tracer._record(
            kind, node, {"pubend": pubend, "cell": cell, "ticks": len(ticks)}
        )


class Tracer:
    """Records a structured event stream from a simulated system."""

    def __init__(self, system, capture_link_status: bool = False, obs=None):
        self.system = system
        self.capture_link_status = capture_link_status
        self.events: List[TraceEvent] = []
        self._installed = False
        self._seq = 0
        self._original_sends: Dict[str, Callable] = {}
        self._obs = obs if obs is not None else getattr(system, "obs", None)
        if self._obs is not None:
            self._obs.attach_tracer(self)

    # -- hook installation ------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every broker's send and delivery paths (idempotent)."""
        if self._installed:
            return self
        self._installed = True
        for broker_id, broker in self.system.brokers.items():
            self._wrap_broker(broker)
        if self._obs is not None:
            self._obs.lifecycle.attach(_FlushListener(self))
        return self

    def _wrap_broker(self, broker) -> None:
        original_send = broker.send
        tracer = self

        def traced_send(dst: str, message: Any, size_bytes: int = 100):
            described = _describe_message(message)
            if described.get("msg") != "link_status" or tracer.capture_link_status:
                tracer._record(
                    "send", broker.node_id, dict(described, to=dst)
                )
            return original_send(dst, message, size_bytes)

        broker.send = traced_send
        self._original_sends[broker.node_id] = original_send

        if hasattr(broker, "deliver_to_client"):
            original_deliver = broker.deliver_to_client

            def traced_deliver(subscriber, pubend, tick, payload):
                tracer._record(
                    "deliver",
                    broker.node_id,
                    {"subscriber": subscriber, "pubend": pubend, "tick": tick},
                )
                return original_deliver(subscriber, pubend, tick, payload)

            broker.deliver_to_client = traced_deliver

        if hasattr(broker, "publish"):
            original_publish = broker.publish

            def traced_publish(pubend_id, payload):
                tick = original_publish(pubend_id, payload)
                tracer._record(
                    "publish",
                    broker.node_id,
                    {"pubend": pubend_id, "tick": tick, "ok": tick is not None},
                )
                return tick

            broker.publish = traced_publish

    def record_fault(self, description: str) -> None:
        """Faults are recorded by the caller (the injector acts on links
        and processes directly)."""
        self._record("fault", "-", {"what": description})

    def _record(self, kind: str, node: str, detail: Dict[str, Any]) -> None:
        self.events.append(
            TraceEvent(self.system.scheduler.now, kind, node, detail, self._seq)
        )
        self._seq += 1

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def filter(
        self,
        kind: Optional[str] = None,
        node: Optional[str] = None,
        msg: Optional[str] = None,
        t0: float = float("-inf"),
        t1: float = float("inf"),
    ) -> List[TraceEvent]:
        out = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if node is not None and event.node != node:
                continue
            if msg is not None and event.detail.get("msg") != msg:
                continue
            if not t0 <= event.t < t1:
                continue
            out.append(event)
        return out

    def events_sorted(self) -> List[TraceEvent]:
        """Events by ``(t, seq)`` — total order, byte-stable per seed."""
        return sorted(self.events, key=lambda e: e.sort_key)

    def render(self, events: Optional[Iterable[TraceEvent]] = None) -> str:
        chosen = list(events) if events is not None else self.events_sorted()
        return "\n".join(event.render() for event in chosen)

    def write_jsonl(self, out: TextIO) -> int:
        for event in self.events_sorted():
            out.write(event.to_json() + "\n")
        return len(self.events)

    def counts(self) -> Dict[str, int]:
        """Event counts by (kind, msg) — a run's traffic fingerprint."""
        out: Dict[str, int] = {}
        for event in self.events:
            key = event.kind
            msg = event.detail.get("msg")
            if msg:
                key = f"{key}:{msg}"
            out[key] = out.get(key, 0) + 1
        return out
