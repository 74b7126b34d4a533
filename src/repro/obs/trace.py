"""Structured event tracing of a running system.

Debugging a distributed protocol means asking "what exactly happened, in
order?"  A :class:`Tracer` listens on a built system's lifecycle hub
(``system.obs.lifecycle``) and records a timestamped, structured event
stream: every broker-to-broker send, every client delivery, every
publish, and every fault — pure observation, on either backend.

Traces support filtering, textual rendering, and JSON-lines export, and
are deterministic for a deterministic run, so two traces of the same seed
can be diffed to localize a regression.

A tracer registers itself with ``system.obs``, so snapshots report
trace volume alongside the instruments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, TextIO

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


class Tracer(LifecycleListener):
    """Records a structured event stream from a running system.

    A listener on ``system.obs.lifecycle``: timestamps come from the
    hooks, so it traces the simulator and the asyncio runtime alike.
    ``send`` rows are link sends (``message_sent``), ``publish`` rows are
    accepted publications, ``deliver`` rows are stamped when the
    subscriber client observes the message, ``knowledge_flush`` /
    ``flush_timer_cancelled`` are the batching machinery's flush
    decisions, and ``fault`` rows are whatever the fault verbs report.
    (The baseline brokers report nothing to the hub and are not traced.)
    """

    def __init__(self, system, capture_link_status: bool = False):
        self.system = system
        self.capture_link_status = capture_link_status
        self.events: List[TraceEvent] = []
        self._seq = 0
        system.obs.attach_tracer(self)

    def install(self) -> "Tracer":
        """Start recording (idempotent)."""
        self.system.obs.lifecycle.attach(self)
        return self

    # -- hub hooks ----------------------------------------------------------

    def message_sent(self, t, node, dst, message):
        described = _describe_message(message)
        if described["msg"] != "link_status" or self.capture_link_status:
            described["to"] = dst
            self._record(t, "send", node, described)

    def published(self, t, node, pubend, tick):
        self._record(t, "publish", node, {"pubend": pubend, "tick": tick, "ok": True})

    def delivered(self, t, node, subscriber, pubend, tick):
        self._record(
            t, "deliver", node, {"subscriber": subscriber, "pubend": pubend, "tick": tick}
        )

    def knowledge_flushed(self, t, node, pubend, cell, ticks, sent):
        kind = "knowledge_flush" if sent else "flush_timer_cancelled"
        self._record(t, kind, node, {"pubend": pubend, "cell": cell, "ticks": len(ticks)})

    def fault(self, t, kind, target):
        self._record(t, "fault", "-", {"what": f"{kind} {target}"})

    def _record(self, t: float, kind: str, node: str, detail: Dict[str, Any]) -> None:
        self.events.append(TraceEvent(t, kind, node, detail, self._seq))
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
