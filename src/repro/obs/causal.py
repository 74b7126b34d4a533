"""Causal per-message lifecycle tracing.

A :class:`CausalTracer` subscribes to the system's
:class:`~repro.obs.lifecycle.LifecycleHub` and turns the flat stream of
protocol moments into a **span tree per publication identity**
``(pubend, tick)`` — the paper's ``(stream, seq)``.  Each span is an
interval on the hooks' clock (simulated or event-loop time) attributed
to one node, with a causal parent link:

* a ``transit`` span covers send → remote accumulate (wire, CPU queue,
  and istream processing in one hop record; a transit that never closes
  was lost in flight).  It is parented on the span that brought the data
  to the sending broker — or on the ``nack_handle`` span when the send
  is a retransmission (the nack *caused* it), or on the ``flush_timer``
  span when batched propagation held it back;
* an ``ingest`` span exists only for the local hop (commit → istream at
  the publisher-hosting broker), parented on the ``publish`` span;
* a ``deliver`` span (client write → client observation) is parented on
  the span that brought the tick's data to the delivering broker.

Alongside the spans the tracer keeps the flat per-tick records —
publish/commit times, first arrivals per node, send times, flush
windows, client writes — that :mod:`repro.obs.attribution` walks to
decompose end-to-end latency.

The tracer is **pure observation**: it never schedules events, touches
no protocol state, and therefore cannot change a run's behaviour or its
result digest.

Export: :meth:`CausalTracer.export_chrome` writes the span store in the
Chrome trace-event JSON format (one "process" per broker, one "thread"
lane per pubend, flow arrows for cross-node causal links), loadable in
Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .lifecycle import LifecycleListener

__all__ = ["Span", "CausalTracer"]

Key = Tuple[str, int]


@dataclass(slots=True)
class Span:
    """One attributed interval (or instant) of a message's life."""

    sid: int
    parent: Optional[int]
    name: str
    node: str
    pubend: str
    tick: Optional[int]
    t0: float
    t1: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.t1 is None

    def duration(self) -> Optional[float]:
        return None if self.t1 is None else self.t1 - self.t0


class _Arrival(NamedTuple):
    """First arrival of a tick's data at one node.

    A NamedTuple rather than a dataclass: arrival records are the
    highest-volume allocation of a traced run, and tuples of scalars are
    untracked by the cycle collector.
    """

    t_raw: float  # envelope reached the host (pre CPU queue)
    t_proc: float  # engine accumulated it into the istream
    src: str
    send_t: Optional[float]  # matched send at the upstream node
    send_node: Optional[str]
    send_cell: Optional[str]
    retransmit: bool
    span: Optional[int]  # hop span id (transit, or local ingest)


@dataclass(slots=True)
class _Pub:
    t_pub: float
    node: str
    t_commit: Optional[float] = None


class CausalTracer(LifecycleListener):
    """Span-tree recorder over the lifecycle hub (pure observation).

    Every time it keeps comes from a hook, so it records — and exports —
    the simulator and the asyncio runtime alike.
    """

    def __init__(self, system):
        self.obs = system.obs
        self.spans: List[Span] = []
        #: span ids per publication identity
        self._by_key: Dict[Key, List[int]] = {}
        #: spans that cover tick *ranges* (nacks); queried by containment
        self._range_spans: List[Tuple[int, str, Tuple[Tuple[int, int], ...]]] = []
        self._fault_spans: List[int] = []

        # -- flat records consumed by repro.obs.attribution --------------
        self.pubs: Dict[Key, _Pub] = {}
        self.arrivals: Dict[Tuple[str, str, int], _Arrival] = {}
        self.send_times: Dict[Tuple[str, str, int], List[Tuple[float, bool]]] = {}
        #: (node, pubend, cell, tick) -> [defer_t, flush_t or None]
        self.flush_windows: Dict[Tuple[str, str, str, int], List[Optional[float]]] = {}
        self.client_writes: Dict[Tuple[str, str, int], Tuple[float, str]] = {}
        #: (subscriber, pubend, tick, t_delivered, node)
        self.deliveries: List[Tuple[str, str, int, float, str]] = []
        self.horizon_log: List[Tuple[float, str, str, int, int]] = []

        # -- join state (message identity across hooks) ------------------
        self._open_pub: Dict[Key, int] = {}
        # id(KnowledgeMessage) -> (span_id, msg ref, send_info)
        self._pending_transit: Dict[int, Tuple[int, Any, Tuple]] = {}
        # id(KnowledgeMessage) -> (t_raw, span_id or None, send_info or None)
        self._arrived: Dict[int, Tuple[float, Optional[int], Optional[Tuple]]] = {}
        self._open_flush_timers: Dict[Tuple[str, str, str], int] = {}
        self._last_flush: Optional[Tuple[str, int]] = None
        self._last_ingest: Optional[Tuple[str, int]] = None
        self._last_subend_nack: Optional[Tuple[str, int]] = None
        self._nack_send_by_msg: Dict[int, Tuple[int, Any]] = {}
        self._nack_scope: Optional[int] = None
        self._open_deliver: Dict[Tuple[str, str, int], int] = {}
        self._open_count = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def install(self) -> "CausalTracer":
        self.obs.lifecycle.attach(self)
        self.obs.causal = self
        return self

    # ------------------------------------------------------------------
    # span store
    # ------------------------------------------------------------------

    def _span(
        self,
        name: str,
        node: str,
        pubend: str,
        tick: Optional[int],
        t0: float,
        parent: Optional[int] = None,
        t1: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        span = Span(len(self.spans), parent, name, node, pubend, tick, t0, t1, attrs)
        self.spans.append(span)
        if t1 is None:
            self._open_count += 1
        if tick is not None:
            key = (pubend, tick)
            sids = self._by_key.get(key)
            if sids is None:
                self._by_key[key] = [span.sid]
            else:
                sids.append(span.sid)
        return span

    def _close(self, span: Span, t: float) -> None:
        if span.t1 is None:
            span.t1 = t
            self._open_count -= 1

    def _register(self, span: Span, pubend: str, tick: int) -> None:
        key = (pubend, tick)
        sids = self._by_key.get(key)
        if sids is None:
            self._by_key[key] = [span.sid]
        elif span.sid not in sids:
            sids.append(span.sid)

    def open_span_count(self) -> int:
        return self._open_count

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # hub hooks
    # ------------------------------------------------------------------

    def published(self, t, node, pubend, tick):
        key = (pubend, tick)
        self.pubs[key] = _Pub(t, node)
        self._open_pub[key] = self._span("publish", node, pubend, tick, t).sid

    def committed(self, t, node, pubend, tick):
        key = (pubend, tick)
        pub = self.pubs.get(key)
        if pub is not None:
            pub.t_commit = t
        sid = self._open_pub.pop(key, None)
        if sid is not None:
            self._close(self.spans[sid], t)

    def message_arrived(self, t, node, src, message):
        payload = getattr(message, "payload", message)
        mid = id(payload)
        pending = self._pending_transit.pop(mid, None)
        if pending is not None:
            # The transit span stays open until the engine ingests the
            # message; its close (knowledge_ingested) covers wire + CPU
            # queue + istream accumulate as one hop record.
            self._arrived[mid] = (t, pending[0], pending[2])
        else:
            self._arrived[mid] = (t, None, None)

    def knowledge_ingested(self, t, node, src, message, relay=False):
        info = self._arrived.pop(id(message), None)
        t_raw, transit_sid, send_info = info if info is not None else (t, None, None)
        pubend = message.pubend
        data_list = message.data
        if transit_sid is not None:
            # Remote hop: the transit span *is* the hop record — it was
            # registered for every data tick at send time, so closing it
            # here is all the span store needs.
            sid = transit_sid
            self._close(self.spans[sid], t)
            send_t, send_node, send_cell, _kind, retransmit = send_info
        else:
            # Local ingest right after commit: chain to the publish span.
            parent = None
            if data_list:
                pub = self.pubs.get((pubend, data_list[0].tick))
                if pub is not None and pub.node == node:
                    sids = self._by_key.get((pubend, data_list[0].tick), ())
                    parent = sids[0] if sids else None
            span = self._span(
                "ingest",
                node,
                pubend,
                data_list[0].tick if data_list else None,
                t,
                parent=parent,
                t1=t,
                src=src,
                d=len(data_list),
                relay=relay,
            )
            sid = span.sid
            for i, data in enumerate(data_list):
                if i:  # data[0] is registered by _span above
                    self._register(span, pubend, data.tick)
            send_t = send_node = send_cell = None
            retransmit = bool(getattr(message, "retransmit", False))
        arrivals = self.arrivals
        for data in data_list:
            akey = (node, pubend, data.tick)
            if akey not in arrivals:
                arrivals[akey] = _Arrival(
                    t_raw, t, src, send_t, send_node, send_cell, retransmit, sid
                )
        self._last_ingest = (node, sid)

    def knowledge_sent(self, t, node, dst, cell, message, kind, sideways=False):
        parent = None
        if kind == "retransmit" and self._nack_scope is not None:
            parent = self._nack_scope
        elif kind == "flush" and self._last_flush is not None:
            fnode, fsid = self._last_flush
            if fnode == node:
                parent = fsid
        if parent is None and self._last_ingest is not None:
            inode, isid = self._last_ingest
            if inode == node:
                parent = isid
        if parent is None and message.data:
            key = (message.pubend, message.data[0].tick)
            pub = self.pubs.get(key)
            if pub is not None and pub.node == node:
                sids = self._by_key.get(key, ())
                parent = sids[0] if sids else None
        data_list = message.data
        span = self._span(
            "transit",
            node,
            message.pubend,
            data_list[0].tick if data_list else None,
            t,
            parent=parent,
            dst=dst,
            cell=cell,
            kind=kind,
            d=len(data_list),
            sideways=sideways,
        )
        retransmit = bool(getattr(message, "retransmit", False))
        send_times = self.send_times
        for i, data in enumerate(data_list):
            if i:  # data[0] is registered by _span above
                self._register(span, message.pubend, data.tick)
            skey = (node, message.pubend, data.tick)
            sends = send_times.get(skey)
            if sends is None:
                send_times[skey] = [(t, retransmit)]
            else:
                sends.append((t, retransmit))
        # Keep the message reference so id() cannot be recycled while the
        # transit is in flight (dropped messages pin their record forever,
        # bounded by total sends).
        self._pending_transit[id(message)] = (
            span.sid,
            message,
            (t, node, cell, kind, retransmit),
        )

    def flush_deferred(self, t, node, pubend, cell, ticks, armed, delay):
        tkey = (node, pubend, cell)
        sid = self._open_flush_timers.get(tkey)
        if armed or sid is None:
            span = self._span(
                "flush_timer",
                node,
                pubend,
                ticks[0] if ticks else None,
                t,
                delay=delay,
                cell=cell,
            )
            self._open_flush_timers[tkey] = sid = span.sid
        span = self.spans[sid]
        span.attrs["ticks"] = span.attrs.get("ticks", 0) + len(ticks)
        for tick in ticks:
            self._register(span, pubend, tick)
            self.flush_windows.setdefault((node, pubend, cell, tick), [t, None])

    def knowledge_flushed(self, t, node, pubend, cell, ticks, sent):
        sid = self._open_flush_timers.pop((node, pubend, cell), None)
        if sid is not None:
            span = self.spans[sid]
            span.attrs["sent"] = sent
            self._close(span, t)
            self._last_flush = (node, sid) if sent else None
        for tick in ticks:
            window = self.flush_windows.get((node, pubend, cell, tick))
            if window is not None and window[1] is None:
                window[1] = t

    def subend_nack(self, t, node, pubend, ranges, attempt):
        span = self._span(
            "nack",
            node,
            pubend,
            None,
            t,
            t1=t,
            ticks=sum(r.stop - r.start for r in ranges),
            attempt=attempt,
        )
        self._range_spans.append(
            (span.sid, pubend, tuple((r.start, r.stop) for r in ranges))
        )
        self._last_subend_nack = (node, span.sid)

    def nack_sent(self, t, node, pubend, ranges, message):
        parent = None
        if self._last_subend_nack is not None:
            nnode, nsid = self._last_subend_nack
            if nnode == node:
                parent = nsid
        if parent is None and self._nack_scope is not None:
            # Escalation: this broker forwards curiosity it cannot satisfy.
            parent = self._nack_scope
        span = self._span(
            "nack_send",
            node,
            pubend,
            None,
            t,
            parent=parent,
            t1=t,
            ticks=sum(r.stop - r.start for r in ranges),
        )
        self._range_spans.append(
            (span.sid, pubend, tuple((r.start, r.stop) for r in ranges))
        )
        self._nack_send_by_msg[id(message)] = (span.sid, message)

    def nack_received(self, t, node, src, message):
        sent = self._nack_send_by_msg.get(id(message))
        span = self._span(
            "nack_handle",
            node,
            message.pubend,
            None,
            t,
            parent=sent[0] if sent is not None else None,
            src=src,
            ticks=message.tick_count(),
        )
        self._range_spans.append(
            (
                span.sid,
                message.pubend,
                tuple((r.start, r.stop) for r in message.ranges),
            )
        )
        self._nack_scope = span.sid

    def nack_done(self, t, node):
        if self._nack_scope is not None:
            self._close(self.spans[self._nack_scope], t)
            self._nack_scope = None

    def client_write(self, t, node, subscriber, pubend, tick, eta):
        arrival = self.arrivals.get((node, pubend, tick))
        span = self._span(
            "deliver",
            node,
            pubend,
            tick,
            t,
            parent=arrival.span if arrival is not None else None,
            subscriber=subscriber,
            eta=round(eta, 9),
        )
        self._open_deliver[(subscriber, pubend, tick)] = span.sid
        self.client_writes.setdefault((subscriber, pubend, tick), (t, node))

    def delivered(self, t, node, subscriber, pubend, tick):
        sid = self._open_deliver.pop((subscriber, pubend, tick), None)
        if sid is not None:
            self._close(self.spans[sid], t)
        self.deliveries.append((subscriber, pubend, tick, t, node))

    def silence_emitted(self, t, node, pubend, up_to):
        self._span("silence", node, pubend, None, t, t1=t, up_to=up_to)

    def horizon_advanced(self, t, node, pubend, old, new):
        self.horizon_log.append((t, node, pubend, old, new))

    def fault(self, t, kind, target):
        span = self._span("fault", target, "", None, t, t1=t, kind=kind)
        self._fault_spans.append(span.sid)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def spans_for(self, pubend: str, tick: int) -> List[Span]:
        """Every span touching ``(pubend, tick)``: direct registrations,
        nack spans whose ranges contain the tick, their causal ancestors,
        and fault spans (context)."""
        sids = set(self._by_key.get((pubend, tick), ()))
        for sid, span_pubend, ranges in self._range_spans:
            if span_pubend == pubend and any(
                start <= tick < stop for start, stop in ranges
            ):
                sids.add(sid)
        sids.update(self._fault_spans)
        # Close over causal ancestors so every parent link renders.
        frontier = list(sids)
        while frontier:
            parent = self.spans[frontier.pop()].parent
            if parent is not None and parent not in sids:
                sids.add(parent)
                frontier.append(parent)
        return sorted(
            (self.spans[sid] for sid in sids), key=lambda s: (s.t0, s.sid)
        )

    def render_timeline(self, pubend: str, tick: int, header: str = "") -> str:
        """A byte-stable, indented causal timeline for one message."""
        spans = self.spans_for(pubend, tick)
        included = {span.sid for span in spans}
        depth: Dict[int, int] = {}
        for span in spans:  # (t0, sid) order => parents precede children
            if span.parent is not None and span.parent in depth:
                depth[span.sid] = depth[span.parent] + 1
            else:
                depth[span.sid] = 0
        lines = [f"causal timeline for ({pubend}, {tick})"]
        if header:
            lines.append(header)
        lines.append(f"{'t0 (s)':>12}  {'dur (ms)':>10}  span")
        for span in spans:
            dur = span.duration()
            dur_text = "open" if dur is None else f"{dur * 1e3:.3f}"
            parts = " ".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items()) if v not in (None, "")
            )
            indent = "  " * depth[span.sid]
            target = f" ({span.pubend},{span.tick})" if span.tick is not None else ""
            lines.append(
                f"{span.t0:12.6f}  {dur_text:>10}  {indent}{span.name}"
                f" @{span.node}{target} {parts}".rstrip()
            )
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Chrome trace / Perfetto export
    # ------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The span store as a Chrome trace-event object: one process per
        broker, one thread lane per pubend, flow arrows for cross-node
        and batching/nack causal links.  An open span ends at the latest
        time any hook reported, so the export needs no backend clock."""
        end = max(
            [t for span in self.spans for t in (span.t0, span.t1) if t is not None]
            + [entry[3] for entry in self.deliveries]
            + [entry[0] for entry in self.horizon_log],
            default=0.0,
        )
        pids: Dict[str, int] = {}
        tids: Dict[Tuple[str, str], int] = {}
        events: List[Dict[str, Any]] = []

        def pid_of(node: str) -> int:
            if node not in pids:
                pids[node] = len(pids) + 1
                events.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pids[node],
                        "tid": 0,
                        "args": {"name": node or "system"},
                    }
                )
            return pids[node]

        def tid_of(node: str, pubend: str) -> int:
            key = (node, pubend)
            if key not in tids:
                tids[key] = len([k for k in tids if k[0] == node]) + 1
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid_of(node),
                        "tid": tids[key],
                        "args": {"name": pubend or "control"},
                    }
                )
            return tids[key]

        def us(t: float) -> float:
            return round(t * 1e6, 3)

        for span in self.spans:
            pid = pid_of(span.node)
            tid = tid_of(span.node, span.pubend)
            t1 = span.t1 if span.t1 is not None else end
            args = {k: v for k, v in span.attrs.items() if v not in (None, "")}
            if span.tick is not None:
                args["tick"] = span.tick
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": "lifecycle",
                    "pid": pid,
                    "tid": tid,
                    "ts": us(span.t0),
                    "dur": max(us(t1) - us(span.t0), 1.0),
                    "args": args,
                }
            )
            if span.parent is not None:
                parent = self.spans[span.parent]
                anchor = min(
                    parent.t1 if parent.t1 is not None else span.t0, span.t0
                )
                events.append(
                    {
                        "ph": "s",
                        "id": span.sid,
                        "name": "cause",
                        "cat": "causal",
                        "pid": pid_of(parent.node),
                        "tid": tid_of(parent.node, parent.pubend),
                        "ts": us(max(anchor, parent.t0)),
                    }
                )
                events.append(
                    {
                        "ph": "f",
                        "bp": "e",
                        "id": span.sid,
                        "name": "cause",
                        "cat": "causal",
                        "pid": pid,
                        "tid": tid,
                        "ts": us(span.t0),
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, out: Any) -> int:
        """Write the Chrome trace JSON to ``out`` (path or file object);
        returns the number of trace events written."""
        trace = self.chrome_trace()
        if hasattr(out, "write"):
            json.dump(trace, out)
        else:
            with open(out, "w") as handle:
                json.dump(trace, handle)
        return len(trace["traceEvents"])
