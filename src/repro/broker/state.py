"""Broker soft state and broker-to-broker envelopes.

Section 3.1 of the paper: since the implemented protocol has no merges,
each broker keeps, per pubend P, an input stream ``istream[P]`` and, per
downstream cell c, an output stream ``ostream[P, c]`` connected to the
istream by a filter edge.  Every physical broker in a cell replicates
these structures (possibly with different per-tick knowledge).

All of this is *soft* state: a broker crash discards it entirely, and the
protocol rebuilds it from upstream knowledge and downstream curiosity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from ..core.edges import FilterEdge
from ..core.messages import KnowledgeMessage, register_message_kind
from ..core.streams import Stream
from ..core.ticks import Tick

__all__ = [
    "IStream",
    "OStream",
    "PubendRoute",
    "BrokerTopologyInfo",
    "Envelope",
    "LinkStatusMessage",
    "SubscriptionSummaryMessage",
]


class IStream:
    """Input stream of one pubend at one broker."""

    __slots__ = ("pubend", "stream", "last_upstream_sender", "acked_upstream")

    def __init__(self, pubend: str):
        self.pubend = pubend
        self.stream = Stream()
        #: The physical broker that most recently sent us downstream
        #: knowledge for this pubend — acks and nacks are sent back to it
        #: (paper section 3.1); ``None`` falls back to broadcasting to the
        #: whole upstream cell.
        self.last_upstream_sender: Optional[str] = None
        #: The ack value last propagated upstream (monotone).
        self.acked_upstream: Tick = 0


class OStream:
    """Output stream of one pubend towards one downstream cell."""

    __slots__ = (
        "pubend",
        "cell",
        "filter",
        "stream",
        "sent_watermark",
        "summary_edge",
        "pending_data",
        "flush_pending",
    )

    def __init__(self, pubend: str, cell: str, filter_edge: FilterEdge):
        self.pubend = pubend
        self.cell = cell
        self.filter = filter_edge
        #: Filtered knowledge view plus downstream curiosity.  D ticks
        #: here mark which ticks passed the filter; their payloads live in
        #: the istream (one copy per broker, not per path).
        self.stream = Stream()
        #: All ticks below this are covered by messages already sent
        #: downstream; the next first-time data message brackets the range
        #: from here so silence propagates lazily with data.
        self.sent_watermark: Tick = 0
        #: Dynamic filter from subscription propagation: the downstream
        #: cell's advertised subscription summary (None until received;
        #: absent summaries filter nothing — conservative).  Only ever set
        #: under ``LivenessParams.subscription_propagation``.
        self.summary_edge: Optional[FilterEdge] = None
        #: Batched flushing (flush_delay > 0): DataTicks ingested since the
        #: last flush, awaiting one coalesced first-time KnowledgeMessage.
        #: Payloads are captured here at ingest time — a co-hosted subend
        #: may consume and finalize the shared istream (GC'ing its
        #: payloads) before the flush timer fires.
        self.pending_data: list = []
        #: Whether a flush timer is currently scheduled for this ostream.
        self.flush_pending: bool = False

    def matches(self, payload: Any) -> bool:
        """Whether a payload passes the path's filter: the static edge
        composed with the subscription summary (``None`` is the identity)."""
        return self.filter.matches(payload) and (
            self.summary_edge is None or self.summary_edge.matches(payload)
        )

    def apply(self, message: KnowledgeMessage) -> KnowledgeMessage:
        """The path's filtered image of a knowledge message."""
        filtered = self.filter.apply(message)
        if self.summary_edge is not None:
            filtered = self.summary_edge.apply(filtered)
        return filtered

    def ack_prefix(self) -> Tick:
        """Ticks below this are anti-curious, i.e. final in the path's
        knowledge: acked by the downstream cell or locally final (filtered
        data is immediately ackable).  O(1): the stream's prefix cursor."""
        return self.stream.knowledge.final_prefix()


@dataclass(frozen=True)
class PubendRoute:
    """One broker's routing knowledge for one pubend's spanning tree."""

    pubend: str
    #: Cell the knowledge arrives from (None when this broker hosts the
    #: pubend).
    upstream_cell: Optional[str]
    #: Downstream cells and the filter applied on each edge.
    downstream: Mapping[str, FilterEdge]
    #: For each downstream cell: the cells *below it* in this pubend's
    #: tree (used to prefer physical brokers that can reach the whole
    #: subtree when choosing a link from a bundle).
    subtree: Mapping[str, FrozenSet[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class BrokerTopologyInfo:
    """Static topology facts a broker is configured with.

    (The paper's system fixes the virtual topology; dynamic subscription
    changes it, which the paper scopes out — so do we.)
    """

    broker_id: str
    cell: str
    #: Adjacent physical brokers (static links).
    neighbors: FrozenSet[str]
    #: Cell of every broker we may talk to.
    cell_of: Mapping[str, str]
    #: Physical brokers of every cell we may talk to.
    brokers_of_cell: Mapping[str, Tuple[str, ...]]
    #: Per-pubend routes through this broker.
    routes: Mapping[str, PubendRoute]

    def peers(self) -> Tuple[str, ...]:
        """Adjacent brokers in the same cell (sideways-routing partners)."""
        return tuple(
            sorted(
                n
                for n in self.neighbors
                if self.cell_of.get(n) == self.cell
            )
        )

    def adjacent_in_cell(self, cell: str) -> Tuple[str, ...]:
        """Adjacent brokers belonging to ``cell``."""
        return tuple(
            sorted(n for n in self.neighbors if self.cell_of.get(n) == cell)
        )


@dataclass(frozen=True, slots=True)
class Envelope:
    """Broker-to-broker wrapper around a GD message.

    ``target_cell`` restricts propagation: a sideways-routed knowledge
    message must only be forwarded to the one cell its original sender
    could not reach, not re-broadcast along every path (the peer already
    received the message on its own normal path).  ``sideways`` prevents
    sideways ping-pong between cell peers.
    """

    payload: Any
    target_cell: Optional[str] = None
    sideways: bool = False

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {"kind": "envelope", "p": self.payload.to_wire()}
        if self.target_cell is not None:
            wire["tc"] = self.target_cell
        if self.sideways:
            wire["sw"] = True
        return wire

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "Envelope":
        from ..core.messages import decode_message

        return cls(
            payload=decode_message(obj["p"]),
            target_cell=obj.get("tc"),
            sideways=bool(obj.get("sw", False)),
        )


@dataclass(frozen=True, slots=True)
class SubscriptionSummaryMessage:
    """Upstream advertisement of a path's subscription union.

    When subscription propagation is enabled, a broker periodically (and
    on subscription changes) tells its upstream neighbour the summary
    predicate of everything subscribed below it for one pubend; upstream
    edge filters prune non-matching data against it.  The summary is
    conservative — a match-everything summary is always safe.
    """

    sender: str
    pubend: str
    #: Wire-encoded predicate (matching.ast.predicate_to_wire).
    summary: Any

    def to_wire(self) -> Dict[str, Any]:
        return {
            "kind": "sub_summary",
            "sender": self.sender,
            "pubend": self.pubend,
            "summary": self.summary,
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "SubscriptionSummaryMessage":
        return cls(sender=obj["sender"], pubend=obj["pubend"], summary=obj["summary"])


register_message_kind("sub_summary", SubscriptionSummaryMessage.from_wire)


@dataclass(frozen=True, slots=True)
class LinkStatusMessage:
    """Periodic link-status exchange between adjacent brokers.

    Advertises which downstream cells the sender can currently reach over
    a direct, operational link.  Upstream brokers use this to steer pubend
    traffic away from brokers that lost connectivity (the paper's
    "periodic link status messages ... so that this sideways routing is
    only transient").
    """

    sender: str
    reachable_cells: FrozenSet[str]

    def to_wire(self) -> Dict[str, Any]:
        return {
            "kind": "link_status",
            "sender": self.sender,
            "cells": sorted(self.reachable_cells),
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "LinkStatusMessage":
        return cls(sender=obj["sender"], reachable_cells=frozenset(obj["cells"]))
