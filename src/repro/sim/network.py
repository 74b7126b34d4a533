"""Simulated network: nodes, lossy links, failures.

Models exactly the failure behaviours the paper's protocol must tolerate
(section 2): dropped messages, reordered messages, link outages, and the
*stall* used by the paper's failure injection ("the link or broker to be
failed was stalled for about 2-3 seconds during which it accepted data
but did not forward it, then it was failed" — section 4.2).

Links are full-duplex point-to-point channels with per-direction latency,
optional jitter (which produces genuine reordering), an i.i.d. drop
probability, and optional serialization bandwidth.  Delivery callbacks go
through the shared deterministic :class:`~repro.sim.scheduler.Scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs.instruments import NULL_INSTRUMENTS
from .scheduler import Scheduler

__all__ = ["SimLink", "SimNetwork", "Node"]


class Node:
    """Anything attached to the network.

    Subclasses (brokers, clients) override :meth:`receive`.  The network
    silently discards deliveries to dead nodes — a crashed process neither
    receives nor acknowledges anything.
    """

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.alive = True

    def receive(self, src: str, message: Any) -> None:
        raise NotImplementedError


@dataclass
class LinkStats:
    """Per-link delivery accounting (both directions)."""

    sent: int = 0
    delivered: int = 0
    dropped_random: int = 0
    dropped_down: int = 0
    dropped_stalled: int = 0
    bytes_sent: int = 0


class SimLink:
    """A full-duplex link between two nodes.

    State machine per link: *up* (delivering), *down* (dropping), or
    *stalled* (accepting but never delivering — traffic is absorbed and
    lost, modelling a sick process that still reads from its sockets).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        a: "Node",
        b: "Node",
        latency: float = 0.005,
        jitter: float = 0.0,
        drop_probability: float = 0.0,
        bandwidth_bps: Optional[float] = None,
        instruments: Any = NULL_INSTRUMENTS,
    ):
        if latency < 0 or jitter < 0:
            raise ValueError("latency and jitter must be non-negative")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self.scheduler = scheduler
        self.a = a
        self.b = b
        self.latency = latency
        self.jitter = jitter
        self.drop_probability = drop_probability
        self.bandwidth_bps = bandwidth_bps
        #: One timed override ``(drop, jitter)`` of the two ambient values
        #: above; a ``None`` field keeps the ambient one.  The same model
        #: as :class:`~repro.aio.transport.LocalTransport`'s per-pair slot.
        self._override: Optional[Tuple[Optional[float], Optional[float]]] = None
        self.up = True
        self.stalled = False
        self.stats = LinkStats()
        #: Serialization cursors per direction (time the pipe frees up).
        self._free_at: Dict[str, float] = {a.node_id: 0.0, b.node_id: 0.0}
        #: Per-direction sequence numbers for reorder detection: a
        #: delivery whose send sequence is below the highest already
        #: delivered in that direction overtook it on the wire.
        self._send_seq: Dict[str, int] = {a.node_id: 0, b.node_id: 0}
        self._max_delivered_seq: Dict[str, int] = {a.node_id: -1, b.node_id: -1}
        name = "-".join(sorted((a.node_id, b.node_id)))
        labels = {"link": name}
        self._m_sent = instruments.counter(
            "repro_network_sent_total",
            help="Messages handed to this link (either direction).",
            **labels,
        )
        self._m_delivered = instruments.counter(
            "repro_network_delivered_total",
            help="Messages delivered to the far endpoint.",
            **labels,
        )
        self._m_dropped = {
            reason: instruments.counter(
                "repro_network_dropped_total",
                help="Messages lost on this link, by cause.",
                reason=reason,
                **labels,
            )
            for reason in ("random", "down", "stalled")
        }
        self._m_reordered = instruments.counter(
            "repro_network_reordered_total",
            help="Deliveries that overtook an earlier send (jitter).",
            **labels,
        )
        self._m_in_flight = instruments.gauge(
            "repro_network_in_flight",
            help="Messages currently on the wire.",
            **labels,
        )
        self._m_bytes = instruments.counter(
            "repro_network_bytes_sent_total",
            help="Bytes handed to this link (either direction).",
            **labels,
        )

    def endpoints(self) -> Tuple[str, str]:
        return (self.a.node_id, self.b.node_id)

    def other(self, node_id: str) -> "Node":
        if node_id == self.a.node_id:
            return self.b
        if node_id == self.b.node_id:
            return self.a
        raise KeyError(f"{node_id} is not an endpoint of {self.endpoints()}")

    # -- failure control ----------------------------------------------------

    def fail(self) -> None:
        """Take the link down; in-flight messages already scheduled still
        arrive (they are on the wire), new sends are dropped."""
        self.up = False
        self.stalled = False

    def recover(self) -> None:
        self.up = True
        self.stalled = False

    def stall(self) -> None:
        """Absorb traffic without delivering (pre-crash sickness)."""
        self.stalled = True

    def set_pathology(
        self,
        drop_probability: Optional[float] = None,
        jitter: Optional[float] = None,
    ) -> None:
        """Override the ambient drop/jitter until :meth:`clear_pathology`;
        a later override replaces this one, all-``None`` changes nothing."""
        if drop_probability is not None or jitter is not None:
            self._override = (drop_probability, jitter)

    def clear_pathology(self) -> None:
        self._override = None

    def pathology(self) -> Tuple[float, float]:
        """The ``(drop_probability, jitter)`` in force right now."""
        if self._override is None:
            return self.drop_probability, self.jitter
        drop, jitter = self._override
        return (
            self.drop_probability if drop is None else drop,
            self.jitter if jitter is None else jitter,
        )

    # -- transmission --------------------------------------------------------

    def send(self, src_id: str, message: Any, size_bytes: int = 100) -> bool:
        """Transmit from the ``src_id`` endpoint to the other endpoint.

        Returns True when the message was put on the wire (which does not
        guarantee delivery).  Sending on a down link fails silently — the
        sender learns about link failure through link-status machinery,
        not through send errors (TCP would eventually error, but only
        after its own timeouts).
        """
        destination = self.other(src_id)
        self.stats.sent += 1
        self.stats.bytes_sent += size_bytes
        self._m_sent.inc()
        self._m_bytes.inc(size_bytes)
        if not self.up:
            self.stats.dropped_down += 1
            self._m_dropped["down"].inc()
            return False
        if self.stalled:
            self.stats.dropped_stalled += 1
            self._m_dropped["stalled"].inc()
            return False
        drop, jitter = self.pathology()
        if drop and self.scheduler.rng.random() < drop:
            self.stats.dropped_random += 1
            self._m_dropped["random"].inc()
            return True
        delay = self.latency
        if jitter:
            delay += self.scheduler.rng.uniform(0.0, jitter)
        if self.bandwidth_bps:
            serialization = size_bytes * 8.0 / self.bandwidth_bps
            start = max(self.scheduler.now, self._free_at[src_id])
            self._free_at[src_id] = start + serialization
            delay += (start + serialization) - self.scheduler.now
        seq = self._send_seq[src_id]
        self._send_seq[src_id] = seq + 1
        self._m_in_flight.inc()
        self.scheduler.call_later(
            delay, lambda: self._deliver(src_id, destination, message, seq)
        )
        return True

    def _deliver(
        self, src_id: str, destination: "Node", message: Any, seq: int = 0
    ) -> None:
        self._m_in_flight.dec()
        if not self.up:
            # The link died while the message was in flight.
            self.stats.dropped_down += 1
            self._m_dropped["down"].inc()
            return
        if not destination.alive:
            return
        self.stats.delivered += 1
        self._m_delivered.inc()
        if seq < self._max_delivered_seq[src_id]:
            self._m_reordered.inc()
        else:
            self._max_delivered_seq[src_id] = seq
        destination.receive(src_id, message)


class SimNetwork:
    """The set of nodes and links of one simulation."""

    def __init__(self, scheduler: Scheduler, instruments: Any = NULL_INSTRUMENTS):
        self.scheduler = scheduler
        self.instruments = instruments
        self.nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], SimLink] = {}

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def add_node(self, node: Node) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node

    def connect(self, a: str, b: str, **link_params: Any) -> SimLink:
        """Create a link between two registered nodes."""
        if a == b:
            raise ValueError("cannot link a node to itself")
        key = self._key(a, b)
        if key in self._links:
            raise ValueError(f"link {key} already exists")
        link_params.setdefault("instruments", self.instruments)
        link = SimLink(self.scheduler, self.nodes[a], self.nodes[b], **link_params)
        self._links[key] = link
        return link

    def link(self, a: str, b: str) -> SimLink:
        return self._links[self._key(a, b)]

    def has_link(self, a: str, b: str) -> bool:
        return self._key(a, b) in self._links

    def links_of(self, node_id: str) -> List[SimLink]:
        return [
            link
            for key, link in self._links.items()
            if node_id in key
        ]

    def neighbors(self, node_id: str) -> List[str]:
        out = []
        for (a, b) in self._links:
            if a == node_id:
                out.append(b)
            elif b == node_id:
                out.append(a)
        return sorted(out)

    def send(self, src: str, dst: str, message: Any, size_bytes: int = 100) -> bool:
        """Send over the direct link between ``src`` and ``dst``.

        Returns False (without raising) when no such link exists or the
        link refuses the message — distributed senders discover topology
        problems asynchronously, not via exceptions.
        """
        key = self._key(src, dst)
        link = self._links.get(key)
        if link is None:
            return False
        if not self.nodes[src].alive:
            return False
        return link.send(src, message, size_bytes)

    # -- fault verbs (the pair verbs of :class:`~repro.aio.transport.Transport`)

    def fail_link(self, a: str, b: str) -> None:
        self.link(a, b).fail()

    def recover_link(self, a: str, b: str) -> None:
        self.link(a, b).recover()

    def stall(self, a: str, b: str) -> None:
        self.link(a, b).stall()

    def unstall(self, a: str, b: str) -> None:
        """End a stall; a failed link stays down."""
        self.link(a, b).stalled = False

    def set_pathology(
        self,
        a: str,
        b: str,
        drop_probability: Optional[float] = None,
        jitter: Optional[float] = None,
        corrupt_probability: Optional[float] = None,
    ) -> None:
        """Override the link's ambient drop/jitter (``None`` keeps it).

        A simulated message has no byte encoding to damage: the
        observable effect of corruption is detect-and-discard at the
        receiver, which *is* a drop, so ``corrupt_probability`` folds into
        the drop override (the asyncio runtime corrupts for real and
        counts the checksum rejects)."""
        if corrupt_probability is not None:
            drop_probability = (
                corrupt_probability
                if drop_probability is None
                else 1.0 - (1.0 - drop_probability) * (1.0 - corrupt_probability)
            )
        self.link(a, b).set_pathology(drop_probability, jitter)

    def clear_pathology(self, a: str, b: str) -> None:
        self.link(a, b).clear_pathology()

    def link_is_usable(self, src: str, dst: str) -> bool:
        """The sender's local view of link health: the link exists, is up,
        and the peer process is alive.  A *stalled* link still looks
        usable — stalls are by construction undetectable sickness (paper
        section 4.2)."""
        link = self._links.get(self._key(src, dst))
        return link is not None and link.up and self.nodes[dst].alive
