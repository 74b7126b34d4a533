"""Asyncio transports for real-time broker deployments.

The deterministic simulator is the primary evaluation substrate (see
DESIGN.md §4), but the broker engine is transport-agnostic; this module
provides two asyncio transports so the same protocol runs in real time:

* :class:`LocalTransport` — in-process: each send is delivered by its
  own event-loop callback after an optional latency, with optional
  i.i.d. drops.  Useful for real-time integration tests and
  demos without sockets.
* :class:`TcpTransport` — real TCP on localhost: each broker listens on
  its own port; outgoing connections are *supervised* — established
  lazily, kept alive by heartbeats, and re-established with exponential
  backoff plus jitter after any failure.  Messages travel in the
  length-prefixed, CRC-checked binary frame protocol of
  :mod:`repro.aio.wire`: everything sent to one peer in one event-loop
  turn leaves as one batch frame (bounded by ``MAX_BATCH_BYTES``) when
  that turn ends, and a **serialize-once cache** encodes a message
  fanned out to N peers exactly once.

Both implement the :class:`Transport` contract the runtime is written
against: ``send(src, dst, message) -> bool``, ``link_usable(a, b)``,
``fail_link``/``recover_link`` and ``stall``/``unstall`` (so fault
injection is transport-agnostic), ``set_pathology``/``clear_pathology``
for a timed per-pair loss/jitter/corruption override (in-process only:
nothing can be injected below a reliable TCP stream, so it raises there),
``attach``/``detach`` to bring a broker on and off the wire, and
``corrupt_next_messages`` for in-flight corruption.
Both deliver in the loop callback that brings a message in — the
``call_soon``/``call_later`` of a local send, the ``data_received`` of
a TCP read — with no task or queue between the wire and the receiver.
``link_usable`` reports *local* knowledge of link health the way the
paper's brokers learn it: for TCP that is the supervised connection state
(established and heartbeat-fresh), which is what drives the engine's
path selection and sideways routing during real outages.
"""

from __future__ import annotations

import asyncio
import json
import random
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..obs.instruments import NULL_INSTRUMENTS
from . import wire
from .wire import (
    FRAME_BATCH,
    FRAME_HEARTBEAT,
    FRAME_HELLO,
    FrameDecoder,
    FrameError,
    SerializeCache,
    decode_batch_body,
    decode_wire_message,
    encode_batch_frame,
)

__all__ = ["Transport", "LocalTransport", "TcpTransport"]

#: Receive callback: (src_broker, message) -> None.
ReceiveFn = Callable[[str, Any], None]
#: Turn bracket: ``turn(run, *args)`` calls ``run(*args)`` — everything
#: one loop callback delivers — as one receiving turn.
TurnFn = Callable[..., None]


def _no_turn(run: Callable[..., None], *args: Any) -> None:
    """The turn of a receiver that keeps none."""
    run(*args)


class Transport(ABC):
    """What the asyncio runtime needs from the wire between brokers."""

    def __init__(self) -> None:
        #: Sends the chaos harness will corrupt next (deterministic
        #: injection; see :meth:`corrupt_next_messages`).
        self._corrupt_pending = 0
        #: Stalled broker pairs (the paper's §4.2 sickness): ``send``
        #: discards their data, but heartbeats are not sends, so the pair
        #: still looks healthy.  ``fail_link``/``recover_link`` clear it.
        self.stalled: Set[Tuple[str, str]] = set()

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        """The normalized (undirected) broker pair."""
        return (a, b) if a <= b else (b, a)

    @abstractmethod
    async def attach(
        self, broker_id: str, on_receive: ReceiveFn, turn: Optional[TurnFn] = None
    ) -> None:
        """Bring ``broker_id`` onto the wire: inbound messages go to
        ``on_receive(src, message)`` in the loop callback that brings
        them in, and everything one callback delivers runs inside one
        ``turn`` when one is given."""

    @abstractmethod
    async def detach(self, broker_id: str) -> None:
        """Take ``broker_id`` off the wire (crash): its peers' ``link_usable``
        turns false and traffic to it is lost."""

    @abstractmethod
    def send(self, src: str, dst: str, message: Any) -> bool:
        """Fire-and-forget; returns the local link-health verdict."""

    @abstractmethod
    def link_usable(self, a: str, b: str) -> bool:
        """``a``'s local knowledge of whether its link to ``b`` is healthy."""

    @abstractmethod
    def fail_link(self, a: str, b: str) -> None:
        """Sever the pair until :meth:`recover_link`."""

    @abstractmethod
    def recover_link(self, a: str, b: str) -> None:
        """Undo :meth:`fail_link`."""

    def stall(self, a: str, b: str) -> None:
        self.stalled.add(self._key(a, b))

    def unstall(self, a: str, b: str) -> None:
        self.stalled.discard(self._key(a, b))

    def set_pathology(
        self,
        a: str,
        b: str,
        drop_probability: Optional[float] = None,
        jitter: Optional[float] = None,
        corrupt_probability: Optional[float] = None,
    ) -> None:
        """Override the pair's ambient drop/jitter/corrupt until
        :meth:`clear_pathology` (``None`` keeps the ambient value).  Only
        a transport that owns the wire can; a reliable stream cannot."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot inject loss below its stream"
        )

    def clear_pathology(self, a: str, b: str) -> None:
        """Drop the pair's override: back to the ambient pathology."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot inject loss below its stream"
        )

    def corrupt_next_messages(self, count: int = 1) -> None:
        """Chaos hook: the next ``count`` sends (batch frames, on TCP) are
        damaged in flight and must be rejected by the receiving checksum —
        never delivered; the GD retransmission protocol heals the gap."""
        self._corrupt_pending += count

    def bind_instruments(self, instruments: Any) -> None:
        """Attach observability counters (done by :class:`AioSystem`)."""

    async def drain(self, timeout: float = 1.0) -> bool:
        """Wait until everything accepted by :meth:`send` has left this
        process, or ``timeout``; True when nothing is left buffered."""
        return True

    async def close(self) -> None:
        """Release every socket and task."""


class LocalTransport(Transport):
    """In-process asyncio transport with optional latency and loss."""

    def __init__(
        self,
        latency: float = 0.0,
        drop_probability: float = 0.0,
        seed: int = 0,
        jitter: float = 0.0,
        corrupt_probability: float = 0.0,
    ):
        super().__init__()
        self.latency = latency
        self.drop_probability = drop_probability
        #: Extra uniform [0, jitter) delivery delay per message; nonzero
        #: jitter can reorder messages, like the simulator's jittery links.
        self.jitter = jitter
        #: Probability a sent message is corrupted in flight.  In-process
        #: messages have no byte encoding to damage, so corruption is
        #: modelled at its *observable* effect: the receiving transport
        #: detects the bad checksum and discards (counted in
        #: ``frames_rejected_crc``), exactly what TcpTransport does with
        #: a frame failing its CRC32 — detect-and-discard, the protocol's
        #: retransmission heals the gap.
        self.corrupt_probability = corrupt_probability
        self.rng = random.Random(seed)
        self._receivers: Dict[str, Tuple[ReceiveFn, TurnFn]] = {}
        self._down: Set[Tuple[str, str]] = set()
        #: Per-pair (drop, jitter, corrupt) override of the ambient
        #: pathology, keyed by the normalized broker pair; a ``None`` field
        #: keeps the ambient value.  At most one per pair — the same model
        #: as the simulator's :meth:`SimLink.set_pathology`.
        self._pathology: Dict[Tuple[str, str], Tuple[Optional[float], ...]] = {}
        self.sent = 0
        self.dropped = 0
        #: Messages discarded as corrupt-in-flight (see above).
        self.frames_rejected_crc = 0
        self._m_rejected = NULL_INSTRUMENTS.counter("aio_frames_rejected_crc")

    def bind_instruments(self, instruments: Any) -> None:
        self._m_rejected = instruments.counter(
            "aio_frames_rejected_crc",
            "messages discarded as corrupt-in-flight (checksum reject)",
        )

    async def attach(
        self, broker_id: str, on_receive: ReceiveFn, turn: Optional[TurnFn] = None
    ) -> None:
        self._receivers[broker_id] = (on_receive, turn or _no_turn)

    async def detach(self, broker_id: str) -> None:
        self._receivers.pop(broker_id, None)

    def fail_link(self, a: str, b: str) -> None:
        self.unstall(a, b)
        self._down.add(self._key(a, b))

    def recover_link(self, a: str, b: str) -> None:
        self.unstall(a, b)
        self._down.discard(self._key(a, b))

    def link_usable(self, a: str, b: str) -> bool:
        return self._key(a, b) not in self._down and b in self._receivers

    def set_pathology(
        self,
        a: str,
        b: str,
        drop_probability: Optional[float] = None,
        jitter: Optional[float] = None,
        corrupt_probability: Optional[float] = None,
    ) -> None:
        """A later override replaces this one; all-``None`` changes
        nothing."""
        override = (drop_probability, jitter, corrupt_probability)
        if any(value is not None for value in override):
            self._pathology[self._key(a, b)] = override

    def clear_pathology(self, a: str, b: str) -> None:
        self._pathology.pop(self._key(a, b), None)

    def pathology(self, a: str, b: str) -> Tuple[float, float, float]:
        """The ``(drop, jitter, corrupt)`` in force on the pair right now."""
        ambient = (self.drop_probability, self.jitter, self.corrupt_probability)
        override = self._pathology.get(self._key(a, b))
        if override is None:
            return ambient
        return tuple(
            kept if value is None else value
            for value, kept in zip(override, ambient)
        )

    def send(self, src: str, dst: str, message: Any) -> bool:
        self.sent += 1
        key = self._key(src, dst)
        if key in self._down:
            return False
        if key in self.stalled:
            return True  # absorbed: the sender cannot tell
        drop, jitter, corrupt = self.pathology(src, dst)
        if drop and self.rng.random() < drop:
            self.dropped += 1
            return True
        if self._corrupt_pending > 0:
            self._corrupt_pending -= 1
            self.frames_rejected_crc += 1
            self._m_rejected.inc()
            return True
        if corrupt and self.rng.random() < corrupt:
            # Corrupted in flight: the receiver's checksum rejects it
            # (detect-and-discard); the message is never delivered and
            # the GD retransmission protocol heals the gap.
            self.frames_rejected_crc += 1
            self._m_rejected.inc()
            return True
        loop = asyncio.get_running_loop()

        def deliver() -> None:
            receiver = self._receivers.get(dst)
            if receiver is not None:
                on_receive, turn = receiver
                turn(on_receive, src, message)

        delay = self.latency
        if jitter:
            delay += self.rng.random() * jitter
        if delay > 0:
            loop.call_later(delay, deliver)
        else:
            loop.call_soon(deliver)
        return True

    async def close(self) -> None:
        self._receivers.clear()


class _Connection:
    """Supervised outgoing connection state for one (src, dst) pair."""

    __slots__ = (
        "src",
        "dst",
        "outbox",
        "flush",
        "writer",
        "wakeup",
        "task",
        "up",
        "suspect",
        "last_ack",
        "attempts",
        "closing",
    )

    def __init__(self, src: str, dst: str):
        self.src = src
        self.dst = dst
        #: Encoded message payloads awaiting the wire (batch elements,
        #: not complete frames — a flush builds the frames).  Bounded
        #: (the sender sheds the oldest past OUTBOX_LIMIT): a dead peer
        #: must not grow an unbounded buffer — the protocol recovers
        #: dropped traffic through curiosity/retransmission once the link
        #: heals.  A payload is popped once ``writer.write`` has accepted
        #: its frame, so it is written at most once; whatever a flush
        #: could not write stays at the head and goes out after
        #: reconnect.  A frame accepted by a socket that then fails is
        #: lost like any message and recovered by the protocol.
        self.outbox: Deque[bytes] = deque()
        #: The scheduled flush, from the first send that found none
        #: pending until it runs.
        self.flush: Optional[asyncio.Handle] = None
        #: The established stream, from the handshake until the
        #: connection fails; ``None`` while there is nothing to write to.
        self.writer: Optional[asyncio.StreamWriter] = None
        #: Rouses the supervisor from its heartbeat wait: the ack reader
        #: ended, or a flush left payloads behind on a live writer.
        self.wakeup = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        #: True between a successful handshake and the next failure.
        self.up = False
        #: Set after a heartbeat timeout: a half-open peer accepts new
        #: TCP connections just fine, so a suspect connection is only
        #: reported usable again once the peer actually acks.
        self.suspect = False
        #: Loop time of the last heartbeat ack (or any successful write).
        self.last_ack = 0.0
        #: Consecutive failed connect attempts (drives the backoff).
        self.attempts = 0
        self.closing = False


class _Inbound(asyncio.Protocol):
    """One accepted connection to a listening broker.

    Everything happens in the loop's read callback: :meth:`data_received`
    feeds the frame decoder and hands each decoded envelope to the
    broker's receiver, every envelope of one read inside one turn.  The
    loop reads the socket only as fast as the broker handles it, so a
    broker that falls behind pushes back on its sender through TCP flow
    control.  A frame failing its CRC, a malformed frame or a peer that
    skips its HELLO closes the connection; a broker's handler raising
    does not — ``AioBroker.on_receive`` keeps that in ``failure`` and the
    read goes on."""

    def __init__(
        self, owner: "TcpTransport", broker_id: str, inbound: Set[asyncio.BaseTransport]
    ):
        self.owner = owner
        self.broker_id = broker_id
        #: The listening broker's accepted connections, for detach.
        self.inbound = inbound
        #: The peer, from its HELLO frame on.
        self.src: Optional[str] = None
        self.decoder = FrameDecoder()
        self.transport: Any = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.inbound.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        owner = self.owner
        receiver = owner._receivers.get(self.broker_id)
        if receiver is None:
            return  # detached: detach closes this connection
        self.decoder.feed(data)
        on_receive, turn = receiver
        try:
            turn(self._deliver_frames, on_receive)
        except wire.CorruptFrame:
            # A frame failed its CRC: never deliver any of it.  Count the
            # reject and treat the stream like a torn connection — closing
            # it makes the sender reconnect and re-send its unpopped
            # batches; anything already popped is healed by the
            # protocol's nack/retransmission machinery.
            owner.frames_rejected_crc += 1
            owner._m_rejected.inc()
            self.transport.close()
        except (json.JSONDecodeError, ValueError, KeyError):
            # FrameError/OversizedFrame are ValueErrors: a malformed or
            # hostile peer gets its connection closed, not a hang.
            self.transport.close()

    def _deliver_frames(self, on_receive: ReceiveFn) -> None:
        owner, broker_id = self.owner, self.broker_id
        for frame_type, body in self.decoder.frames():
            src = self.src
            if src is None:
                # The first frame identifies the peer.
                if frame_type != FRAME_HELLO:
                    raise FrameError(f"expected HELLO, got frame type {frame_type}")
                self.src = json.loads(body.decode("utf-8"))["src"]
                continue
            if frame_type == FRAME_HEARTBEAT:
                if not owner._is_severed(src, broker_id):
                    self.transport.write(wire.HEARTBEAT_ACK_FRAME)
                continue
            if frame_type != FRAME_BATCH:
                raise FrameError(f"unexpected frame type {frame_type}")
            if owner._is_severed(src, broker_id):
                continue  # the wire is cut; frames die here
            for payload in decode_batch_body(body):
                on_receive(src, decode_wire_message(payload))


class TcpTransport(Transport):
    """Localhost TCP transport with connection supervision.

    One listening socket per broker; per-(src, dst) outgoing connections
    carry length-prefixed binary frames (:mod:`repro.aio.wire`).

    The data path is the flush, not a task.  The first :meth:`send` that
    finds a connection with no flush pending schedules one with
    ``loop.call_soon``, and every send until it runs only appends to the
    outbox.  The flush writes everything queued as batch frames (each
    within ``MAX_BATCH_BYTES``), so sends made in one loop turn leave as
    one frame at the end of that turn with no added latency.  A flush
    writes nothing while the link cannot take it: no established stream,
    a closing writer, a severed pair, a detached peer, or a transport
    buffer above its write high-water mark.

    A supervisor task owns the rest of each connection:

    * establishes it lazily and re-establishes it after any failure with
      exponential backoff (``reconnect_base`` doubling up to
      ``reconnect_max``) plus seeded jitter, so a restarted broker's new
      ephemeral port is picked up without thundering herds;
    * sends a heartbeat frame every ``heartbeat_interval`` seconds and
      expects the peer's ack within ``heartbeat_timeout``; a silent
      (half-open) connection is detected and torn down, which flips
      ``link_usable`` to False the way a broker notices a dead link;
    * after the handshake, and whenever a flush stopped at the
      high-water mark, awaits ``drain()`` and flushes what is left;
    * keeps the outbox bounded; when it overflows while the link is down
      the oldest payload is shed (counted in ``shed``) — safe, because
      guaranteed traffic is recovered by the protocol's
      nack/retransmission machinery, never silently by the transport.

    Receiving has no task either: each accepted connection is an
    :class:`_Inbound` protocol, and one read is one receiving turn.

    Sends are serialized through a :class:`~repro.aio.wire.SerializeCache`
    so a message fanned out to several peers is encoded once; hits are
    counted in ``serialize_cache_hits``.
    """

    #: Payloads a downed connection may buffer before shedding the oldest.
    OUTBOX_LIMIT = 1024
    #: Cap on one batch frame's body: bounds the memory a slow peer's
    #: ``drain()`` can pin.  A single larger payload still goes alone.
    MAX_BATCH_BYTES = 256 * 1024

    def __init__(
        self,
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: Optional[float] = None,
        reconnect_base: float = 0.05,
        reconnect_max: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else 3.0 * heartbeat_interval
        )
        self.reconnect_base = reconnect_base
        self.reconnect_max = reconnect_max
        self.rng = random.Random(seed)
        #: broker -> (host, port) once listening.
        self.addresses: Dict[str, Tuple[str, int]] = {}
        self._servers: Dict[str, asyncio.AbstractServer] = {}
        self._receivers: Dict[str, Tuple[ReceiveFn, TurnFn]] = {}
        self._conns: Dict[Tuple[str, str], _Connection] = {}
        #: Administratively severed broker pairs (chaos injection).
        self._severed: Set[Tuple[str, str]] = set()
        #: Accepted inbound connections, per listening broker, so a
        #: broker crash can drop its half-open inbound sockets too.
        self._inbound: Dict[str, Set[asyncio.BaseTransport]] = {}
        self._codec = SerializeCache()
        self.sent = 0
        self.shed = 0
        self.reconnects = 0
        self.heartbeat_failures = 0
        #: Batch frames actually written (heartbeats/hellos excluded).
        self.frames_sent = 0
        #: Messages carried by those frames.
        self.msgs_sent = 0
        #: Frame bytes written (headers + bodies of batch frames).
        self.bytes_sent = 0
        #: Inbound frames rejected by a CRC32 check (header or body);
        #: each reject also tears down its connection so reconnect +
        #: retransmission heal the stream.
        self.frames_rejected_crc = 0
        self._instruments = NULL_INSTRUMENTS
        self._m_frames = NULL_INSTRUMENTS.counter("aio_frames_sent")
        self._m_bytes = NULL_INSTRUMENTS.counter("aio_bytes_sent")
        self._m_cache_hits = NULL_INSTRUMENTS.counter("aio_serialize_cache_hits")
        self._m_batch = NULL_INSTRUMENTS.histogram("aio_msgs_per_frame")
        self._m_rejected = NULL_INSTRUMENTS.counter("aio_frames_rejected_crc")

    @property
    def serialize_cache_hits(self) -> int:
        """Sends whose encoding was served by the serialize-once cache."""
        return self._codec.hits

    def bind_instruments(self, instruments: Any) -> None:
        self._instruments = instruments
        self._m_frames = instruments.counter(
            "aio_frames_sent", "batch frames written to TCP connections"
        )
        self._m_bytes = instruments.counter(
            "aio_bytes_sent", "frame bytes written to TCP connections"
        )
        self._m_cache_hits = instruments.counter(
            "aio_serialize_cache_hits",
            "fan-out sends whose encoding was shared via the serialize-once cache",
        )
        self._m_batch = instruments.histogram(
            "aio_msgs_per_frame",
            "messages coalesced into each batch frame",
            boundaries=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._m_rejected = instruments.counter(
            "aio_frames_rejected_crc",
            "inbound frames rejected by a CRC32 check (header or body)",
        )

    # -- lifecycle ---------------------------------------------------------

    async def attach(
        self, broker_id: str, on_receive: ReceiveFn, turn: Optional[TurnFn] = None
    ) -> None:
        """Begin listening for this broker on an ephemeral port."""
        self._receivers[broker_id] = (on_receive, turn or _no_turn)
        inbound = self._inbound.setdefault(broker_id, set())
        server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self, broker_id, inbound), host="127.0.0.1", port=0
        )
        self._servers[broker_id] = server
        sockname = server.sockets[0].getsockname()
        self.addresses[broker_id] = (sockname[0], sockname[1])

    async def detach(self, broker_id: str) -> None:
        """Stop listening and drop this broker's connections (crash)."""
        self._receivers.pop(broker_id, None)
        self.addresses.pop(broker_id, None)
        server = self._servers.pop(broker_id, None)
        if server is not None:
            server.close()
        for transport in self._inbound.pop(broker_id, ()):
            transport.close()
        if server is not None:
            # After the inbound close: from Python 3.12 this also waits
            # for the server's accepted connections to end.
            await server.wait_closed()
        # Kill this broker's *outgoing* supervisors; connections *to* it
        # stay supervised on the remote side and reconnect on restart.
        for key in [k for k in self._conns if k[0] == broker_id]:
            await self._drop_connection(self._conns.pop(key))

    async def drain(self, timeout: float = 1.0) -> bool:
        """Best-effort flush: wait until every live connection's outbox is
        empty (every frame accepted by its writer), or ``timeout``.

        Graceful-shutdown ordering: queued messages wait for their flush
        at the end of the turn, or for reconnect; closing the transport
        without draining first would discard them.  Outboxes of downed
        links are excluded — they cannot drain and their loss is
        recovered by the protocol on restart.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout

        def flushed() -> bool:
            return all(
                not conn.outbox
                for conn in self._conns.values()
                if not conn.closing and conn.up
            )

        while not flushed():
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.002)
        return True

    async def close(self) -> None:
        for conn in list(self._conns.values()):
            await self._drop_connection(conn)
        self._conns.clear()
        for broker_id in list(self._servers):
            await self.detach(broker_id)

    async def _drop_connection(self, conn: _Connection) -> None:
        conn.closing = True
        conn.up = False
        if conn.task is not None:
            conn.task.cancel()
            try:
                await conn.task
            except (asyncio.CancelledError, Exception):
                pass
            conn.task = None

    # -- fault injection ---------------------------------------------------

    def _is_severed(self, a: str, b: str) -> bool:
        return self._key(a, b) in self._severed

    def fail_link(self, a: str, b: str) -> None:
        """Sever the pair: established connections are torn down and new
        frames (including heartbeats' acks) die on the floor until
        :meth:`recover_link`."""
        self.unstall(a, b)
        self._severed.add(self._key(a, b))
        for key in ((a, b), (b, a)):
            conn = self._conns.get(key)
            if conn is not None:
                conn.up = False  # the supervisor notices and backs off

    def recover_link(self, a: str, b: str) -> None:
        self.unstall(a, b)
        self._severed.discard(self._key(a, b))

    # -- data path ---------------------------------------------------------

    def link_usable(self, a: str, b: str) -> bool:
        """Local knowledge of link health.

        A severed pair is down.  An established supervised connection
        reports its heartbeat-fresh status.  A pair never sent to yet is
        optimistically usable while the peer is listening (connections
        are lazy), matching how a broker assumes a link is fine until its
        transport learns otherwise.
        """
        if self._is_severed(a, b):
            return False
        conn = self._conns.get((a, b))
        if conn is not None and conn.task is not None:
            return conn.up
        return b in self.addresses

    def send(self, src: str, dst: str, message: Any) -> bool:
        """Fire-and-forget: enqueue the encoded payload on the supervised
        connection (spawning its supervisor on first use) and make sure a
        flush is scheduled.  Returns the local link-health verdict, like
        the simulator's network."""
        self.sent += 1
        key = self._key(src, dst)
        if key in self._severed:
            return False
        if key in self.stalled:
            return True  # absorbed: the heartbeats still say healthy
        conn = self._conns.get((src, dst))
        if conn is None:
            conn = _Connection(src, dst)
            self._conns[(src, dst)] = conn
            conn.task = asyncio.get_running_loop().create_task(
                self._supervise(conn)
            )
        hits_before = self._codec.hits
        payload = self._codec.encode(message)
        if self._codec.hits != hits_before:
            self._m_cache_hits.inc()
        conn.outbox.append(payload)
        while len(conn.outbox) > self.OUTBOX_LIMIT:
            # Shed the oldest buffered payload: bounded memory beats a
            # stale backlog, and the GD protocol re-requests anything
            # guaranteed that was lost.
            conn.outbox.popleft()
            self.shed += 1
        if conn.flush is None:
            # This turn's sends to dst leave together when the turn ends.
            conn.flush = asyncio.get_running_loop().call_soon(self._flush, conn)
        return conn.up or conn.task is not None and not conn.closing

    def _flush(self, conn: _Connection) -> None:
        """Write the outbox as batch frames, popping each batch once its
        writer accepted it.  Writes nothing while the link cannot take
        it (see the class docstring); the supervisor flushes again after
        reconnect or once ``drain()`` returns."""
        conn.flush = None
        writer = conn.writer
        if (
            writer is None
            or writer.is_closing()
            or conn.dst not in self.addresses
            or self._is_severed(conn.src, conn.dst)
        ):
            return
        transport = writer.transport
        high_water = transport.get_write_buffer_limits()[1]
        while conn.outbox:
            if transport.get_write_buffer_size() > high_water:
                conn.wakeup.set()  # the supervisor drains, then flushes
                return
            batch = self._collect_batch(conn)
            frame = encode_batch_frame(batch)
            if self._corrupt_pending > 0:
                # Chaos injection: damage the encoded bytes on the wire,
                # keep the batch queued, and fail the connection as the
                # receiver's CRC reject will anyway — reconnect re-sends
                # it.
                self._corrupt_pending -= 1
                damaged = bytearray(frame)
                damaged[-1] ^= 0x40
                writer.write(bytes(damaged))
                conn.writer = None
                conn.wakeup.set()
                return
            writer.write(frame)
            for __ in batch:
                conn.outbox.popleft()
            self.frames_sent += 1
            self.msgs_sent += len(batch)
            self.bytes_sent += len(frame)
            self._m_frames.inc()
            self._m_bytes.inc(len(frame))
            self._m_batch.observe(len(batch))

    def _collect_batch(self, conn: _Connection) -> List[bytes]:
        """Head slice of the outbox that fits one batch frame."""
        batch: List[bytes] = []
        size = 0
        for payload in conn.outbox:
            cost = len(payload) + 4
            if batch and size + cost > self.MAX_BATCH_BYTES:
                break
            batch.append(payload)
            size += cost
        return batch

    # -- supervision -------------------------------------------------------

    def _backoff(self, attempts: int) -> float:
        """Exponential backoff with seeded jitter: base * 2^n, capped,
        then scaled by a uniform [0.5, 1.0) factor."""
        delay = min(self.reconnect_base * (2 ** attempts), self.reconnect_max)
        return delay * (0.5 + 0.5 * self.rng.random())

    async def _supervise(self, conn: _Connection) -> None:
        """Own one outgoing connection until the transport drops it:
        connect (with backoff), handshake, then watch heartbeats and
        backpressure until the connection fails; repeat."""
        try:
            while not conn.closing:
                address = self.addresses.get(conn.dst)
                if address is None or self._is_severed(conn.src, conn.dst):
                    conn.up = False
                    await asyncio.sleep(self._backoff(conn.attempts))
                    conn.attempts = min(conn.attempts + 1, 8)
                    continue
                try:
                    reader, writer = await asyncio.open_connection(*address)
                except OSError:
                    conn.up = False
                    await asyncio.sleep(self._backoff(conn.attempts))
                    conn.attempts = min(conn.attempts + 1, 8)
                    continue
                if conn.attempts:
                    self.reconnects += 1
                conn.attempts = 0
                try:
                    await self._run_connection(conn, reader, writer)
                finally:
                    conn.up = False
                    writer.close()
        except asyncio.CancelledError:
            pass

    async def _run_connection(
        self,
        conn: _Connection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Watch one established connection until it fails: handshake,
        heartbeats, half-open detection, and the drain-then-flush of
        whatever a flush could not write."""
        loop = asyncio.get_running_loop()
        writer.write(wire.hello_frame(conn.src))
        await writer.drain()
        conn.up = not conn.suspect
        conn.last_ack = loop.time()

        async def read_acks() -> None:
            # Only heartbeat-ack frames flow back on an outgoing
            # connection; any inbound bytes are liveness evidence.
            while True:
                chunk = await reader.read(4096)
                if not chunk:
                    raise ConnectionResetError("peer closed")
                conn.last_ack = loop.time()
                conn.suspect = False
                conn.up = True

        ack_task = loop.create_task(read_acks())
        # Wake the supervisor promptly when the reader sees EOF/reset,
        # instead of waiting out the next heartbeat interval.
        ack_task.add_done_callback(lambda __: conn.wakeup.set())
        conn.writer = writer

        async def watch() -> None:
            next_beat = loop.time() + self.heartbeat_interval
            while True:
                await writer.drain()
                # Clear before the checks: whatever sets it from here on
                # ends the wait below.
                conn.wakeup.clear()
                if conn.writer is not writer:
                    raise ConnectionResetError("injected frame corruption")
                if self._is_severed(conn.src, conn.dst):
                    raise ConnectionResetError("link severed")
                if ack_task.done():
                    raise ConnectionResetError("peer closed")
                now = loop.time()
                if now - conn.last_ack > self.heartbeat_timeout:
                    # Half-open: writes may still "succeed" into a dead
                    # socket, but the peer stopped acking heartbeats.
                    self.heartbeat_failures += 1
                    conn.suspect = True
                    raise ConnectionResetError("heartbeat timeout")
                if now >= next_beat:
                    writer.write(wire.HEARTBEAT_FRAME)
                    next_beat = now + self.heartbeat_interval
                if conn.outbox and conn.flush is None:
                    # Queued while the link was down, or left above the
                    # high-water mark by a flush: drained now, so write.
                    self._flush(conn)
                try:
                    await asyncio.wait_for(
                        conn.wakeup.wait(), max(next_beat - loop.time(), 0.0)
                    )
                except asyncio.TimeoutError:
                    pass

        try:
            await watch()
        except (ConnectionError, OSError, RuntimeError):
            pass
        finally:
            conn.writer = None
            ack_task.cancel()
            try:
                await ack_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
