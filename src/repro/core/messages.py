"""Protocol messages of the guaranteed-delivery protocol.

Section 3.1 of the paper defines the downstream *knowledge messages* and
the upstream *ack* and *nack* messages, plus the pubend-driven
*AckExpected* message:

* A knowledge message has the form ``F*Q*F*DF*Q*`` (a data message) or
  ``F*Q*F*Q*`` (a silence message): a final prefix encoded as a single
  timestamp, optional explicit F runs, and — for data messages — D tick
  payloads bracketed by silence.  We generalize slightly: a message carries
  a final-prefix timestamp, a list of F ranges and a *list* of D ticks.
  First-time data messages carry exactly one D tick (the paper's form);
  retransmissions may batch several.
* Ack messages carry a single timestamp ``up_to``: ticks ``[0, up_to)``
  are acknowledged.
* Nack messages carry a list of curious tick ranges.
* AckExpected messages carry the timestamp up to which the pubend expects
  acknowledgements.

All messages are immutable values; a wire codec (plain JSON-compatible
dicts) is provided for transports that need serialization (the asyncio TCP
transport, the file log).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from .ticks import Tick, TickRange, merge_ranges

__all__ = [
    "DataTick",
    "KnowledgeMessage",
    "AckMessage",
    "NackMessage",
    "AckExpectedMessage",
    "GDMessage",
    "encode_message",
    "decode_message",
]


def _encode_payload(payload: Any) -> Any:
    """JSON-encodable form of a payload (events carry a marker)."""
    from ..matching.events import Event

    if isinstance(payload, Event):
        return {"__event__": payload.to_wire()}
    return payload


def _decode_payload(obj: Any) -> Any:
    from ..matching.events import Event

    if isinstance(obj, dict) and "__event__" in obj:
        return Event.from_wire(obj["__event__"])
    return obj


@dataclass(frozen=True, slots=True)
class DataTick:
    """A D tick and its payload (the published event content)."""

    tick: Tick
    payload: Any

    def to_wire(self) -> Dict[str, Any]:
        return {"t": self.tick, "p": _encode_payload(self.payload)}

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "DataTick":
        return cls(tick=obj["t"], payload=_decode_payload(obj["p"]))


def _ranges_to_wire(ranges: Sequence[TickRange]) -> List[List[int]]:
    return [[r.start, r.stop] for r in ranges]


def _ranges_from_wire(obj: Sequence[Sequence[int]]) -> Tuple[TickRange, ...]:
    return tuple(TickRange(a, b) for a, b in obj)


@dataclass(frozen=True, slots=True)
class KnowledgeMessage:
    """A downstream knowledge message for one pubend's stream.

    ``fin_prefix`` asserts that all ticks ``[0, fin_prefix)`` are final.
    ``f_ranges`` asserts additional F runs (sorted, disjoint).  ``data``
    carries D ticks with payloads (sorted by tick).  ``retransmit`` marks
    messages sent in response to curiosity; first-time and retransmitted
    messages propagate differently (paper section 3.1).
    """

    pubend: str
    fin_prefix: Tick = 0
    f_ranges: Tuple[TickRange, ...] = ()
    data: Tuple[DataTick, ...] = ()
    retransmit: bool = False

    def __post_init__(self) -> None:
        ticks = [d.tick for d in self.data]
        if ticks != sorted(ticks):
            raise ValueError("data ticks must be sorted")
        if any(t < self.fin_prefix for t in ticks):
            raise ValueError("data tick inside final prefix")

    @property
    def is_silence(self) -> bool:
        """True for pure silence messages (``F*Q*F*Q*``: no D ticks)."""
        return not self.data

    @property
    def data_ticks(self) -> List[Tick]:
        return [d.tick for d in self.data]

    def max_tick(self) -> Tick:
        """One past the newest tick mentioned by this message."""
        hi = self.fin_prefix
        for rng in self.f_ranges:
            hi = max(hi, rng.stop)
        if self.data:
            hi = max(hi, self.data[-1].tick + 1)
        return hi

    def merged_f_ranges(self) -> List[TickRange]:
        """All F ranges asserted by the message, final prefix included."""
        ranges = list(self.f_ranges)
        if self.fin_prefix > 0:
            ranges.append(TickRange(0, self.fin_prefix))
        return merge_ranges(ranges)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "kind": "knowledge",
            "pubend": self.pubend,
            "fin": self.fin_prefix,
            "f": _ranges_to_wire(self.f_ranges),
            "d": [d.to_wire() for d in self.data],
            "rtx": self.retransmit,
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "KnowledgeMessage":
        return cls(
            pubend=obj["pubend"],
            fin_prefix=obj["fin"],
            f_ranges=_ranges_from_wire(obj["f"]),
            data=tuple(DataTick.from_wire(d) for d in obj["d"]),
            retransmit=obj["rtx"],
        )


@dataclass(frozen=True, slots=True)
class AckMessage:
    """Upstream acknowledgement: ticks ``[0, up_to)`` are anti-curious."""

    pubend: str
    up_to: Tick

    def to_wire(self) -> Dict[str, Any]:
        return {"kind": "ack", "pubend": self.pubend, "up_to": self.up_to}

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "AckMessage":
        return cls(pubend=obj["pubend"], up_to=obj["up_to"])


@dataclass(frozen=True, slots=True)
class NackMessage:
    """Upstream curiosity: the listed tick ranges are needed urgently."""

    pubend: str
    ranges: Tuple[TickRange, ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValueError("nack must carry at least one range")

    def tick_count(self) -> int:
        """Total number of ticks nacked — the paper's *nack range* metric."""
        return sum(len(r) for r in self.ranges)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "kind": "nack",
            "pubend": self.pubend,
            "ranges": _ranges_to_wire(self.ranges),
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "NackMessage":
        return cls(pubend=obj["pubend"], ranges=_ranges_from_wire(obj["ranges"]))


@dataclass(frozen=True, slots=True)
class AckExpectedMessage:
    """Pubend-driven liveness probe: the pubend expects acks up to
    ``up_to``; receivers nack any Q ticks below it (paper section 3.2)."""

    pubend: str
    up_to: Tick

    def to_wire(self) -> Dict[str, Any]:
        return {"kind": "ack_expected", "pubend": self.pubend, "up_to": self.up_to}

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "AckExpectedMessage":
        return cls(pubend=obj["pubend"], up_to=obj["up_to"])


#: Union of all GD protocol message types.
GDMessage = (KnowledgeMessage, AckMessage, NackMessage, AckExpectedMessage)


_DECODERS = {
    "knowledge": KnowledgeMessage.from_wire,
    "ack": AckMessage.from_wire,
    "nack": NackMessage.from_wire,
    "ack_expected": AckExpectedMessage.from_wire,
}


def register_message_kind(kind: str, decoder: Any) -> None:
    """Extend the wire codec with an additional envelope payload kind
    (used by higher layers, e.g. subscription-summary control messages)."""
    _DECODERS[kind] = decoder


def encode_message(message: Any) -> Dict[str, Any]:
    """Encode any GD message to a JSON-compatible dict."""
    return message.to_wire()


def decode_message(obj: Dict[str, Any]) -> Any:
    """Decode a dict produced by :func:`encode_message`."""
    try:
        decoder = _DECODERS[obj["kind"]]
    except KeyError as exc:
        raise ValueError(f"unknown message kind: {obj.get('kind')!r}") from exc
    return decoder(obj)
