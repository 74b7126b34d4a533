"""Tick arithmetic for knowledge and curiosity streams.

Time in the Gryphon guaranteed-delivery model is discretized into *ticks*.
A tick is represented here as a plain ``int`` (we use integer milliseconds
of virtual time throughout the system, but nothing in this module assumes
a unit).  Streams are keyed by tick, and protocol messages carry ranges of
ticks, so this module provides a small half-open range type,
:class:`TickRange`, used everywhere ranges appear.

Half-open ranges ``[start, stop)`` are used because they compose without
off-by-one adjustments: adjacent ranges ``[a, b)`` and ``[b, c)`` cover
``[a, c)`` exactly.  The paper's prose speaks of inclusive timestamps
("all ticks [0, T]"); at API boundaries that accept an inclusive
timestamp we convert with ``TickRange(0, T + 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List

__all__ = [
    "Tick",
    "TickRange",
    "merge_ranges",
    "TICKS_PER_SECOND",
    "tick_of_time",
]

#: Tick granularity: ticks are integer milliseconds of (virtual) time.
TICKS_PER_SECOND = 1000


def tick_of_time(seconds: float) -> int:
    """The tick containing wall/simulated time ``seconds``."""
    return int(seconds * TICKS_PER_SECOND)


#: Type alias for a tick value.  Ticks are integers; the protocol only
#: requires that they be totally ordered and dense enough for each message
#: to receive a distinct tick.
Tick = int


@dataclass(frozen=True, order=True)
class TickRange:
    """A half-open, non-empty range of ticks ``[start, stop)``.

    Instances are immutable and ordered lexicographically by
    ``(start, stop)``, which sorts disjoint ranges by position.
    """

    start: Tick
    stop: Tick

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError(
                f"TickRange requires start < stop, got [{self.start}, {self.stop})"
            )

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, tick: Tick) -> bool:
        return self.start <= tick < self.stop

    def __iter__(self) -> Iterator[Tick]:
        return iter(range(self.start, self.stop))

    @classmethod
    def single(cls, tick: Tick) -> "TickRange":
        """The range covering exactly one tick."""
        return cls(tick, tick + 1)

    def touches(self, other: "TickRange") -> bool:
        """True when the ranges overlap or are exactly adjacent."""
        return self.start <= other.stop and other.start <= self.stop

    def union(self, other: "TickRange") -> "TickRange":
        """The covering range of two touching ranges.

        Raises :class:`ValueError` if the ranges neither overlap nor are
        adjacent (their union would not be a single range).
        """
        if not self.touches(other):
            raise ValueError(f"{self} and {other} are not contiguous")
        return TickRange(min(self.start, other.start), max(self.stop, other.stop))

    def split(self, max_len: int) -> List["TickRange"]:
        """Chop this range into pieces of at most ``max_len`` ticks.

        Used by subends to chop large nack ranges so that the loss of a
        single nack message has a small effect (paper section 4.2).
        """
        if max_len <= 0:
            raise ValueError("max_len must be positive")
        pieces = []
        start = self.start
        while start < self.stop:
            stop = min(start + max_len, self.stop)
            pieces.append(TickRange(start, stop))
            start = stop
        return pieces

    def __str__(self) -> str:
        return f"[{self.start},{self.stop})"


def merge_ranges(ranges: Iterable[TickRange]) -> List[TickRange]:
    """Normalize ranges: sorted, disjoint, with touching ranges coalesced."""
    ordered = sorted(ranges)
    merged: List[TickRange] = []
    for rng in ordered:
        if merged and merged[-1].touches(rng):
            merged[-1] = merged[-1].union(rng)
        else:
            merged.append(rng)
    return merged
