"""Measurement collection for experiments.

The paper's evaluation uses three kinds of metrics (section 4): end-to-end
message latency, number of nacks sent, and *nack range* (the cumulative
number of ticks nacked, in milliseconds).  This module collects all three
as time series keyed by the *send time* of the message — the X axis used
in every figure — plus generic reducers (median, mean, percentiles) for
the summary tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = [
    "Sample",
    "Series",
    "LatencyRecorder",
    "NackRecorder",
    "median",
    "percentile",
]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return percentile(values, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile of a non-empty sequence.

    The rank ``pct/100 * (n-1)`` is interpolated between its two
    neighbouring order statistics (numpy's default ``linear`` method),
    so ``pct=0`` is the minimum, ``pct=100`` the maximum, and a
    single-element sequence returns that element for any ``pct``.
    Raises ``ValueError`` on an empty sequence or ``pct`` outside
    ``[0, 100]``.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


@dataclass(frozen=True)
class Sample:
    """One measurement: X (usually message send time) and value."""

    t: float
    value: float


class Series:
    """An append-only series of samples with simple reducers."""

    def __init__(self, name: str):
        self.name = name
        self.samples: List[Sample] = []

    def add(self, t: float, value: float) -> None:
        self.samples.append(Sample(t, value))

    def values(self) -> List[float]:
        return [s.value for s in self.samples]

    def __len__(self) -> int:
        return len(self.samples)

    def median(self) -> float:
        return median(self.values())

    def max(self) -> float:
        return max(self.values())

    def between(self, t0: float, t1: float) -> "Series":
        """The sub-series with ``t0 <= t < t1``."""
        out = Series(self.name)
        out.samples = [s for s in self.samples if t0 <= s.t < t1]
        return out


class LatencyRecorder:
    """End-to-end delivery latency, per subscriber.

    ``record`` is called by subscriber clients with the message's original
    send (publish) time and the delivery time.
    """

    def __init__(self) -> None:
        self._series: Dict[str, Series] = {}
        self.delivered = 0

    def record(self, subscriber: str, send_time: float, recv_time: float) -> None:
        self.series(subscriber).add(send_time, recv_time - send_time)
        self.delivered += 1

    def series(self, subscriber: str) -> Series:
        series = self._series.get(subscriber)
        if series is None:
            series = self._series[subscriber] = Series(subscriber)
        return series


class NackRecorder:
    """Nack counts and nack ranges, per sending node.

    The *nack range* of one nack message is the number of ticks (ms) it
    requests; the paper plots the cumulative range per node, which is how
    it demonstrates consolidation (b2's cumulative range is about half of
    s1 + s2 combined in Figure 7).
    """

    def __init__(self) -> None:
        self._series: Dict[str, Series] = {}

    def record(self, node: str, t: float, tick_count: int) -> None:
        series = self._series.setdefault(node, Series(node))
        series.add(t, float(tick_count))

    def count(self, node: str) -> int:
        return len(self._series.get(node, Series(node)))

    def total_range(self, node: str) -> float:
        series = self._series.get(node)
        return sum(series.values()) if series else 0.0

    def series(self, node: str) -> Series:
        return self._series.setdefault(node, Series(node))

    def nodes(self) -> List[str]:
        return sorted(self._series)
