"""MetricsHub: the experiment-facing series recorders.

Owned by :class:`~repro.obs.observability.Observability`
(``system.obs.hub``, also reachable as ``system.metrics``).  Latency and
nack *series* (per-sample, keyed by send time) are what the paper's
figures plot, and they complement — not duplicate — the fixed-bucket
instruments, which are what production monitoring scrapes.

The nack series is filled from the lifecycle hub's ``nack_sent`` hook,
so it reads the same on the simulator and on the asyncio runtime.  The
latency series is written by
:class:`~repro.client.SubscriberClient`, the one place the send time is
read out of the payload.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..metrics.recorder import LatencyRecorder, NackRecorder
from .lifecycle import LifecycleListener

__all__ = ["MetricsHub"]


class MetricsHub(LifecycleListener):
    """The series recorders of one experiment."""

    def __init__(self) -> None:
        self.latency = LatencyRecorder()
        self.nacks = NackRecorder()

    def nack_sent(
        self, t: float, node: str, pubend: str, ranges: Sequence[Any], message: Any
    ) -> None:
        self.nacks.record(node, t, message.tick_count())
