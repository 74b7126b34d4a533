"""MetricsHub: the experiment-facing series recorders, as an obs peer.

Owned by :class:`~repro.obs.observability.Observability`
(``system.obs.hub``).  Latency and nack *series* (per-sample, keyed by
send time) are what the paper's figures plot, and they complement — not
duplicate — the fixed-bucket instruments, which are what production
monitoring scrapes.
"""

from __future__ import annotations

from typing import Dict

from ..metrics.recorder import LatencyRecorder, NackRecorder, Series

__all__ = ["MetricsHub"]


class MetricsHub:
    """All series recorders of one experiment, injected into brokers/clients."""

    def __init__(self) -> None:
        self.latency = LatencyRecorder()
        self.nacks = NackRecorder()
        self.counters: Dict[str, int] = {}
        self.custom: Dict[str, Series] = {}

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    def series(self, name: str) -> Series:
        return self.custom.setdefault(name, Series(name))
