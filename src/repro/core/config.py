"""Protocol tuning parameters.

Section 3.2 of the paper describes two liveness approaches and the knobs
that select a mixture of them:

* **Subend-driven liveness**: *gap curiosity threshold* (GCT) — how long a
  gap of Q ticks may persist before the subend nacks it; *nack repetition
  threshold* (NRT) — how often unsatisfied nacks are repeated (estimated
  TCP-RTO-style from previous nack round trips, bounded below by a
  configured minimum); *delay curiosity threshold* (DCT) — how far the
  doubt horizon may trail real time before the subend nacks proactively.
* **Pubend-driven liveness**: *ack expected threshold* (AET) — how old an
  unacknowledged tick may be before the pubend probes with AckExpected.

The paper's fault-injection experiments run with ``GCT=200ms, NRT=600ms,
AET=10s, DCT=infinity`` — a mixture dominated by subend-driven liveness —
which is the default here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["LivenessParams", "INFINITY", "PAPER_FAULT_PARAMS"]

#: Convenience alias for disabling a threshold (e.g. ``dct=INFINITY``).
INFINITY = math.inf


@dataclass(frozen=True)
class LivenessParams:
    """Liveness and housekeeping intervals, in seconds (ticks are ms)."""

    #: Gap curiosity threshold: Q-gap age before the subend nacks it.
    gct: float = 0.2
    #: Minimum nack repetition interval; also the curiosity-forgetting
    #: sweep period at brokers (the "fresh nack" rule).
    nrt_min: float = 0.6
    #: Upper bound for the estimated nack repetition interval.
    nrt_max: float = 30.0
    #: Delay curiosity threshold; ``INFINITY`` disables it (paper default).
    dct: float = INFINITY
    #: Ack expected threshold for pubend-driven liveness.
    aet: float = 10.0
    #: How often the pubend checks for overdue acks.
    aet_check_interval: float = 1.0
    #: Maximum ticks (ms) per nack message: large ranges are chopped so a
    #: lost nack has a small effect (paper section 4.2).
    nack_chop: int = 500
    #: Idle time before a pubend finalizes a silent range.
    silence_interval: float = 0.5
    #: Whether first-time silence is broadcast downstream (True keeps
    #: total-order merges and idle streams advancing; False is the paper's
    #: stricter "send silence only to curious paths" rule).
    silence_broadcast: bool = True
    #: Period of broker link-status exchange within and between cells.
    link_status_interval: float = 0.5
    #: How often subends evaluate DCT and other time-based checks.
    subend_check_interval: float = 0.1
    #: Subscription propagation: subscriber-hosting brokers advertise the
    #: union of their subscriptions upstream, and edge filters prune
    #: traffic against those summaries.  Off by default — the paper's
    #: experiments configure static edge filters.
    subscription_propagation: bool = False
    #: Ablation switch: when False, brokers forward every incoming nack
    #: upstream verbatim instead of suppressing ranges already curious in
    #: the istream — disables the paper's nack-consolidation rule.
    nack_consolidation: bool = True
    #: Knowledge flush delay (seconds).  0 forwards knowledge immediately
    #: per ingested message (the historical behaviour); > 0 batches: a
    #: broker marks the (pubend, neighbor) ostream dirty and flushes one
    #: coalesced KnowledgeMessage per ostream after this delay, trading a
    #: bounded amount of propagation latency for far fewer messages (the
    #: Gryphon information-flow batching optimization).  Retransmissions
    #: answering curiosity are never delayed.
    flush_delay: float = 0.0

    def with_(self, **overrides: object) -> "LivenessParams":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


#: The configuration used throughout the paper's failure-injection tests.
PAPER_FAULT_PARAMS = LivenessParams(gct=0.2, nrt_min=0.6, aet=10.0, dct=INFINITY)
