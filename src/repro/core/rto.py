"""TCP-style retransmission timeout estimation for nack repetition.

The paper (section 3.1) estimates the nack repetition threshold (NRT) "in
a manner similar to how TCP estimates the retransmission timeout value
(RTO)", i.e. Jacobson/Karels smoothed RTT plus variance, with exponential
backoff "to handle pubends that are down", and a configured minimum
repetition interval.  The backoff is per run of curious ticks, so it
lives with the runs (:mod:`repro.core.subend`); one estimator per pubend
is shared by all of them.
"""

from __future__ import annotations

__all__ = ["RtoEstimator"]


class RtoEstimator:
    """Smoothed round-trip estimator.

    ``rto = srtt + 4 * rttvar`` clamped to ``[min_interval, max_interval]``.
    """

    #: Standard Jacobson/Karels gains.
    ALPHA = 0.125
    BETA = 0.25

    def __init__(
        self,
        min_interval: float,
        max_interval: float = 60.0,
        initial: "float | None" = None,
    ):
        if min_interval <= 0:
            raise ValueError("min_interval must be positive")
        if max_interval < min_interval:
            raise ValueError("max_interval must be >= min_interval")
        self.min_interval = min_interval
        self.max_interval = max_interval
        self._srtt: float = initial if initial is not None else min_interval
        self._rttvar: float = self._srtt / 2.0
        self.samples = 0

    def sample(self, rtt: float) -> None:
        """Record a measured response time."""
        if rtt < 0:
            raise ValueError("rtt must be non-negative")
        if self.samples == 0:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            err = rtt - self._srtt
            self._srtt += self.ALPHA * err
            self._rttvar += self.BETA * (abs(err) - self._rttvar)
        self.samples += 1

    def interval(self) -> float:
        """The current repetition interval.

        Before any round trip has been observed, the configured minimum
        (the system's NRT setting) is used directly; once samples exist,
        the Jacobson estimate ``srtt + 4 * rttvar`` takes over.
        """
        base = self._srtt + 4.0 * self._rttvar if self.samples else self._srtt
        return max(self.min_interval, min(base, self.max_interval))
