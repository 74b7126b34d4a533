"""Load generation, sampling and delivery checking shared by the workloads.

Everything here runs on the benchmark's side of the line: it produces
inputs from a seed, stamps when each publication was *due*, and judges
what came out.  The program under test only ever sees the generated
publications and subscriptions.
"""

from __future__ import annotations

import asyncio
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Seconds between the end of set-up and the first due publication.
LEAD_S = 0.05
#: Message body size of the paper's experiments.
BODY_BYTES = 250


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Open-loop generation
# ---------------------------------------------------------------------------


@dataclass
class GenStats:
    """What the generator observed about itself."""

    t0: float = 0.0
    attempted: int = 0
    failed_attempts: int = 0
    #: How late each publication left, seconds (``sent_at - due``).
    lag_s: List[float] = field(default_factory=list)
    #: Wall nanoseconds inside each ``publish_once`` call.
    call_ns: List[int] = field(default_factory=list)
    #: ``(publications so far, process CPU seconds)`` at window edges.
    cpu_marks: List[Tuple[int, float]] = field(default_factory=list)


async def open_loop(
    count: int,
    rate: float,
    publish: Callable[[int, float], bool],
    window_pubs: int,
    events: Optional[Dict[int, Callable[[], None]]] = None,
) -> GenStats:
    """Publish ``count`` messages on a fixed schedule: publication *i* is
    due at ``t0 + i / rate`` whatever the system does.  A late generator
    never skips: it publishes at once and the lateness shows in ``lag_s``
    and, because latency runs from ``due``, in every delayed message.

    ``publish(i, due)`` stamps and sends one message and says whether it
    was accepted.  ``events[i]`` runs just before publication *i* (fault
    injection and subscription churn ride on the same single task).
    """
    loop = asyncio.get_running_loop()
    stats = GenStats(t0=loop.time() + LEAD_S)
    clock = time.perf_counter_ns
    for i in range(count):
        if i % window_pubs == 0:
            stats.cpu_marks.append((i, time.process_time()))
        if events is not None and i in events:
            events[i]()
        due = stats.t0 + i / rate
        # Always yield once, even when late, so the brokers sharing this
        # loop get a turn between publications.
        await asyncio.sleep(max(0.0, due - loop.time()))
        stats.lag_s.append(loop.time() - due)
        started = clock()
        accepted = publish(i, due)
        stats.call_ns.append(clock() - started)
        stats.attempted += 1
        if not accepted:
            stats.failed_attempts += 1
    stats.cpu_marks.append((count, time.process_time()))
    return stats


async def wait_until(
    condition: Callable[[], bool], timeout: float, poll: float = 0.005
) -> bool:
    """Poll ``condition`` on the loop clock; False when ``timeout`` passed."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(poll)
    return True


# ---------------------------------------------------------------------------
# Windowed statistics
# ---------------------------------------------------------------------------


@dataclass
class Summary:
    """A metric value with the number of samples behind it, and — for a
    metric aggregated over windows — each window's value."""

    value: float
    n: int
    per_window: Optional[List[float]] = None


#: Share of a run's windows that a windowed metric reports the edge of.
CALM_SHARE = 0.10


def calm(values: Sequence[float], better: str = "lower") -> float:
    """The bound the calmest tenth of a run's windows stay within: the
    first decile of ``values`` (the last when higher is better), by
    nearest rank — it never leaves the range of the values.

    The aggregate over a run's windows.  This sandbox slows the process
    down from outside in three ways: its disk holds an fsync for 20-250 ms
    every few seconds, the host deschedules the process for 30-150 ms at
    a time (wall clock moves, process CPU does not), and for seconds to
    minutes at a stretch everything costs 10-40% more CPU (a busy
    neighbour on the sibling hardware thread).  All three can only make
    a window worse, so the calmest windows are the better estimate of
    what the program does — and a change that slows the program slows
    them too.  Over ten identical runs of tcp_durable the first decile
    over windows spread 4% (p50) and 6% (p99) where the first quartile
    spread 8% and 10% and the median 11% and 20% (README, "Why windows").
    """
    ordered = sorted(values, reverse=(better == "higher"))
    return ordered[int(CALM_SHARE * len(ordered))]


def cpu_us_per_pub(marks: Sequence[Tuple[int, float]]) -> Summary:
    """Process CPU per publication attempted in each window, then
    :func:`calm` over the windows."""
    per_window = [
        (cpu_b - cpu_a) / (pubs_b - pubs_a) * 1e6
        for (pubs_a, cpu_a), (pubs_b, cpu_b) in zip(marks, marks[1:])
        if pubs_b > pubs_a
    ]
    return Summary(calm(per_window), marks[-1][0] - marks[0][0], per_window)


def rate_per_s(counts: Sequence[int], seconds: Sequence[float]) -> Summary:
    """Work per wall second in each window, then :func:`calm` (higher is
    better) over the windows."""
    per_window = [count / s for count, s in zip(counts, seconds) if s > 0]
    return Summary(calm(per_window, "higher"), sum(counts), per_window)


def split_windows(
    samples: Iterable[Tuple[float, float]], t0: float, window_s: float, n_windows: int
) -> List[List[float]]:
    """Group ``(due, latency_ms)`` samples by the window their due time
    falls in; samples due outside the ``n_windows`` windows are dropped."""
    windows: List[List[float]] = [[] for _ in range(n_windows)]
    for due, latency_ms in samples:
        index = int((due - t0) / window_s)
        if 0 <= index < n_windows:
            windows[index].append(latency_ms)
    return windows


def latency_metrics(windows: Sequence[List[float]]) -> Dict[str, Summary]:
    """``latency_p50_ms`` / ``latency_p99_ms``: each window's percentile,
    then :func:`calm` over the windows; plus pooled figures for the
    report."""
    filled = [sorted(w) for w in windows if w]
    pooled = sorted(x for w in filled for x in w)
    n = len(pooled)
    p50 = [percentile(w, 0.50) for w in filled]
    p99 = [percentile(w, 0.99) for w in filled]
    return {
        "latency_p50_ms": Summary(calm(p50), n, p50),
        "latency_p99_ms": Summary(calm(p99), n, p99),
        "pooled_p99_ms": Summary(percentile(pooled, 0.99), n),
        "pooled_max_ms": Summary(pooled[-1], n),
    }


def peak_rss_mb() -> Summary:
    """This process's peak resident set so far (``ru_maxrss`` is in
    kilobytes on Linux)."""
    return Summary(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def gen_metrics(stats: Optional[GenStats]) -> Dict[str, float]:
    """How the generator itself fared (zeros where there is none: the
    burst loop and the simulator have no paced generator)."""
    if stats is None:
        return {"gen.lag_ms_p99": 0.0, "gen.lag_ms_max": 0.0, "gen.publish_call_us_p50": 0.0}
    lag_ms = sorted(x * 1000.0 for x in stats.lag_s)
    calls = sorted(stats.call_ns)
    return {
        "gen.lag_ms_p99": percentile(lag_ms, 0.99),
        "gen.lag_ms_max": lag_ms[-1],
        "gen.publish_call_us_p50": percentile(calls, 0.50) / 1000.0,
    }


# ---------------------------------------------------------------------------
# Delivery checking
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    """Failures counted against attempts, per the benchmark's definition:
    attempted = expected deliveries; failed = expected deliveries of
    refused publications + undelivered + duplicates + out-of-order +
    unexpected."""

    attempted: int = 0
    refused: int = 0
    missing: int = 0
    duplicates: int = 0
    out_of_order: int = 0
    unexpected: int = 0
    #: Human-readable notes on what went wrong (first few only).
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return (
            self.refused
            + self.missing
            + self.duplicates
            + self.out_of_order
            + self.unexpected
        )

    def note(self, text: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(text)


def check_sequence(
    subscriber: str, received: Sequence[Tuple[str, int, Any, float]], verdict: Verdict
) -> Set[Tuple[str, int]]:
    """No duplicate and strictly increasing ticks per pubend, from the
    client's own delivery record.  Returns the delivered key set."""
    seen: Set[Tuple[str, int]] = set()
    last: Dict[str, int] = {}
    for pubend, tick, __, ___ in received:
        key = (pubend, tick)
        if key in seen:
            verdict.duplicates += 1
            verdict.note(f"{subscriber}: {key} delivered twice")
            continue
        seen.add(key)
        if tick <= last.get(pubend, -1):
            verdict.out_of_order += 1
            verdict.note(f"{subscriber}: {key} after tick {last[pubend]}")
        else:
            last[pubend] = tick
    return seen


def check_exact(
    subscriber: str,
    received: Sequence[Tuple[str, int, Any, float]],
    expected: Set[Tuple[str, int]],
    verdict: Verdict,
) -> None:
    """The subscriber got exactly ``expected``: once each, in order."""
    delivered = check_sequence(subscriber, received, verdict)
    missing = expected - delivered
    unexpected = delivered - expected
    verdict.attempted += len(expected)
    verdict.missing += len(missing)
    verdict.unexpected += len(unexpected)
    if missing:
        verdict.note(f"{subscriber}: {len(missing)} undelivered, e.g. {min(missing)}")
    if unexpected:
        verdict.note(f"{subscriber}: {len(unexpected)} unexpected, e.g. {min(unexpected)}")


def check_with_repo_checker(
    publishers: Sequence[Any], clients: Dict[str, Any], subscriptions: Dict[str, Any],
    verdict: Verdict,
) -> None:
    """Second opinion from the repository's own offline oracle.  It and
    :func:`check_exact` must agree; a disagreement is itself a failure."""
    from repro.client import DeliveryChecker

    checker = DeliveryChecker(publishers)
    for subscriber, client in clients.items():
        report = checker.check(client, subscriptions[subscriber])
        if not report.exactly_once:
            verdict.note(
                f"DeliveryChecker {subscriber}: {len(report.missing)} missing, "
                f"{len(report.unexpected)} unexpected"
            )
            if verdict.failed == 0:
                verdict.unexpected += len(report.unexpected)
                verdict.missing += len(report.missing)


def broker_failures(system: Any, verdict: Verdict) -> None:
    """An exception inside a broker's inbox task (a client raising
    DuplicateDelivery/OrderViolation online) stops that broker; surface
    it even if the delivery sets happen to look complete."""
    for broker_id, broker in sorted(system.brokers.items()):
        failure = getattr(broker, "failure", None)
        if failure is not None:
            verdict.unexpected += 1
            verdict.note(f"{broker_id} failed online: {failure!r}")
