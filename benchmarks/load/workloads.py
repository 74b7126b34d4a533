"""The six named workloads.

Every aio workload follows one load model: one process, one event loop,
one generator task (see :func:`harness.open_loop`), the three-broker
chain ``b0`` (PHB) – ``b1`` – ``b2`` (SHB) of
``repro.aio.chaos.chain_topology(link_latency=0.0)`` with
``FAST_PARAMS``, and a 250-byte body unless stated.  The seed drives the
attribute generators, subscription populations, transport RNGs, body
sizes and fault times; the program only ever sees the generated inputs.

``window_s`` sizes the measured window.  Shape parameters — rates, burst
size, subscriber count, drop rate, outage length — never scale with it.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.aio.chaos import FAST_PARAMS, chain_topology
from repro.aio.runtime import AioSystem
from repro.aio.transport import LocalTransport, TcpTransport
from repro.faults import FaultInjector
from repro.matching.engine import IndexedMatcher
from repro.topology import Topology
from repro.workloads import SubscriptionSpec, market_ticks, subscription_population

from . import ledger
from .harness import (
    BODY_BYTES,
    LEAD_S,
    GenStats,
    Summary,
    Verdict,
    broker_failures,
    check_exact,
    check_sequence,
    check_with_repo_checker,
    cpu_us_per_pub,
    gen_metrics,
    latency_metrics,
    open_loop,
    peak_rss_mb,
    percentile,
    rate_per_s,
    split_windows,
    wait_until,
)
from .trace import Recorder

#: Publications per window of the paced workloads.  Short windows, many
#: of them (45-75 in a run): this sandbox's disk and scheduler stall the
#: process for 20-250 ms every few seconds, a stall spoils the window it
#: falls in, and the first decile over windows (see harness.calm) needs
#: a tenth of them unspoilt.  With 250 a window, tcp_durable's p99 spread
#: 18% over ten identical runs; with 100, 8% (README, "Why windows").
WINDOW_PUBS = 100
#: A message that is not delivered this long after the generator stopped
#: counts as failed, not as a latency sample.
DRAIN_TIMEOUT_S = 60.0
#: Set-up is repeated (its median is reported) until it has been done
#: SETUP_REPEATS_MAX times or, after SETUP_REPEATS_MIN times, for
#: SETUP_BUDGET_S seconds.  Sub-millisecond set-ups need hundreds of
#: repeats for a steady median (30 repeats: medians 290-360 us across
#: processes; 300 repeats: 286-329 us); one that takes a second gets three.
SETUP_REPEATS_MIN = 3
SETUP_REPEATS_MAX = 300
SETUP_BUDGET_S = 1.0


@dataclass
class Context:
    """What one run of one workload is given."""

    seed: int
    #: Length of the measured window, seconds.
    window_s: float
    #: Scratch directory inside the checkout (FileLog data lives here).
    work_dir: str
    #: Span recorder and probe, already installed; None when untraced.
    rec: Optional[Recorder] = None
    probe: Optional[ledger.Probe] = None
    #: Whether steady_local climbs its rate ladder after the main step.
    ladder: bool = False
    #: Test-only fault: "drop-delivery" hides one delivery from a
    #: subscriber's record; "short-timeout" makes drains give up at once.
    inject: str = ""
    #: Filled by a traced window: its publications, its process CPU and
    #: the part of that CPU inside layer spans (the ledger's own check).
    accounting: Dict[str, float] = field(default_factory=dict)

    @property
    def traced(self) -> bool:
        return self.rec is not None

    def timeout(self, seconds: float) -> float:
        """``seconds``, or no time at all under the short-timeout test."""
        return 0.0 if self.inject == "short-timeout" else seconds


@dataclass
class Result:
    #: End-to-end metrics of this run (untraced pass reports them).
    metrics: Dict[str, Summary] = field(default_factory=dict)
    verdict: Verdict = field(default_factory=Verdict)
    #: Per-layer metrics (traced pass only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Windows and shape actually used, for the report.
    shape: Dict[str, Any] = field(default_factory=dict)
    #: Counts that repeat exactly for a seed (sim_chain).
    counts: Dict[str, int] = field(default_factory=dict)


class Stamp:
    """Attribute factory handed to ``AioPublisher``: stamps the due time
    the generator set and a body of the chosen size."""

    def __init__(self, extra: Optional[Callable[[int], Dict[str, Any]]] = None) -> None:
        self.due = 0.0
        self.body = "x" * BODY_BYTES
        self.extra = extra

    def __call__(self, seq: int) -> Dict[str, Any]:
        attributes = self.extra(seq) if self.extra is not None else {}
        attributes["due"] = self.due
        attributes["body"] = self.body
        return attributes


# ---------------------------------------------------------------------------
# Pieces shared by the aio workloads
# ---------------------------------------------------------------------------


def more_setups(done: int, elapsed_s: float) -> bool:
    """Whether to set up once more (see SETUP_REPEATS_MIN above)."""
    return done < SETUP_REPEATS_MAX and (
        done < SETUP_REPEATS_MIN or elapsed_s < SETUP_BUDGET_S
    )


def setup_summary(times: Sequence[float]) -> Summary:
    """``setup_s``: the median set-up time plus the generator's fixed
    lead, i.e. from starting to build until the first publication is due.

    The lead is what makes a relative bound usable: four workloads set up
    in 0.3-0.4 ms, a figure that moves 30-60% between processes, and the
    issue's bound for it was "25% or 50 ms, whichever is larger".  With
    the 50 ms lead inside the metric, a 25% bound means at least 12.5 ms
    of added set-up work everywhere.  (The simulator has no lead; the
    same constant is added so the bound means the same on it.)
    """
    return Summary(LEAD_S + statistics.median(times), len(times))


async def repeated_setup(
    build: Callable[[], Awaitable[Any]], discard: Callable[[Any], Awaitable[None]]
) -> Tuple[Any, Summary]:
    """Build the system several times, timing each; keep the last.
    A build is construct + ``start()`` + every subscribe (+ whatever
    ``build`` waits for)."""
    times: List[float] = []
    began = time.perf_counter()
    while True:
        started = time.perf_counter()
        built = await build()
        times.append(time.perf_counter() - started)
        if not more_setups(len(times), time.perf_counter() - began):
            return built, setup_summary(times)
        await discard(built)


def local_chain(ctx: Context):
    """``build`` for the in-process chain with one match-all subscriber
    at b2: LocalTransport, MemoryLog."""

    async def build() -> Tuple[AioSystem, Any]:
        system = AioSystem(
            chain_topology(link_latency=0.0),
            params=FAST_PARAMS,
            transport=LocalTransport(seed=ctx.seed),
        )
        await system.start()
        client = system.subscribe("sub0", "b2", ("P0",))
        return system, client

    return build


async def shutdown_built(built: Tuple[AioSystem, Any]) -> None:
    await built[0].shutdown()


def stamped_publisher(
    system: AioSystem, extra: Optional[Callable[[int], Dict[str, Any]]] = None
) -> Tuple[Any, Callable[[int, float], bool]]:
    """A P0 publisher the generator drives itself (never ``start()``ed)
    and the ``publish(i, due)`` callable for :func:`open_loop`."""
    stamp = Stamp(extra)
    publisher = system.publisher("P0", rate=1.0, make_attributes=stamp)

    def publish(i: int, due: float) -> bool:
        stamp.due = due
        return publisher.publish_once() is not None

    return publisher, publish


async def abandon(system: AioSystem) -> None:
    """Tear down without draining: a system left overloaded by a failed
    ladder step would take minutes to shut down gracefully."""
    for broker in system.brokers.values():
        broker.crash()
    await system.transport.close()


def latency_samples(clients: Sequence[Any]) -> List[Tuple[float, float]]:
    """``(due, received_at - due in ms)`` of every delivery, both on the
    loop clock."""
    return [
        (event.get_attr("due"), (received_at - event.get_attr("due")) * 1000.0)
        for client in clients
        for __, ___, event, received_at in client.received
    ]


def expected_all(publishers: Sequence[Any]) -> Set[Tuple[str, int]]:
    return {(p.pubend, tick) for p in publishers for __, tick, ___ in p.published}


def drop_one_delivery(client: Any) -> None:
    """Harness self-test: hide the first delivery from the client's
    record, as a lost message would look."""
    original = client.on_delivery
    seen = [0]

    def filtered(pubend: str, tick: int, payload: Any, at: float) -> None:
        seen[0] += 1
        if seen[0] != 1:
            original(pubend, tick, payload, at)

    client.on_delivery = filtered


class Window:
    """Brackets the measured window: process CPU, and on a traced pass
    the recorder totals and the program's counters at both edges."""

    def __init__(self, ctx: Context, system: Any, data_dir: Optional[str] = None):
        self.ctx = ctx
        self.system = system
        self.data_dir = data_dir
        self.cpu0 = self.wall0 = 0.0
        self.spans0 = None
        self.counters0: Dict[str, float] = {}

    def open(self) -> None:
        ctx = self.ctx
        if ctx.traced:
            self.counters0 = ledger.read_counters(self.system, self.data_dir)
            self.spans0 = ctx.rec.snapshot()
            if isinstance(self.system, AioSystem):
                ctx.probe.start_samplers(self.system)
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()

    async def aclose(self, pubs: int, gen: Optional[GenStats]) -> Dict[str, float]:
        """:meth:`close` for the aio workloads, which run samplers."""
        if self.ctx.traced:
            await self.ctx.probe.stop_samplers()
        return self.close(pubs, gen)

    def close(self, pubs: int, gen: Optional[GenStats]) -> Dict[str, float]:
        """End the window; on a traced pass return the per-layer ledger."""
        cpu_s = time.process_time() - self.cpu0
        wall_s = time.perf_counter() - self.wall0
        ctx = self.ctx
        if not ctx.traced:
            return {}
        spans = ctx.rec.snapshot() - self.spans0
        ctx.probe.sample_streams(self.system)
        counters1 = ledger.read_counters(self.system, self.data_dir)
        counters = {k: counters1[k] - self.counters0[k] for k in counters1}
        layers = ledger.per_layer(spans, counters, ctx.probe, pubs, wall_s, cpu_s)
        ctx.accounting.update(
            pubs=pubs,
            cpu_us=cpu_s * 1e6,
            layer_cpu_us=spans.self_us() - spans.blocked_us(),
        )
        layers.update(ledger.time_export(self.system))
        layers.update(gen_metrics(gen))
        return layers


def verify_single(
    result: Result, system: Any, client: Any, publishers: Sequence[Any], refused: int
) -> None:
    """The one match-all subscriber ``sub0`` got every publication exactly
    once, by both checkers, and no broker failed on the way."""
    result.verdict.refused = refused
    check_exact("sub0", client.received, expected_all(publishers), result.verdict)
    check_with_repo_checker(
        publishers, {"sub0": client}, system.subscriptions, result.verdict
    )
    broker_failures(system, result.verdict)


def paced_metrics(
    result: Result,
    gen: GenStats,
    clients: Sequence[Any],
    window_s: float,
    n_windows: int,
) -> None:
    """End-to-end metrics every paced aio workload reports the same way."""
    samples = latency_samples(clients)
    result.metrics.update(
        latency_metrics(split_windows(samples, gen.t0, window_s, n_windows))
    )
    result.metrics["cpu_us_per_pub"] = cpu_us_per_pub(gen.cpu_marks[: n_windows + 1])
    deliveries = sum(len(c.received) for c in clients)
    last_delivery = max(c.received[-1][3] for c in clients if c.received)
    result.metrics["delivered_per_s"] = Summary(
        deliveries / (last_delivery - gen.t0), deliveries
    )


# ---------------------------------------------------------------------------
# steady_local
# ---------------------------------------------------------------------------

#: The measured step.  Not 1000 msg/s: there the chain runs at ~60% of
#: one core and is metastable — one stall leaves a backlog, per-message
#: cost grows with the backlog, and the step never recovers (README,
#: "Findings that sized the loads").
STEADY_RATE = 500
LADDER = (500, 1000, 1500, 2000, 3000, 4000, 6000, 8000)
LADDER_STEP_S = 1.0
LADDER_P99_LIMIT_MS = 50.0
LADDER_SETTLE_S = 1.0


async def steady_local(ctx: Context) -> Result:
    """Paced at 500 msg/s through LocalTransport + MemoryLog to one
    match-all subscriber, then a short rate ladder for ``max_rate_ok``."""
    result = Result()
    build = local_chain(ctx)
    (system, client), result.metrics["setup_s"] = await repeated_setup(
        build, shutdown_built
    )
    if ctx.inject == "drop-delivery":
        drop_one_delivery(client)
    publisher, publish = stamped_publisher(system)

    window_s = WINDOW_PUBS / STEADY_RATE
    n_windows = max(1, int(ctx.window_s / window_s))
    window = Window(ctx, system)
    window.open()
    gen = await open_loop(
        WINDOW_PUBS * n_windows, STEADY_RATE, publish, window_pubs=WINDOW_PUBS
    )
    settled = await wait_until(
        lambda: len(client.received) >= len(publisher.published), LADDER_SETTLE_S
    )
    if not settled:
        await wait_until(
            lambda: len(client.received) >= len(publisher.published),
            ctx.timeout(DRAIN_TIMEOUT_S),
        )
    result.layers = await window.aclose(gen.attempted, gen)
    paced_metrics(result, gen, [client], window_s, n_windows)
    verify_single(result, system, client, [publisher], gen.failed_attempts)
    await system.shutdown()
    result.shape = {"rate": STEADY_RATE, "window_s": window_s, "windows": n_windows}
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    if not ctx.ladder:
        return result

    # Rate ladder, each further step on a fresh system so that a step the
    # system cannot sustain is abandoned instead of drained for minutes.
    main_ok = settled and result.metrics["latency_p99_ms"].value <= LADDER_P99_LIMIT_MS
    passed = {STEADY_RATE: main_ok}
    rates = [r for r in LADDER if r > STEADY_RATE] if main_ok else [LADDER[0]]
    for rate in rates:
        system, client = await build()
        publisher, publish = stamped_publisher(system)
        gen = await open_loop(int(rate * LADDER_STEP_S), rate, publish, window_pubs=rate)
        settled = await wait_until(
            lambda: len(client.received) >= len(publisher.published), LADDER_SETTLE_S
        )
        latencies = sorted(ms for __, ms in latency_samples([client]))
        ok = bool(
            settled and latencies and percentile(latencies, 0.99) <= LADDER_P99_LIMIT_MS
        )
        passed[rate] = ok
        broker_failures(system, result.verdict)
        if ok:
            check_exact(
                f"ladder{rate}", client.received, expected_all([publisher]), result.verdict
            )
            await system.shutdown()
        else:
            # Overload is what the ladder looks for, not a delivery
            # failure: check only what was delivered.
            check_sequence(f"ladder{rate}", client.received, result.verdict)
            await abandon(system)
            break
    ok_rates = [rate for rate, ok in passed.items() if ok]
    result.metrics["max_rate_ok"] = Summary(float(max(ok_rates, default=0)), len(passed))
    result.shape["ladder"] = {str(rate): ok for rate, ok in sorted(passed.items())}
    result.shape["ladder_step_s"] = LADDER_STEP_S
    return result


# ---------------------------------------------------------------------------
# backlog_drain
# ---------------------------------------------------------------------------

BURST = 1000
#: One burst per this many seconds of window: fixed work, because cost
#: depends on the backlog, not on the clock.  Ten rounds at --seconds 15.
#: Most rounds cost 2.0-2.4 ms per publication; one in ten costs 2.7-3.4,
#: when publishing falls behind the millisecond tick clock early in the
#: burst (ticks stop being consecutive, D runs stop coalescing, every
#: later scan gets longer).  A round is this workload's window: its
#: metrics are harness.calm over rounds, like the paced workloads'.
SECONDS_PER_ROUND = 1.5
BURST_QUIESCE_TIMEOUT_S = 2.0


async def backlog_drain(ctx: Context) -> Result:
    """Closed loop on bursts: publish 1000 back to back without yielding,
    wait until all are delivered, repeat."""
    result = Result()
    (system, client), result.metrics["setup_s"] = await repeated_setup(
        local_chain(ctx), shutdown_built
    )
    if ctx.inject == "drop-delivery":
        drop_one_delivery(client)
    stamp = Stamp()
    publisher = system.publisher("P0", rate=1.0, make_attributes=stamp)
    loop = asyncio.get_running_loop()
    phb = system.brokers["b0"].engine
    rounds = max(2, round(ctx.window_s / SECONDS_PER_ROUND))
    window = Window(ctx, system)
    window.open()
    cpu_marks = [(0, time.process_time())]
    starts: List[float] = []
    drains_ms: List[float] = []
    refused = 0
    for round_index in range(rounds):
        stamp.due = started = loop.time()
        starts.append(started)
        burst_span = (
            ctx.rec.span("harness:burst", ("burst", round_index))
            if ctx.traced
            else contextlib.nullcontext()
        )
        with burst_span:
            for __ in range(BURST):
                if publisher.publish_once() is None:
                    refused += 1
        target = len(publisher.published)
        drained = await wait_until(
            lambda: len(client.received) >= target, ctx.timeout(DRAIN_TIMEOUT_S), poll=0.002
        )
        cpu_marks.append((publisher.seq, time.process_time()))
        if not drained:
            break
        drains_ms.append((client.received[-1][3] - started) * 1000.0)
        # Let the acks reach the PHB before the next burst: whether they
        # had or not made the same round cost 4.4 or 8.9 ms/publication.
        last_tick = publisher.published[-1][1]
        await wait_until(
            lambda: phb.stream_state()["P0"]["pubend"]["acked_up_to"] > last_tick,
            BURST_QUIESCE_TIMEOUT_S,
            poll=0.002,
        )
    result.layers = await window.aclose(publisher.seq, None)

    per_round: List[List[float]] = [[] for __ in starts]
    for due, latency_ms in latency_samples([client]):
        per_round[starts.index(due)].append(latency_ms)
    if client.received:
        result.metrics.update(latency_metrics(per_round))
    if drains_ms:
        result.metrics["delivered_per_s"] = rate_per_s(
            [BURST] * len(drains_ms), [ms / 1000.0 for ms in drains_ms]
        )
        result.metrics["burst_drain_p50_ms"] = Summary(
            statistics.median(drains_ms), len(drains_ms)
        )
    result.metrics["cpu_us_per_pub"] = cpu_us_per_pub(cpu_marks)
    verify_single(result, system, client, [publisher], refused)
    if result.verdict.missing:
        await abandon(system)
    else:
        await system.shutdown()
    result.shape = {"burst": BURST, "rounds": rounds}
    return result


# ---------------------------------------------------------------------------
# tcp_durable
# ---------------------------------------------------------------------------

TCP_RATE_PER_PUBLISHER = 150
TCP_BODY_SIZES = (64, 250, 2048)
TCP_LINKS_UP_TIMEOUT_S = 5.0


def tcp_body_sizes(seed: int, count: int) -> List[int]:
    """The body size of each publication, drawn from the seed."""
    rng = random.Random(seed)
    return [rng.choice(TCP_BODY_SIZES) for __ in range(count)]


async def tcp_durable(ctx: Context) -> Result:
    """What ``repro serve --data-dir`` builds: TcpTransport defaults over
    the host loopback, FileLog with fsync under the checkout's scratch
    directory; P0 and P1 at 150 msg/s each, bodies of 64/250/2048 B."""
    result = Result()
    data_dirs: List[str] = []

    async def build() -> Tuple[AioSystem, Any]:
        data_dir = os.path.join(ctx.work_dir, f"tcp_durable-{len(data_dirs)}")
        data_dirs.append(data_dir)
        transport = TcpTransport(seed=ctx.seed)
        system = AioSystem(
            chain_topology(link_latency=0.0),
            params=FAST_PARAMS,
            transport=transport,
            data_dir=data_dir,
        )
        await system.start()
        client = system.subscribe("sub0", "b2", ("P0", "P1"))
        # Connections are made on first use; link-status traffic opens
        # all four directed links.  Set-up ends when every one is up.
        await wait_until(
            lambda: len(transport._conns) == 4
            and all(conn.up for conn in transport._conns.values()),
            TCP_LINKS_UP_TIMEOUT_S,
            poll=0.002,
        )
        return system, client

    (system, client), result.metrics["setup_s"] = await repeated_setup(
        build, shutdown_built
    )
    if ctx.inject == "drop-delivery":
        drop_one_delivery(client)
    stamp = Stamp()
    publishers = [
        system.publisher(pubend, rate=1.0, make_attributes=stamp)
        for pubend in ("P0", "P1")
    ]
    rate = 2 * TCP_RATE_PER_PUBLISHER
    window_pubs = WINDOW_PUBS
    n_windows = max(1, int(ctx.window_s * rate / window_pubs))
    bodies = {size: "x" * size for size in TCP_BODY_SIZES}
    sizes = tcp_body_sizes(ctx.seed, n_windows * window_pubs)

    def publish(i: int, due: float) -> bool:
        stamp.due = due
        stamp.body = bodies[sizes[i]]
        return publishers[i % 2].publish_once() is not None

    window = Window(ctx, system, data_dirs[-1])
    window.open()
    gen = await open_loop(n_windows * window_pubs, rate, publish, window_pubs=window_pubs)
    await wait_until(
        lambda: len(client.received) >= sum(len(p.published) for p in publishers),
        ctx.timeout(DRAIN_TIMEOUT_S),
    )
    result.layers = await window.aclose(gen.attempted, gen)
    paced_metrics(result, gen, [client], window_pubs / rate, n_windows)
    verify_single(result, system, client, publishers, gen.failed_attempts)
    await system.shutdown()
    for data_dir in data_dirs:
        shutil.rmtree(data_dir, ignore_errors=True)
    result.shape = {
        "rate": rate,
        "window_s": window_pubs / rate,
        "windows": n_windows,
        "body_sizes": list(TCP_BODY_SIZES),
    }
    return result


# ---------------------------------------------------------------------------
# fanout_churn
# ---------------------------------------------------------------------------

FANOUT_SUBSCRIBERS = 2000
FANOUT_CHURN_POOL = 200
FANOUT_SYMBOLS = [f"S{i:03d}" for i in range(100)]
FANOUT_RATE = 200
#: ~14 deliveries a publication: 50 publications (0.25 s) give a
#: window's p99 over 700 samples.
FANOUT_WINDOW_PUBS = 50
#: One churn operation every 50 ms = every 10 publications at 200 msg/s.
FANOUT_PUBS_PER_CHURN = 10
#: The tick feed and the starting population are the same for every
#: ``--seed``: over 2000 messages the feed's Zipf symbol sampling alone
#: moved matches per message by 5% between seeds and the population by
#: another 3%, and deliveries per second, CPU and latency all scale with
#: matches per message (``delivered_per_s`` spread 8-10% over ten seeds
#: from this alone).  The seed draws the churn schedule and the
#: subscriptions that churn brings in.
FANOUT_FEED_SEED = 0
FANOUT_POPULATION_SEED = 0


def churn_schedule(seed: int, n_pubs: int) -> List[Tuple[int, int, SubscriptionSpec]]:
    """``(publication index, pool slot to replace, new subscription)``:
    before that publication, the subscriber in that slot of the churn
    pool is removed and the new one subscribed in its place."""
    rng = random.Random(seed + 2)
    ops = n_pubs // FANOUT_PUBS_PER_CHURN
    fresh = subscription_population(ops, FANOUT_SYMBOLS, seed=seed + 3)
    return [
        (
            k * FANOUT_PUBS_PER_CHURN + FANOUT_PUBS_PER_CHURN // 2,
            rng.randrange(FANOUT_CHURN_POOL),
            SubscriptionSpec(f"churn{k}", fresh[k].predicate),
        )
        for k in range(ops)
    ]


async def fanout_churn(ctx: Context) -> Result:
    """2000 content subscriptions at b2, a market-tick feed at 200 msg/s,
    and one subscription replaced every 50 ms."""
    result = Result()
    population = subscription_population(
        FANOUT_SUBSCRIBERS, FANOUT_SYMBOLS, seed=FANOUT_POPULATION_SEED
    )
    stable = population[: FANOUT_SUBSCRIBERS - FANOUT_CHURN_POOL]

    async def build() -> Tuple[AioSystem, Dict[str, Any]]:
        system = AioSystem(
            chain_topology(link_latency=0.0),
            params=FAST_PARAMS,
            transport=LocalTransport(seed=ctx.seed),
        )
        await system.start()
        clients = {
            spec.sub_id: system.subscribe(spec.sub_id, "b2", ("P0",), spec.predicate)
            for spec in population
        }
        return system, clients

    (system, clients), result.metrics["setup_s"] = await repeated_setup(
        build, shutdown_built
    )
    if ctx.inject == "drop-delivery":
        for spec in stable[:50]:  # enough that one of them surely gets a message
            drop_one_delivery(clients[spec.sub_id])
    window_s = FANOUT_WINDOW_PUBS / FANOUT_RATE
    n_windows = max(1, int(ctx.window_s / window_s))
    n_pubs = FANOUT_WINDOW_PUBS * n_windows
    publisher, publish = stamped_publisher(
        system, market_ticks(FANOUT_SYMBOLS, seed=FANOUT_FEED_SEED)
    )
    engine = system.brokers["b2"].engine
    pool = [spec.sub_id for spec in population[len(stable):]]
    churned: Dict[str, SubscriptionSpec] = {
        spec.sub_id: spec for spec in population[len(stable):]
    }

    def churn(slot: int, spec: SubscriptionSpec) -> Callable[[], None]:
        def apply() -> None:
            engine.remove_subscription(pool[slot])
            pool[slot] = spec.sub_id
            churned[spec.sub_id] = spec
            clients[spec.sub_id] = system.subscribe(
                spec.sub_id, "b2", ("P0",), spec.predicate
            )

        return apply

    events = {index: churn(slot, spec) for index, slot, spec in churn_schedule(ctx.seed, n_pubs)}
    window = Window(ctx, system)
    window.open()
    gen = await open_loop(
        n_pubs, FANOUT_RATE, publish, window_pubs=FANOUT_WINDOW_PUBS, events=events
    )
    last_tick = publisher.published[-1][1] if publisher.published else -1

    def delivered_through() -> bool:
        state = engine.stream_state()["P0"]["subend"]
        return state is not None and state["delivered_horizon"] > last_tick

    await wait_until(delivered_through, ctx.timeout(DRAIN_TIMEOUT_S))
    result.layers = await window.aclose(gen.attempted, gen)
    paced_metrics(result, gen, list(clients.values()), window_s, n_windows)

    # Expected sets come from a second, independent matcher (the subend
    # uses MatchingTree): one match per published event.
    reference = IndexedMatcher()
    for spec in stable:
        reference.add(spec.sub_id, spec.predicate)
    expected: Dict[str, Set[Tuple[str, int]]] = {spec.sub_id: set() for spec in stable}
    for __, tick, event in publisher.published:
        for sub_id in reference.match(event):
            expected[sub_id].add(("P0", tick))
    result.verdict.refused = gen.failed_attempts
    for spec in stable:
        check_exact(spec.sub_id, clients[spec.sub_id].received, expected[spec.sub_id], result.verdict)
    # Subscribers that joined or left mid-stream have no fixed expected
    # set: check no duplicate, in order, and predicate true.
    for sub_id, spec in churned.items():
        received = clients[sub_id].received
        check_sequence(sub_id, received, result.verdict)
        wrong = sum(1 for __, ___, event, ____ in received if not spec.predicate(event))
        if wrong:
            result.verdict.unexpected += wrong
            result.verdict.note(f"{sub_id}: {wrong} deliveries do not match its predicate")
    sample = random.Random(ctx.seed).sample([spec.sub_id for spec in stable], 20)
    check_with_repo_checker(
        [publisher],
        {sub_id: clients[sub_id] for sub_id in sample},
        system.subscriptions,
        result.verdict,
    )
    broker_failures(system, result.verdict)
    await system.shutdown()
    result.shape = {
        "rate": FANOUT_RATE,
        "window_s": window_s,
        "windows": n_windows,
        "subscribers": FANOUT_SUBSCRIBERS,
        "churn_ops": len(events),
    }
    return result


# ---------------------------------------------------------------------------
# lossy_recovery
# ---------------------------------------------------------------------------

LOSSY_RATE = 400
#: One publication in every this many loses a message.  At one in ten
#: the subscriber is waiting behind a gap ~90% of the time, so the median
#: latency sits firmly inside the recovery regime; at one in twenty it
#: sat on the edge of it (blocked 67% of the time) and moved 3x between
#: runs.
LOSSY_LOSS_EVERY = 10
LOSSY_OUTAGE_S = 2.0
LOSSY_CATCHUP_TIMEOUT_S = 10.0
#: Unmeasured traffic between the last phase A window and the outage, so
#: that a loss late in phase A is repaired before the link goes down.
LOSSY_GUARD_S = 1.0


def loss_schedule(seed: int, count: int) -> Set[int]:
    """Which publications lose their b0->b1 data message: one in every
    block of ten, at a seeded place in the block, so every seed loses the
    same number and the gaps between losses run from 1 to 19."""
    rng = random.Random(seed + 4)
    return {
        start + rng.randrange(LOSSY_LOSS_EVERY)
        for start in range(0, count - LOSSY_LOSS_EVERY + 1, LOSSY_LOSS_EVERY)
    }


async def lossy_recovery(ctx: Context) -> Result:
    """Phase A: one publication in ten loses a message on a seeded schedule
    (latency is measured here only).  Phase B: the b1–b2 link is severed
    for 2 s while publishing continues, then healed; publishing stops at
    the heal and the run lasts until every publication made before it is
    delivered.

    Losses are injected with ``LocalTransport.corrupt_next_messages`` —
    the transport's own detect-and-discard fault hook — just before the
    publish call, so the message lost is that publication's own b0->b1
    data message: b2 sees the gap, nacks through b1 to b0, and the
    retransmission comes back the same way.  Not with
    ``drop_probability``: the transport draws one random number per send
    in an order that depends on timer interleaving, so the same seed gave
    a different loss pattern on every run (README, "Findings").
    """
    result = Result()
    (system, client), result.metrics["setup_s"] = await repeated_setup(
        local_chain(ctx), shutdown_built
    )
    if ctx.inject == "drop-delivery":
        drop_one_delivery(client)
    publisher, send = stamped_publisher(system)
    transport = system.transport
    loop = asyncio.get_running_loop()
    n_windows = max(1, int(ctx.window_s * 0.75 * LOSSY_RATE / WINDOW_PUBS))
    phase_a = n_windows * WINDOW_PUBS + int(LOSSY_GUARD_S * LOSSY_RATE)
    outage = int(LOSSY_OUTAGE_S * LOSSY_RATE)
    losses = loss_schedule(ctx.seed, phase_a)

    def publish(i: int, due: float) -> bool:
        if i in losses:
            transport.corrupt_next_messages(1)
        return send(i, due)

    window = Window(ctx, system)
    window.open()
    gen = await open_loop(
        phase_a + outage,
        LOSSY_RATE,
        publish,
        window_pubs=WINDOW_PUBS,
        events={phase_a: lambda: system.sever_link("b1", "b2")},
    )
    system.heal_link("b1", "b2")
    healed_at = loop.time()
    caught_up = await wait_until(
        lambda: len(client.received) >= len(publisher.published),
        ctx.timeout(LOSSY_CATCHUP_TIMEOUT_S),
    )
    result.layers = await window.aclose(gen.attempted, gen)
    paced_metrics(result, gen, [client], WINDOW_PUBS / LOSSY_RATE, n_windows)
    if caught_up:
        result.metrics["catchup_s"] = Summary(client.received[-1][3] - healed_at, 1)
    verify_single(result, system, client, [publisher], gen.failed_attempts)
    if caught_up:
        await system.shutdown()
    else:
        await abandon(system)
    result.shape = {
        "rate": LOSSY_RATE,
        "loss_share": 1.0 / LOSSY_LOSS_EVERY,
        "losses": len(losses),
        "window_s": WINDOW_PUBS / LOSSY_RATE,
        "windows": n_windows,
        "outage_s": LOSSY_OUTAGE_S,
    }
    return result


# ---------------------------------------------------------------------------
# sim_chain
# ---------------------------------------------------------------------------

SIM_RATE = 500
#: 1%, not the issue's 2%: at 2% the subscriber waits behind a gap about
#: half the time, so the median latency flipped between the two regimes
#: (5.0 vs 8.8 ms) from seed to seed.
SIM_DROP = 0.01
SIM_OUTAGE_S = 1.0
#: When the outage starts, as a share of the simulated duration.
SIM_OUTAGE_AT = 0.5
SIM_DRAIN_LIMIT_S = 30.0
#: Simulated seconds per second of ``--seconds``: 45 at --seconds 15,
#: 9-14 s of CPU.
SIM_SECONDS_PER_SECOND = 3
#: A window, in simulated seconds: 500 publications, 0.2-0.4 s of CPU.
#: Not shorter: a window with no loss has a p99 of 5 ms and one with a
#: loss 57 ms (the recovery); of half-second windows 4-12% had none, so
#: the first decile over windows fell on either side from seed to seed.
#: Of one-second windows 0.7% have none.
SIM_WINDOW_S = 1.0


def build_sim(seed: int) -> Tuple[Any, Any]:
    """``bench._chain_run``'s PHB–MID–SHB chain, with a seeded 1% drop
    and 0.5 ms jitter on MID–SHB."""
    topo = Topology()
    topo.cell("PHB", "p").cell("MID", "m").cell("SHB", "s")
    topo.link("p", "m", latency=0.002)
    topo.link("m", "s", latency=0.002, jitter=0.0005, drop_probability=SIM_DROP)
    topo.pubend("P0", "p")
    topo.route_all("PHB", "MID").route_all("MID", "SHB")
    system = topo.build(seed=seed, params=FAST_PARAMS, log_commit_latency=0.0)
    client = system.subscribe("sub0", "s", ("P0",))
    system.start()
    return system, client


def sim_chain(ctx: Context) -> Result:
    """The deterministic simulator: 500 msg/s for ``3 * seconds``
    simulated seconds with loss and one 1 s outage, then drain.  Latency
    is simulated time; CPU and ``delivered_per_s`` are real."""
    result = Result()
    times: List[float] = []
    began = time.perf_counter()
    while more_setups(len(times), time.perf_counter() - began):
        started = time.perf_counter()
        system, client = build_sim(ctx.seed)
        times.append(time.perf_counter() - started)
    result.metrics["setup_s"] = setup_summary(times)
    if ctx.inject == "drop-delivery":
        drop_one_delivery(client)
    duration = int(ctx.window_s * SIM_SECONDS_PER_SECOND)
    outage_at = SIM_OUTAGE_AT * duration
    faults = FaultInjector(system)
    faults.at(outage_at, lambda: faults.fail_link("m", "s"))
    faults.at(outage_at + SIM_OUTAGE_S, lambda: faults.recover_link("m", "s"))
    publisher = system.publisher("P0", rate=float(SIM_RATE), body_bytes=BODY_BYTES)
    publisher.start()

    window = Window(ctx, system)
    window.open()
    n_windows = int(duration / SIM_WINDOW_S)
    cpu_marks = [(0, time.process_time())]
    wall_marks = [time.perf_counter()]
    for index in range(1, n_windows + 1):
        system.run_until(index * SIM_WINDOW_S)
        cpu_marks.append((publisher.seq, time.process_time()))
        wall_marks.append(time.perf_counter())
        if ctx.traced:
            ctx.probe.sample_streams(system)
    publisher.stop()
    deadline = system.now + ctx.timeout(SIM_DRAIN_LIMIT_S)
    while client.count() < len(publisher.published) and system.now < deadline:
        system.run_for(0.1)
    result.counts = {
        "published": len(publisher.published),
        "deliveries": client.count(),
        "events_run": system.scheduler.events_run,
        "knowledge_sent": sum(
            b.engine.counters.get("knowledge_sent", 0) for b in system.brokers.values()
        ),
        "nacks_sent": system.brokers["s"].engine.subend.total_nacks_sent(),
    }
    result.layers = window.close(publisher.seq, None)

    samples = [
        (event.get_attr("ts"), (at - event.get_attr("ts")) * 1000.0)
        for __, ___, event, at in client.received
    ]
    result.metrics.update(
        latency_metrics(split_windows(samples, 0.0, SIM_WINDOW_S, n_windows))
    )
    result.metrics["cpu_us_per_pub"] = cpu_us_per_pub(cpu_marks)
    # Every publication is delivered once, so deliveries per second is
    # the pace of publishing; counted by publications because an outage
    # moves deliveries, not work, from one window into the next.
    result.metrics["delivered_per_s"] = rate_per_s(
        [b[0] - a[0] for a, b in zip(cpu_marks, cpu_marks[1:])],
        [b - a for a, b in zip(wall_marks, wall_marks[1:])],
    )
    verify_single(result, system, client, [publisher], publisher.failed_attempts)
    result.shape = {
        "rate": SIM_RATE,
        "sim_seconds": duration,
        "window_s": SIM_WINDOW_S,
        "drop_probability": SIM_DROP,
        "outage_at_s": outage_at,
        "outage_s": SIM_OUTAGE_S,
    }
    return result


#: name -> workload; coroutine functions run on a fresh event loop.
RUNNERS: Dict[str, Callable[[Context], Any]] = {
    "steady_local": steady_local,
    "backlog_drain": backlog_drain,
    "tcp_durable": tcp_durable,
    "fanout_churn": fanout_churn,
    "lossy_recovery": lossy_recovery,
    "sim_chain": sim_chain,
}


def run_workload(name: str, ctx: Context) -> Result:
    runner = RUNNERS[name]
    if asyncio.iscoroutinefunction(runner):
        return asyncio.run(runner(ctx))
    return runner(ctx)
