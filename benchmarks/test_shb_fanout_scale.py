"""SHB fan-out: CPU per publication against local subscriber count.

The paper's Figure 4 claim (2) on the code that runs, in real time: a
three-broker ``AioSystem`` chain over ``LocalTransport``, N content
subscribers at the SHB (``group = i % (N/10)``), a publisher at 200 msg/s
whose every publication matches exactly ten of them, and
``time.process_time()`` per publication.  With a fixed number of
deliveries the cost must not follow N: the subscription index iterates
the matching tree's result, never the subscriber table.

Measured (docs/PERFORMANCE.md has every run): 481 / 594 / 1201 / 1922 µs
at N = 500 / 2000 / 8000 / 16000 while every publication walked every
subscriber (4.0x end to end), 438 / 439 / 448 / 454 since.

Takes ~13 s of wall time, most of it pacing.
"""

import asyncio
import time

from repro.aio.chaos import FAST_PARAMS, chain_topology
from repro.aio.runtime import AioSystem
from repro.aio.transport import LocalTransport

from _bench_tables import print_table

COUNTS = [500, 2000, 8000, 16000]
RATE = 200.0
PUBLICATIONS = 600
MATCHES = 10


async def cpu_us_per_publication(n: int) -> float:
    groups = n // MATCHES
    system = AioSystem(
        chain_topology(link_latency=0.0),
        params=FAST_PARAMS,
        transport=LocalTransport(seed=1),
    )
    await system.start()
    try:
        for i in range(n):
            system.subscribe(f"sub{i}", "b2", ("P0",), f"group = {i % groups}")
        publisher = system.publisher(
            "P0", rate=RATE, make_attributes=lambda seq: {"group": seq % groups}
        )
        subend = system.brokers["b2"].engine.subend
        loop = asyncio.get_running_loop()
        started, cpu = loop.time(), time.process_time()
        for i in range(PUBLICATIONS):
            await asyncio.sleep(max(0.0, started + i / RATE - loop.time()))
            publisher.publish_once()
        while subend.delivered_count < MATCHES * PUBLICATIONS:
            assert loop.time() < started + PUBLICATIONS / RATE + 30.0, "never drained"
            await asyncio.sleep(0.01)
        cpu = time.process_time() - cpu
        assert subend.delivered_count == MATCHES * PUBLICATIONS
        return cpu / PUBLICATIONS * 1e6
    finally:
        await system.shutdown()


def test_shb_fanout_cost_ignores_subscriber_count(benchmark):
    def run():
        return {n: asyncio.run(cpu_us_per_publication(n)) for n in COUNTS}

    cost = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"SHB fan-out: CPU per publication, {MATCHES} deliveries each, {RATE:.0f} msg/s",
        ["N subs", "CPU us / publication", "vs N=500"],
        [[n, cost[n], f"{cost[n] / cost[COUNTS[0]]:.2f}x"] for n in COUNTS],
    )
    assert cost[16000] < 1.5 * cost[500]
