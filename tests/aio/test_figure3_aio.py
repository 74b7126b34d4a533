"""The figure-3 network on the asyncio runtime (real wall-clock)."""

import asyncio
import math

import pytest

from repro.aio.runtime import AioSystem
from repro.aio.transport import LocalTransport
from repro.client import DeliveryChecker
from repro.core.config import LivenessParams
from repro.topology import balanced_pubend_names, figure3_topology

FAST = LivenessParams(
    gct=0.05,
    nrt_min=0.1,
    nrt_max=2.0,
    aet=1.0,
    dct=math.inf,
    silence_interval=0.1,
    link_status_interval=0.1,
)


class Ground:
    def __init__(self, publisher):
        self.pubend = publisher.pubend
        self.published = publisher.published


@pytest.mark.slow
def test_figure3_with_crash_over_asyncio():
    async def scenario():
        names = balanced_pubend_names(2)
        transport = LocalTransport(latency=0.001, drop_probability=0.02, seed=5)
        system = AioSystem(
            figure3_topology(n_pubends=2, pubend_names=names),
            params=FAST,
            transport=transport,
        )
        await system.start()
        clients = {
            shb: system.subscribe(f"sub_{shb}", shb, tuple(names))
            for shb in ("s1", "s3")
        }
        publishers = [system.publisher(name, rate=50.0) for name in names]
        for publisher in publishers:
            publisher.start()
        await system.run_for(0.4)
        # Crash an intermediate broker mid-run, restart shortly after.
        await system.crash_broker("b1")
        await system.run_for(0.3)
        await system.restart_broker("b1")
        await system.run_for(0.5)
        for publisher in publishers:
            await publisher.stop()
        # Drain (nacks, retransmissions, acks) by polling for convergence
        # rather than racing a fixed window: recovery time depends on
        # where each nack backoff lands, up to nrt_max.
        checker = DeliveryChecker([Ground(p) for p in publishers])

        def reports_now():
            return {
                shb: checker.check(client, system.subscriptions[f"sub_{shb}"])
                for shb, client in clients.items()
            }

        reports = reports_now()
        for __ in range(16):
            if all(r.exactly_once for r in reports.values()):
                break
            await system.run_for(0.5)
            reports = reports_now()
        await system.shutdown()
        return reports, publishers, transport

    reports, publishers, transport = asyncio.run(scenario())
    assert sum(len(p.published) for p in publishers) > 30
    for shb, report in reports.items():
        assert report.exactly_once, (shb, report.missing[:3])
