"""The fault verbs, stalls included, on both backends.

The regression guarded by the stall orderings: ``restart_broker`` after
``stall_broker`` with *no intervening crash* must clear the stall — a
"restarted" process reads and forwards again, so its links cannot stay
silently absorbing traffic.  stall->restart and stall->unstall->crash are
the two ways a schedule can leave a stall behind.  Each ordering runs on
the simulator and on the asyncio runtime over both transports.
"""

import asyncio
import inspect
import math

import pytest

from repro.aio.runtime import AioSystem
from repro.aio.transport import LocalTransport, TcpTransport
from repro.check import FaultSpec
from repro.check.runner import schedule_steps
from repro.core.config import LivenessParams
from repro.core.ticks import tick_of_time
from repro.topology import System, two_broker_topology

FAST = LivenessParams(gct=0.05, nrt_min=0.1, aet=1.0, dct=math.inf,
                      silence_interval=0.1, link_status_interval=0.1,
                      nrt_max=2.0)

BACKENDS = ("sim", "local", "tcp")


def gd_topology():
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo


def build_system(seed: int = 5):
    return gd_topology().build(seed=seed, params=LivenessParams(gct=0.1, nrt_min=0.3))


async def call(result):
    """Await a verb's result where the backend made it a coroutine."""
    if inspect.isawaitable(result):
        await result


def stalled(system, broker):
    """Per link of ``broker``: is it stalled?"""
    if isinstance(system, System):
        return [link.stalled for link in system.network.links_of(broker)]
    wire = system.transport
    return [
        wire._key(broker, peer) in wire.stalled
        for peer in system.plan.infos[broker].neighbors
    ]


def usable(system, a, b):
    if isinstance(system, System):
        return system.network.link_is_usable(a, b)
    return system.transport.link_usable(a, b)


def run_on(backend, scenario):
    """Run ``scenario(system)`` (a coroutine function) on one backend."""

    async def main():
        if backend == "sim":
            return await scenario(gd_topology().build(seed=5, params=FAST))
        wire = LocalTransport() if backend == "local" else TcpTransport(heartbeat_interval=0.05)
        system = AioSystem(gd_topology(), params=FAST, transport=wire)
        await system.start()
        try:
            return await scenario(system)
        finally:
            await system.shutdown()

    return asyncio.run(main())


async def run_for(system, seconds):
    await call(system.run_for(seconds))


@pytest.mark.parametrize("backend", BACKENDS)
class TestStallOrderings:
    def test_restart_after_stall_clears_the_stall(self, backend):
        async def scenario(system):
            system.stall_broker("phb")
            assert all(stalled(system, "phb"))
            assert system.brokers["phb"].alive  # stalled, not dead
            assert usable(system, "shb", "phb")  # and it looks healthy
            # No crash in between: the broker process is bounced in place.
            await call(system.restart_broker("phb"))
            assert system.brokers["phb"].alive
            assert not any(stalled(system, "phb"))
            assert usable(system, "shb", "phb")

        run_on(backend, scenario)

    def test_stall_unstall_crash_ordering(self, backend):
        async def scenario(system):
            system.stall_broker("phb")
            system.unstall_broker("phb")
            assert not any(stalled(system, "phb"))
            await call(system.crash_broker("phb"))
            assert not system.brokers["phb"].alive
            await call(system.restart_broker("phb"))
            assert system.brokers["phb"].alive
            assert not any(stalled(system, "phb"))

        run_on(backend, scenario)

    def test_stall_crash_restart_still_clears_stall(self, backend):
        async def scenario(system):
            system.stall_broker("phb")
            await call(system.crash_broker("phb"))  # crash supersedes the stall
            await call(system.restart_broker("phb"))
            assert not any(stalled(system, "phb"))
            await run_for(system, 0.3)  # a TCP peer reconnects to the new port
            assert usable(system, "shb", "phb")

        run_on(backend, scenario)

    def test_restarted_broker_forwards_again(self, backend):
        async def scenario(system):
            client = system.subscribe("c", "shb", ("P0",))
            publisher = system.publisher("P0", rate=50.0)
            publisher.start()
            await run_for(system, 0.3)
            system.stall_broker("phb")
            await run_for(system, 0.05)  # what was in flight lands
            absorbed_from = client.count()
            await run_for(system, 0.4)
            assert client.count() == absorbed_from, "a stall delivers nothing"
            await call(system.restart_broker("phb"))
            await run_for(system, 0.3)
            await call(publisher.stop())
            for __ in range(30):
                await run_for(system, 0.1)
                if client.count() == len(publisher.published):
                    break
            published = {tick for (_, tick, __) in publisher.published}
            received = {tick for (_, tick, __, ___) in client.received}
            assert published and received == published

        run_on(backend, scenario)


class TestStalledTcpPair:
    def test_looks_healthy_while_its_data_is_discarded(self):
        """The paper's "looks healthy": heartbeats are not data sends, so a
        stalled pair keeps its acks, stays usable and never turns suspect
        — for well over the heartbeat timeout — while every data send on
        it is dropped."""

        async def scenario(system):
            wire = system.transport
            system.subscribe("c", "shb", ("P0",))
            publisher = system.publisher("P0", rate=100.0)
            publisher.start()
            await run_for(system, 0.3)
            conn = wire._conns[("phb", "shb")]
            assert conn.up
            system.stall_link("phb", "shb")
            await run_for(system, 0.05)  # the pre-stall outbox drains
            sends, written, acked = wire.sent, wire.msgs_sent, conn.last_ack
            await run_for(system, 4 * wire.heartbeat_timeout)
            assert wire.sent > sends  # the engine kept sending ...
            assert wire.msgs_sent == written  # ... and nothing reached the wire
            assert conn.last_ack > acked  # while heartbeats were still acked
            assert usable(system, "phb", "shb") and usable(system, "shb", "phb")
            assert conn.up and not conn.suspect
            assert wire.heartbeat_failures == 0
            await publisher.stop()

        run_on("tcp", scenario)


class TestFaultLogTimestamps:
    def test_log_and_events_use_the_scheduler_clock(self):
        system = build_system()
        spec = FaultSpec("stall_restart", ("phb",), at=0.25, duration=1.5)
        schedule_steps(system.scheduler, system, spec.steps())
        system.run_until(2.0)

        events = system.obs.fault_events
        assert [e.kind for e in events] == ["stall_broker", "restart"]
        for event in events:
            # The tick stamp is the same instant on the protocol tick axis.
            assert event.tick == tick_of_time(event.time)
        stall, restart = events
        assert abs(stall.time - 0.25) < 1e-9
        assert abs(restart.time - 1.75) < 1e-9
        # The readable line (RunResult.fault_log's) carries the same clock.
        assert str(stall).startswith("t=0.250 (tick 250) stall_broker phb")
        assert str(restart).startswith("t=1.750 ")


class TestLinkPathologyOverride:
    """One model on both substrates: ambient values plus at most one
    override per link; ``clear`` restores ambient, whatever came before."""

    AMBIENT = (0.02, 0.001)
    #: Two overlapping bursts on phb-shb: 1.0-3.0 s at p=0.5, 2.0-4.0 s
    #: at p=0.3 (the saved-value closures this replaced ended at 0.5).
    BURSTS = (
        FaultSpec("drop_burst", ("phb", "shb"), at=1.0, duration=2.0, intensity=0.5),
        FaultSpec("drop_burst", ("phb", "shb"), at=2.0, duration=2.0, intensity=0.3),
    )

    def test_overlapping_bursts_end_at_the_ambient_values(self):
        system = build_system()
        link = system.network.link("phb", "shb")
        link.drop_probability, link.jitter = self.AMBIENT
        for burst in self.BURSTS:
            schedule_steps(system.scheduler, system, burst.steps())

        # The same verbs in the same order on the asyncio runtime's wire
        # (what AioSystem's two pathology verbs call).
        wire = LocalTransport(drop_probability=0.02, jitter=0.001)
        on_wire = {
            "set_link_pathology": wire.set_pathology,
            "clear_link_pathology": wire.clear_pathology,
        }
        seen = []
        for t, verb, args, kwargs in sorted(
            step for burst in self.BURSTS for step in burst.steps()
        ):
            system.run_until(t + 0.5)
            on_wire[verb](*args, **kwargs)
            assert wire.pathology("phb", "shb")[:2] == link.pathology()
            assert (link.drop_probability, link.jitter) == self.AMBIENT
            seen.append(link.pathology()[0])
        assert seen == [0.5, 0.3, 0.02, 0.02]

        system.run_until(10.0)
        assert link.pathology() == self.AMBIENT
        assert [(e.time, e.kind) for e in system.obs.fault_events] == [
            (1.0, "set_link_pathology"), (2.0, "set_link_pathology"),
            (3.0, "clear_link_pathology"), (4.0, "clear_link_pathology"),
        ]

    def test_corruption_is_a_drop_on_the_simulator(self):
        system = build_system()
        link = system.network.link("phb", "shb")
        system.set_link_pathology("phb", "shb", corrupt_probability=0.25)
        assert link.pathology() == (0.25, 0.0)
        system.set_link_pathology(
            "phb", "shb", drop_probability=0.5, corrupt_probability=0.5
        )
        assert link.pathology() == (0.75, 0.0)
        system.set_link_pathology("phb", "shb")  # nothing to set: no-op
        assert link.pathology() == (0.75, 0.0)
        system.clear_link_pathology("phb", "shb")
        assert link.pathology() == (0.0, 0.0)
