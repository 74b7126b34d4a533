"""FaultInjector lifecycle orderings.

The regression guarded here: ``restart_broker`` after ``stall_broker``
with *no intervening crash* must clear the stall — a "restarted" process
reads and forwards again, so its links cannot stay silently absorbing
traffic.  The orderings stall->restart and stall->unstall->crash are the
two ways a script can leave stall bookkeeping behind.
"""

from repro.aio.transport import LocalTransport
from repro.check import FaultSpec
from repro.check.runner import schedule_steps
from repro.core.config import LivenessParams
from repro.core.ticks import tick_of_time
from repro.faults.injector import FaultInjector
from repro.topology import two_broker_topology


def build_system(seed: int = 5):
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo.build(seed=seed, params=LivenessParams(gct=0.1, nrt_min=0.3))


def links_of(system, broker_id):
    return list(system.network.links_of(broker_id))


class TestStallRestart:
    def test_restart_after_stall_clears_the_stall(self):
        system = build_system()
        injector = FaultInjector(system)

        injector.stall_broker("phb")
        assert all(link.stalled for link in links_of(system, "phb"))
        assert system.brokers["phb"].alive  # stalled, not dead

        # No crash in between: the broker process is bounced in place.
        injector.restart_broker("phb")
        assert system.brokers["phb"].alive
        assert all(not link.stalled for link in links_of(system, "phb"))
        assert all(link.up for link in links_of(system, "phb"))
        # Bookkeeping is clean: a later crash/restart cycle is unaffected.
        assert injector._stalled_brokers == set()

    def test_restarted_broker_forwards_again(self):
        system = build_system()
        injector = FaultInjector(system)
        client = system.subscribe("c", "shb", ("P0",))
        publisher = system.publisher("P0", rate=50.0)
        publisher.start(at=0.05)

        injector.at(0.5, lambda: injector.stall_broker("phb"))
        injector.at(1.5, lambda: injector.restart_broker("phb"))
        system.scheduler.call_at(3.0, publisher.stop)
        system.run_until(8.0)

        published = {tick for (_, tick, __) in publisher.published}
        received = {tick for (_, tick, __, ___) in client.received}
        assert published, "publisher must have published"
        assert received == published

    def test_stall_unstall_crash_ordering(self):
        system = build_system()
        injector = FaultInjector(system)

        injector.stall_broker("phb")
        injector.unstall_broker("phb")
        assert all(not link.stalled for link in links_of(system, "phb"))

        injector.crash_broker("phb")
        assert not system.brokers["phb"].alive
        # The stall was already lifted; crash bookkeeping stays clean and
        # the restart revives the broker with healthy links.
        assert injector._stalled_brokers == set()
        injector.restart_broker("phb")
        assert system.brokers["phb"].alive
        assert all(not link.stalled for link in links_of(system, "phb"))

    def test_stall_crash_restart_still_clears_stall(self):
        system = build_system()
        injector = FaultInjector(system)

        injector.stall_broker("phb")
        injector.crash_broker("phb")  # crash supersedes the stall
        assert injector._stalled_brokers == set()
        injector.restart_broker("phb")
        assert all(not link.stalled for link in links_of(system, "phb"))
        assert all(link.up for link in links_of(system, "phb"))


class TestFaultLogTimestamps:
    def test_log_and_events_use_the_scheduler_clock(self):
        system = build_system()
        injector = FaultInjector(system)

        injector.at(0.25, lambda: injector.stall_broker("phb"))
        injector.at(1.75, lambda: injector.restart_broker("phb"))
        system.run_until(2.0)

        assert [e.kind for e in injector.events] == [
            "stall_broker",
            "restart",
        ]
        for event in injector.events:
            # The tick stamp is the same instant on the protocol tick axis.
            assert event.tick == tick_of_time(event.time)
        stall, restart = injector.events
        assert abs(stall.time - 0.25) < 1e-9
        assert abs(restart.time - 1.75) < 1e-9
        # The human-readable log carries the same clock, same order.
        assert injector.log[0].startswith("t=0.250 ")
        assert injector.log[1].startswith("t=1.750 ")


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
        injector = FaultInjector(system)
        for burst in self.BURSTS:
            schedule_steps(system.scheduler, injector, burst.steps())

        # The same verbs in the same order on the asyncio runtime's wire
        # (what AioSystem's two pathology verbs call).
        wire = LocalTransport(drop_probability=0.02, jitter=0.001)
        on_wire = {
            "set_link_pathology": wire.set_pathology,
            "clear_link_pathology": wire.clear_pathology,
        }
        aio_steps = sorted(
            step for burst in self.BURSTS for step in burst.steps(stall=False)
        )
        seen = []
        for t, verb, args, kwargs in aio_steps:
            system.run_until(t + 0.5)
            on_wire[verb](*args, **kwargs)
            assert wire.pathology("phb", "shb")[:2] == link.pathology()
            assert (link.drop_probability, link.jitter) == self.AMBIENT
            seen.append(link.pathology()[0])
        assert seen == [0.5, 0.3, 0.02, 0.02]

        system.run_until(10.0)
        assert link.pathology() == self.AMBIENT
        assert [e.kind for e in injector.events] == [
            "set_link_pathology", "set_link_pathology",
            "clear_link_pathology", "clear_link_pathology",
        ]
        assert injector.log[0] == "t=1.000 link phb-shb pathology drop_probability=0.5"
        assert injector.log[-1] == "t=4.000 link phb-shb pathology cleared"

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
