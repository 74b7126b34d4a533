"""Fault-injection integration tests: the paper's section 4.2 scenarios
plus harsher conditions (lossy links, repeated faults, log recovery)."""

from repro import DeliveryChecker, PAPER_FAULT_PARAMS, figure3_topology
from repro.check import FaultSpec
from repro.check.runner import schedule_steps
from repro.topology import Topology, balanced_pubend_names, two_broker_topology


def fig3_system(n_pubends=2, seed=7, **build_kw):
    names = balanced_pubend_names(n_pubends)
    system = figure3_topology(n_pubends=n_pubends, pubend_names=names).build(
        seed=seed, params=PAPER_FAULT_PARAMS, **build_kw
    )
    return system, names


def run_with_fault(system, names, steps, until=20.0, drain=12.0, shbs=("s1", "s2", "s3")):
    subs = {s: system.subscribe(f"sub_{s}", s, tuple(names)) for s in shbs}
    pubs = [system.publisher(name, rate=25.0) for name in names]
    schedule_steps(system.scheduler, system, steps)
    for pub in pubs:
        pub.start(at=0.2)
    system.run_until(until)
    for pub in pubs:
        pub.stop()
    system.run_until(until + drain)
    checker = DeliveryChecker(pubs)
    reports = {
        s: checker.check(client, system.subscriptions[f"sub_{s}"])
        for s, client in subs.items()
    }
    system.check_invariants()
    return subs, pubs, reports


#: The paper's two-step faults (section 4.2): stall 1.5 s, then fail.
STALL_B1_S1 = FaultSpec("stall_link_fail", ("b1", "s1"), at=3.0, duration=5.0, stall=1.5)
STALL_CRASH_B1 = FaultSpec("stall_crash", ("b1",), at=3.0, duration=8.0, stall=1.5)


class TestLinkFailure:
    def test_stall_then_fail_recovers_exactly_once(self):
        system, names = fig3_system()
        __, pubs, reports = run_with_fault(
            system,
            names,
            STALL_B1_S1.steps(),
        )
        assert all(r.exactly_once for r in reports.values())
        assert sum(len(p.published) for p in pubs) > 0

    def test_messages_lost_in_stall_are_nacked(self):
        system, names = fig3_system()
        run_with_fault(
            system,
            names,
            STALL_B1_S1.steps(),
        )
        assert system.metrics.nacks.count("s1") > 0
        # subscribers not on the failure path never nack
        assert system.metrics.nacks.count("s3") == 0

    def test_clean_link_failure_loses_nothing(self):
        """Without a stall, adjacent detection is immediate and traffic
        switches paths without loss (paper: 'many such failures did not
        result in even a single message loss')."""
        system, names = fig3_system()
        __, __p, reports = run_with_fault(
            system,
            names,
            FaultSpec("link_fail", ("b1", "s1"), at=3.0, duration=6.0).steps(),
        )
        assert all(r.exactly_once for r in reports.values())
        assert system.metrics.nacks.count("s1") == 0

    def test_both_bundle_links_down_then_recovery(self):
        """Cut s1 off completely; liveness must recover after repair."""
        system, names = fig3_system()
        fault = [
            step
            for link in (("b1", "s1"), ("b2", "s1"))
            for step in FaultSpec("link_fail", link, at=3.0, duration=5.0).steps()
        ]
        __, __p, reports = run_with_fault(system, names, fault, until=25.0, drain=15.0)
        assert all(r.exactly_once for r in reports.values())


class TestBrokerCrash:
    def test_intermediate_crash_and_restart(self):
        system, names = fig3_system()
        __, __p, reports = run_with_fault(
            system,
            names,
            STALL_CRASH_B1.steps(),
            until=20.0,
            drain=12.0,
        )
        assert all(r.exactly_once for r in reports.values())

    def test_intermediate_crash_without_restart(self):
        """The surviving cell member carries the load alone."""
        system, names = fig3_system()
        __, __p, reports = run_with_fault(
            system,
            names,
            STALL_CRASH_B1.steps()[:-1],  # never restarted
            until=18.0,
        )
        assert all(r.exactly_once for r in reports.values())

    def test_nack_consolidation_at_surviving_peer(self):
        system, names = fig3_system(n_pubends=4)
        run_with_fault(
            system,
            names,
            STALL_CRASH_B1.steps(),
            until=20.0,
            drain=12.0,
            shbs=("s1", "s2"),
        )
        s1 = system.metrics.nacks.total_range("s1")
        s2 = system.metrics.nacks.total_range("s2")
        b2 = system.metrics.nacks.total_range("b2")
        assert s1 > 0 and s2 > 0
        # b2 forwards roughly half of the combined downstream nack range.
        assert b2 <= 0.75 * (s1 + s2)

    def test_repeated_crashes(self):
        system, names = fig3_system()
        fault = [
            step
            for at in (3.0, 12.0)
            for step in FaultSpec("stall_crash", ("b1",), at, 4.0, stall=1.0).steps()
        ]
        __, __p, reports = run_with_fault(system, names, fault, until=25.0, drain=15.0)
        assert all(r.exactly_once for r in reports.values())


class TestPhbCrash:
    def test_phb_crash_blocks_publishing_but_stays_exactly_once(self):
        system, names = fig3_system()
        fault = FaultSpec("crash", ("p1",), at=3.0, duration=7.0).steps()
        __, pubs, reports = run_with_fault(system, names, fault, until=25.0, drain=15.0)
        assert all(r.exactly_once for r in reports.values())
        assert all(p.failed_attempts > 0 for p in pubs)  # down while crashed

    def test_no_nacks_while_phb_down_with_infinite_dct(self):
        system, names = fig3_system()
        fault = FaultSpec("crash", ("p1",), at=3.0, duration=10.0).steps()
        run_with_fault(system, names, fault, until=28.0, drain=12.0)
        # Any nacks must come after the restart-triggered AckExpected.
        for node in system.metrics.nacks.nodes():
            for sample in system.metrics.nacks.series(node).samples:
                assert sample.t >= 13.0

    def test_logged_but_unsent_messages_survive_crash(self):
        """Messages committed before the crash but never propagated must
        be delivered after recovery (the paper's partial sawtooth)."""
        system, names = fig3_system(n_pubends=1)
        name = names[0]
        sub = system.subscribe("s", "s1", (name,))
        pub = system.publisher(name, rate=25.0)
        # Crash immediately after a publish commits but (possibly) before
        # the send: with 100 ms commit latency, crash 50 ms after publish.
        pub.start(at=0.2)
        schedule_steps(
            system.scheduler, system, FaultSpec("crash", ("p1",), 3.01, 4.99).steps()
        )
        system.run_until(25.0)
        pub.stop()
        system.run_until(40.0)
        report = DeliveryChecker([pub]).check(sub, system.subscriptions["s"])
        assert report.exactly_once


class TestLossyLinks:
    def test_random_drops_everywhere(self):
        """5% i.i.d. loss on every link: GD must still be exactly once."""
        topo = figure3_topology(n_pubends=2, pubend_names=balanced_pubend_names(2))
        lossy = Topology()
        # rebuild the same topology with drop_probability on every link
        system = topo.build(seed=13, params=PAPER_FAULT_PARAMS)
        for link in list(system.network._links.values()):
            link.drop_probability = 0.05
        names = balanced_pubend_names(2)
        subs = {s: system.subscribe(f"sub_{s}", s, tuple(names)) for s in ("s1", "s4")}
        pubs = [system.publisher(name, rate=25.0) for name in names]
        for pub in pubs:
            pub.start(at=0.2)
        system.run_until(15.0)
        for pub in pubs:
            pub.stop()
        system.run_until(35.0)
        checker = DeliveryChecker(pubs)
        for sub_id, client in subs.items():
            report = checker.check(client, system.subscriptions[f"sub_{sub_id}"])
            assert report.exactly_once, report.missing[:5]

    def test_reordering_jitter(self):
        """Heavy jitter reorders messages; delivery order must hold."""
        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB")
        system = topo.build(seed=17, params=PAPER_FAULT_PARAMS)
        system.network.link("phb", "shb").jitter = 0.05
        sub = system.subscribe("a", "shb", ("P0",))
        pub = system.publisher("P0", rate=100.0)
        pub.start(at=0.1)
        system.run_until(5.0)
        pub.stop()
        system.run_until(12.0)
        report = DeliveryChecker([pub]).check(sub, system.subscriptions["a"])
        assert report.exactly_once
        ticks = sub.delivered_ticks("P0")
        assert ticks == sorted(ticks)


class TestFileLogRecovery:
    def test_phb_crash_with_file_log(self, tmp_path):
        from repro.storage.log import FileLog

        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB")
        system = topo.build(
            seed=3,
            params=PAPER_FAULT_PARAMS,
            log_factory=lambda p: FileLog(str(tmp_path / f"{p}.jsonl"), commit_latency=0.05),
        )
        sub = system.subscribe("a", "shb", ("P0",))
        pub = system.publisher("P0", rate=25.0)
        seen = {}

        def crash():
            seen["old_log"] = system.brokers["phb"].engine.pubends["P0"].log
            system.crash_broker("phb")

        def restart():
            system.restart_broker("phb")
            pubend = system.brokers["phb"].engine.pubends["P0"]
            seen["new_log"] = pubend.log
            seen["horizon"] = pubend.horizon

        system.scheduler.call_at(2.0, crash)
        system.scheduler.call_at(6.0, restart)
        pub.start(at=0.2)
        system.run_until(20.0)
        pub.stop()
        system.run_until(35.0)
        report = DeliveryChecker([pub]).check(sub, system.subscriptions["a"])
        assert report.exactly_once
        # The handle died with the process; recovery went through a
        # reopened file and re-advertised the same doubt horizon.
        old_log = seen["old_log"]
        assert old_log._fh.closed
        assert seen["new_log"] is not old_log
        assert old_log.last_tick("P0") is not None
        assert seen["horizon"] == max(
            old_log.truncated_below("P0"), old_log.last_tick("P0") + 1
        )
