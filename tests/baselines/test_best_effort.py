"""Tests for the best-effort baseline: delivers when healthy, loses
messages under failure (unlike GD), and costs less."""

from repro.baselines.best_effort import BestEffortBroker
from repro.client import DeliveryChecker
from repro.topology import two_broker_topology


def be_system(**kw):
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo.build(seed=3, broker_factory=BestEffortBroker, **kw)


class TestHealthyPath:
    def test_delivers_everything_without_failures(self):
        system = be_system()
        sub = system.subscribe("a", "shb", ("P0",))
        pub = system.publisher("P0", rate=100.0)
        pub.start(at=0.1)
        system.run_until(2.0)
        pub.stop()
        system.run_until(2.5)
        report = DeliveryChecker([pub]).check(sub, system.subscriptions["a"])
        assert report.exactly_once

    def test_content_filtering(self):
        system = be_system()
        sub = system.subscribe("a", "shb", ("P0",), "g = 1")
        pub = system.publisher("P0", rate=100.0, make_attributes=lambda i: {"g": i % 2})
        pub.start(at=0.1)
        system.run_until(1.0)
        pub.stop()
        system.run_until(1.5)
        assert sub.count() == sum(1 for (__, ___, e) in pub.published if e["g"] == 1)

    def test_no_logging_means_lower_latency_than_gd(self):
        system = be_system()
        sub = system.subscribe("a", "shb", ("P0",))
        pub = system.publisher("P0", rate=50.0)
        pub.start(at=0.1)
        system.run_until(2.0)
        med = system.metrics.latency.series("a").median()
        assert med < 0.01  # no 100 ms commit delay

    def test_intermediate_edge_filter_respected(self):
        from repro.matching.parser import parse

        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB", predicate=parse("g = 0"))
        system = topo.build(seed=3, broker_factory=BestEffortBroker)
        sub = system.subscribe("a", "shb", ("P0",))
        pub = system.publisher("P0", rate=50.0, make_attributes=lambda i: {"g": i % 2})
        pub.start(at=0.1)
        system.run_until(1.0)
        pub.stop()
        system.run_until(1.5)
        assert sub.count() == sum(1 for (__, ___, e) in pub.published if e["g"] == 0)


class TestLossIsPermanent:
    def test_drops_are_never_recovered(self):
        """The defining difference vs GD: lost is lost."""
        system = be_system()
        system.network.link("phb", "shb").drop_probability = 0.2
        sub = system.subscribe("a", "shb", ("P0",))
        pub = system.publisher("P0", rate=100.0)
        pub.start(at=0.1)
        system.run_until(3.0)
        pub.stop()
        system.run_until(6.0)
        report = DeliveryChecker([pub]).check(sub, system.subscriptions["a"])
        assert not report.exactly_once
        assert len(report.missing) > 0
        # but whatever did arrive is in order and unduplicated (client
        # online checks did not raise)

    def test_gd_recovers_where_best_effort_loses(self):
        """Differential: same seed/workload/loss; GD exactly once, BE not."""

        def run(factory):
            topo = two_broker_topology()
            topo.pubend("P0", "phb")
            topo.route("P0", "PHB", "SHB")
            system = topo.build(
                seed=9, broker_factory=factory, log_commit_latency=0.01
            )
            system.network.link("phb", "shb").drop_probability = 0.1
            sub = system.subscribe("a", "shb", ("P0",))
            pub = system.publisher("P0", rate=50.0)
            pub.start(at=0.1)
            system.run_until(4.0)
            pub.stop()
            system.run_until(15.0)
            return DeliveryChecker([pub]).check(sub, system.subscriptions["a"])

        be = run(BestEffortBroker)
        gd = run(None)
        assert not be.exactly_once
        assert gd.exactly_once


class TestFanout:
    def test_resubscribe_replaces(self):
        """The baselines' fan-out is the SHB's subscription index: adding
        a subscriber id again leaves one entry, with the new predicate."""
        system = be_system()
        first = system.subscribe("a", "shb", ("P0",), "g = 1")
        second = system.subscribe("a", "shb", ("P0",), lambda event: event["g"] == 2)
        pub = system.publisher("P0", rate=100.0, make_attributes=lambda i: {"g": i % 3})
        pub.start(at=0.1)
        system.run_until(1.0)
        pub.stop()
        system.run_until(1.5)
        assert first.count() == 0
        assert second.count() == sum(1 for (__, ___, e) in pub.published if e["g"] == 2)
        assert second.count() > 0
