"""Integration tests for subscription propagation: edge filters derived
dynamically from the subscriptions below each path."""

from repro import DeliveryChecker, LivenessParams
from repro.obs import CausalTracer
from repro.topology import Topology, balanced_pubend_names, figure3_topology

PROPAGATION = LivenessParams(
    gct=0.1, nrt_min=0.3, subscription_propagation=True, link_status_interval=0.2
)


def chain():
    topo = Topology()
    topo.cell("PHB", "phb").cell("IB", "ib").cell("SHB", "shb")
    topo.link("phb", "ib").link("ib", "shb")
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "IB").route("P0", "IB", "SHB")
    return topo


def transits(tracer, node, to, t0=0.0):
    """Knowledge sends (first-time and retransmissions) from ``node`` to
    ``to`` from time ``t0`` on."""
    return [
        span
        for span in tracer.spans
        if span.name == "transit"
        and span.node == node
        and span.attrs["dst"] == to
        and span.t0 >= t0
    ]


def knowledge_data_count(tracer, node, to):
    """D ticks actually shipped from ``node`` to ``to``."""
    return sum(span.attrs["d"] for span in transits(tracer, node, to))


class TestTrafficPruning:
    def test_narrow_subscription_prunes_upstream_links(self):
        system = chain().build(seed=3, params=PROPAGATION, log_commit_latency=0.01)
        tracer = CausalTracer(system).install()
        sub = system.subscribe("a", "shb", ("P0",), "g = 0")
        system.run_until(0.5)  # let the summary propagate
        pub = system.publisher("P0", rate=50.0, make_attributes=lambda i: {"g": i % 5})
        pub.start(at=0.6)
        system.run_until(3.0)
        pub.stop()
        system.run_until(5.0)
        report = DeliveryChecker([pub]).check(sub, system.subscriptions["a"])
        assert report.exactly_once
        matching = sum(1 for (__, ___, e) in pub.published if e["g"] == 0)
        shipped_to_shb = knowledge_data_count(tracer, "ib", "shb")
        shipped_to_ib = knowledge_data_count(tracer, "phb", "ib")
        # Both hops carry only the matching fifth of the data.
        assert shipped_to_shb == matching
        assert shipped_to_ib == matching

    def test_without_propagation_everything_is_shipped(self):
        params = PROPAGATION.with_(subscription_propagation=False)
        system = chain().build(seed=3, params=params, log_commit_latency=0.01)
        tracer = CausalTracer(system).install()
        system.subscribe("a", "shb", ("P0",), "g = 0")
        pub = system.publisher("P0", rate=50.0, make_attributes=lambda i: {"g": i % 5})
        pub.start(at=0.6)
        system.run_until(3.0)
        pub.stop()
        system.run_until(5.0)
        assert knowledge_data_count(tracer, "phb", "ib") == len(pub.published)

    def test_new_subscriber_widens_filters(self):
        system = chain().build(seed=3, params=PROPAGATION, log_commit_latency=0.01)
        sub0 = system.subscribe("zero", "shb", ("P0",), "g = 0")
        system.run_until(0.5)
        pub = system.publisher("P0", rate=50.0, make_attributes=lambda i: {"g": i % 2})
        pub.start(at=0.6)
        system.run_until(2.0)
        # A g=1 subscriber arrives mid-run; summaries widen within the
        # re-advertisement period and it starts receiving.
        sub1 = system.subscribe("one", "shb", ("P0",), "g = 1")
        joined_at = system.now
        system.run_until(5.0)
        pub.stop()
        system.run_until(7.0)
        late_matching = sum(
            1
            for (__, ___, e) in pub.published
            if e["g"] == 1 and e["ts"] > joined_at + 0.5
        )
        assert late_matching > 0
        assert sub1.count() >= late_matching
        # The original subscriber is untouched.
        report = DeliveryChecker([pub]).check(sub0, system.subscriptions["zero"])
        assert report.exactly_once

    def test_unsubscribe_narrows_filters(self):
        system = chain().build(seed=3, params=PROPAGATION, log_commit_latency=0.01)
        tracer = CausalTracer(system).install()
        system.subscribe("a", "shb", ("P0",), "g = 0")
        system.subscribe("b", "shb", ("P0",), "g = 1")
        system.run_until(0.5)
        pub = system.publisher("P0", rate=50.0, make_attributes=lambda i: {"g": i % 2})
        pub.start(at=0.6)
        system.run_until(2.0)

        def leave():
            system.brokers["shb"].engine.remove_subscription("b")

        system.scheduler.call_at(2.0, leave)
        system.run_until(5.0)
        pub.stop()
        system.run_until(7.0)
        # After the narrowing settles, g=1 data stops flowing to the SHB.
        shipped_late = sum(
            span.attrs["d"] for span in transits(tracer, "ib", "shb", t0=3.0)
        )
        late_published_g0 = sum(
            1 for (__, ___, e) in pub.published if e["g"] == 0 and e["ts"] > 3.0
        )
        assert shipped_late <= late_published_g0 + 2  # g=1 pruned


class TestPropagationRobustness:
    def test_summaries_survive_intermediate_restart(self):
        from repro.check import FaultSpec
        from repro.check.runner import schedule_steps

        names = balanced_pubend_names(2)
        system = figure3_topology(n_pubends=2, pubend_names=names).build(
            seed=7, params=PROPAGATION
        )
        sub = system.subscribe("a", "s1", tuple(names), "g = 0")
        system.run_until(0.5)
        pubs = [
            system.publisher(n, rate=20.0, make_attributes=lambda i: {"g": i % 2})
            for n in names
        ]
        fault = FaultSpec("stall_crash", ("b1",), at=2.0, duration=3.0, stall=1.0)
        schedule_steps(system.scheduler, system, fault.steps())
        for pub in pubs:
            pub.start(at=0.6)
        system.run_until(10.0)
        for pub in pubs:
            pub.stop()
        system.run_until(20.0)
        report = DeliveryChecker(pubs).check(sub, system.subscriptions["a"])
        assert report.exactly_once

    def test_exactly_once_under_loss_with_propagation(self):
        system = chain().build(seed=11, params=PROPAGATION, log_commit_latency=0.01)
        for link in system.network._links.values():
            link.drop_probability = 0.08
        sub = system.subscribe("a", "shb", ("P0",), "g = 0")
        system.run_until(0.5)
        pub = system.publisher("P0", rate=50.0, make_attributes=lambda i: {"g": i % 3})
        pub.start(at=0.6)
        system.run_until(4.0)
        pub.stop()
        system.run_until(15.0)
        report = DeliveryChecker([pub]).check(sub, system.subscriptions["a"])
        assert report.exactly_once

    def test_opaque_predicate_collapses_summary_to_match_all(self):
        system = chain().build(seed=3, params=PROPAGATION, log_commit_latency=0.01)
        tracer = CausalTracer(system).install()
        sub = system.subscribe("a", "shb", ("P0",), lambda e: e["g"] == 0)
        system.run_until(0.5)
        pub = system.publisher("P0", rate=50.0, make_attributes=lambda i: {"g": i % 5})
        pub.start(at=0.6)
        system.run_until(2.0)
        pub.stop()
        system.run_until(4.0)
        # Conservative: everything shipped, delivery still filtered locally.
        assert knowledge_data_count(tracer, "phb", "ib") == len(pub.published)
        report = DeliveryChecker([pub]).check(sub, system.subscriptions["a"])
        assert report.exactly_once
